#!/usr/bin/env python3
"""Tour of the built-in circuit simulator — no optimizer involved.

Parses a hand-written SPICE deck (with a subcircuit), lints it, prints the
operating point, runs AC / transient / noise / .TF analyses, and sweeps a
device width.  Run it to sanity-check the simulator or as a template for
bringing your own decks.

Usage:
    python examples/spice_playground.py
"""

import numpy as np

from repro.analysis.erc import run_erc
from repro.spice import (
    ac_analysis,
    noise_analysis,
    op_report,
    operating_point,
    parse_netlist,
    transfer_function,
    transient_analysis,
)
from repro.spice import measure as M
from repro.spice.ac import logspace_frequencies
from repro.spice.sweep import param_sweep

DECK = """
five-transistor OTA playground
.subckt ota5t inp inn out vdd
Mtail tail bias 0 0 nmos180 W=20u L=1u
M1    d1   inp  tail 0 nmos180 W=40u L=0.5u
M2    out  inn  tail 0 nmos180 W=40u L=0.5u
M3    d1   d1   vdd vdd pmos180 W=20u L=0.5u
M4    out  d1   vdd vdd pmos180 W=20u L=0.5u
Rb    vdd  bias 60k
Mb    bias bias 0 0 nmos180 W=20u L=1u
.ends

Vdd vdd 0 1.8
Vp  inp 0 DC 0.9 AC 0.5
Vn  inn 0 DC 0.9 AC -0.5
X1  inp inn out vdd ota5t
CL  out 0 1p
.end
"""


def main() -> None:
    ckt = parse_netlist(DECK)
    print(f"parsed {len(ckt.elements)} elements, {ckt.n_nodes} nodes")
    findings = run_erc(ckt)
    print("lint:", [d.render() for d in findings] or "clean")

    op = operating_point(ckt)
    print()
    print(op_report(op))

    freqs = logspace_frequencies(1e2, 1e9, 6)
    h = ac_analysis(ckt, freqs, op).v("out")
    print(f"\ndifferential gain: {M.db(h[0]):.1f} dB, "
          f"f3dB = {M.bandwidth_3db(freqs, h):.3e} Hz, "
          f"UGF = {M.unity_gain_frequency(freqs, h):.3e} Hz")

    tf = transfer_function(ckt, "Vp", "out", x_op=op)
    print(f".TF: gain={tf.gain:.1f}, Rout={tf.output_resistance / 1e3:.1f} kOhm")

    nz = noise_analysis(ckt, "out", logspace_frequencies(1e2, 1e7, 4),
                        input_source="Vp", x_op=op)
    print(f"integrated output noise (100 Hz - 10 MHz): "
          f"{nz.integrated_output_noise() * 1e6:.1f} uVrms")
    top = max(nz.contributions.items(), key=lambda kv: kv[1][0])
    print(f"dominant low-frequency noise source: {top[0]}")

    # Step response of the same amp in unity-gain (rewired deck).
    buf = parse_netlist(DECK.replace("Vn  inn 0 DC 0.9 AC -0.5",
                                     "Rfb out inn 1")
                        .replace("Vp  inp 0 DC 0.9 AC 0.5",
                                 "Vp inp 0 PULSE(0.9 1.1 50n 1n 1n 1)"))
    tr = transient_analysis(buf, 1e-6, 2e-9)
    ts = M.settling_time(tr.times, tr.v("out"), tol=0.01, t_start=51e-9)
    print(f"unity-gain settling (1%): "
          f"{'n/a' if ts is None else f'{ts * 1e9:.1f} ns'}")

    # Design exploration: gain vs input-pair width.
    widths = np.array([10e-6, 20e-6, 40e-6, 80e-6])
    gains = param_sweep(
        ckt, "X1.M1", "w", widths,
        measure=lambda o: o.element_info("X1.M1")["gm"])
    print("\ninput-pair gm vs W1:")
    for w, gm in zip(widths, gains):
        print(f"  W={w * 1e6:5.1f} um  gm={gm * 1e3:.3f} mS")


if __name__ == "__main__":
    main()
