"""Differential tests: the compiled (vectorized) MNA assembly against the
per-element scalar stamps it replaced.

The reference below is the scalar stamping path kept verbatim in spirit:
one ``stamp``/``stamp_ac`` per element into a dense system with ground
skipped index by index, a companion-state object per reactive element, and
the scalar EKV/diode equations evaluated one device at a time.  Every
compiled assembly must agree with it to 1e-12 relative, on random sizings
of every paper netlist and on small hand circuits that cover the remaining
element types and waveforms.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuits import LDORegulator, ThreeStageTIA, TwoStageOTA
from repro.circuits.ldo import build_ldo
from repro.circuits.ota import build_ota
from repro.circuits.tia import build_tia
from repro.spice import (
    Circuit,
    NMOS_180,
    PMOS_180,
    ac_analysis,
    dc_sweep,
    operating_point,
    transient_analysis,
)
from repro.spice.dc import DV_MAX, RELTOL, VNTOL
from repro.spice.elements import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Diode,
    Element,
    Inductor,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.spice.exceptions import NetlistError
from repro.spice.mna import StampContext
from repro.spice.models import DiodeModel
from repro.spice.montecarlo import apply_mismatch, restore_models
from repro.spice.waveforms import DCWave, PieceWiseLinear, Pulse, Sine

RTOL = 1e-12
N_SIZINGS = 200


# -- reference: scalar per-element stamps -------------------------------------

def _softplus(u: float) -> float:
    if u > 40.0:
        return u
    if u < -40.0:
        return math.exp(u)
    return math.log1p(math.exp(u))


def _sigmoid(u: float) -> float:
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-min(u, 60.0)))
    e = math.exp(max(u, -60.0))
    return e / (1.0 + e)


def ref_mosfet(elem: Mosfet, vd: float, vg: float, vs: float, vb: float):
    """Scalar EKV: ``(id, (gds, gm, gms, gmb))`` of the ``m`` devices."""
    mo = elem.model
    p, ut = float(mo.polarity), mo.ut
    fvg, fvd, fvs = p * (vg - vb), p * (vd - vb), p * (vs - vb)
    vp = (fvg - mo.vto) / mo.n
    uf, ur = (vp - fvs) / ut, (vp - fvd) / ut
    i_f, i_r = _softplus(uf / 2.0) ** 2, _softplus(ur / 2.0) ** 2
    dif = _softplus(uf / 2.0) * _sigmoid(uf / 2.0)
    dir_ = _softplus(ur / 2.0) * _sigmoid(ur / 2.0)
    isq = mo.specific_current(elem.w, elem.l)
    icore = isq * (i_f - i_r)
    lam = mo.lambda_l / elem.l
    vds = fvd - fvs
    eps = 1e-3
    sabs = math.sqrt(vds * vds + eps * eps) - eps
    dsabs = vds / math.sqrt(vds * vds + eps * eps)
    mclm = 1.0 + lam * sabs
    gm = isq * (dif - dir_) / (mo.n * ut) * mclm
    gds = isq * dir_ / ut * mclm + icore * lam * dsabs
    gms = -isq * dif / ut * mclm - icore * lam * dsabs
    gmb = -(gm + gds + gms)
    m = elem.m
    return p * icore * mclm * m, (gds * m, gm * m, gms * m, gmb * m)


def ref_diode(elem: Diode, v: float) -> tuple[float, float]:
    mo = elem.model
    nut = mo.n * mo.ut
    if v <= mo.v_crit:
        e = math.exp(v / nut)
        i, g = mo.is_ * (e - 1.0), mo.is_ * e / nut
    else:
        e = math.exp(mo.v_crit / nut)
        g = mo.is_ * e / nut
        i = mo.is_ * (e - 1.0) + g * (v - mo.v_crit)
    return i * elem.area, g * elem.area


class RefSystem:
    """Dense MNA system with ground-skipping stamp helpers."""

    def __init__(self, n: int, complex_valued: bool = False) -> None:
        dtype = complex if complex_valued else float
        self.A = np.zeros((n, n), dtype=dtype)
        self.z = np.zeros(n, dtype=dtype)

    def add_a(self, i: int, j: int, value) -> None:
        if i >= 0 and j >= 0:
            self.A[i, j] += value

    def add_z(self, i: int, value) -> None:
        if i >= 0:
            self.z[i] += value

    def conductance(self, a: int, b: int, g) -> None:
        self.add_a(a, a, g)
        self.add_a(b, b, g)
        self.add_a(a, b, -g)
        self.add_a(b, a, -g)

    def incidence(self, br: int, a: int, b: int) -> None:
        self.add_a(a, br, 1.0)
        self.add_a(b, br, -1.0)
        self.add_a(br, a, 1.0)
        self.add_a(br, b, -1.0)


class RefCapState:
    """Backward-Euler / trapezoidal companion state of one capacitance."""

    def __init__(self, a: int, b: int, c: float, ic: float | None = None):
        self.a, self.b, self.c, self.ic = a, b, c, ic
        self.v_prev = self.i_prev = 0.0

    def companion(self, ctx: StampContext) -> tuple[float, float]:
        if ctx.integ == "be":
            geq = self.c / ctx.dt
            return geq, geq * self.v_prev
        geq = 2.0 * self.c / ctx.dt
        return geq, geq * self.v_prev + self.i_prev

    def stamp(self, sys: RefSystem, ctx: StampContext) -> None:
        geq, ceq = self.companion(ctx)
        sys.conductance(self.a, self.b, geq)
        sys.add_z(self.a, ceq)
        sys.add_z(self.b, -ceq)

    def commit(self, v_new: float, ctx: StampContext) -> None:
        geq, ceq = self.companion(ctx)
        self.v_prev, self.i_prev = v_new, geq * v_new - ceq


class Reference:
    """The scalar assembly path over a bound circuit."""

    def __init__(self, circuit: Circuit) -> None:
        circuit.ensure_bound()
        self.circuit = circuit
        self.size = circuit.size
        self.caps: list[RefCapState] = []
        self.inductors: dict[str, list[float]] = {}  # name -> [i_prev, v_prev]
        for elem in circuit.elements:
            if isinstance(elem, Capacitor):
                self.caps.append(RefCapState(*elem.nodes, elem.capacitance,
                                             elem.ic))
            elif isinstance(elem, Mosfet):
                d, g, s, b = elem.nodes
                c = elem.model.capacitances(elem.w, elem.l)
                for ta, tb, key in ((g, s, "cgs"), (g, d, "cgd"),
                                    (d, b, "cdb"), (s, b, "csb")):
                    self.caps.append(RefCapState(ta, tb, c[key] * elem.m))
            elif isinstance(elem, Diode) and elem.model.cj0 > 0:
                self.caps.append(RefCapState(*elem.nodes,
                                             elem.model.cj0 * elem.area))
            elif isinstance(elem, Inductor):
                self.inductors[elem.name] = [0.0, 0.0]

    @staticmethod
    def _v(x: np.ndarray, i: int) -> float:
        return 0.0 if i < 0 else float(np.real(x[i]))

    def _stamp_mosfet(self, sys: RefSystem, elem: Mosfet, x: np.ndarray,
                      with_rhs: bool) -> None:
        volts = [self._v(x, i) for i in elem.nodes]
        id_, partials = ref_mosfet(elem, *volts)
        d, s = elem.nodes[0], elem.nodes[2]
        for col, gt in zip(elem.nodes, partials):
            sys.add_a(d, col, gt)
            sys.add_a(s, col, -gt)
        if with_rhs:
            ieq = id_ - sum(gt * vt for gt, vt in zip(partials, volts))
            sys.add_z(d, -ieq)
            sys.add_z(s, ieq)

    def assemble(self, x: np.ndarray, ctx: StampContext) -> RefSystem:
        sys = RefSystem(self.size)
        tran = ctx.analysis == "tran"
        for elem in self.circuit.elements:
            nodes, br = elem.nodes, elem.branch_start
            if isinstance(elem, Resistor):
                sys.conductance(*nodes, elem.conductance)
            elif isinstance(elem, VoltageSource):
                sys.incidence(br, *nodes)
                sys.add_z(br, elem.waveform.value(ctx.time) * ctx.source_scale)
            elif isinstance(elem, CurrentSource):
                value = elem.waveform.value(ctx.time) * ctx.source_scale
                sys.add_z(nodes[0], -value)
                sys.add_z(nodes[1], value)
            elif isinstance(elem, Inductor):
                sys.incidence(br, *nodes)
                if tran:
                    i_prev, v_prev = self.inductors[elem.name]
                    if ctx.integ == "be":
                        req = elem.inductance / ctx.dt
                        rhs = -req * i_prev
                    else:
                        req = 2.0 * elem.inductance / ctx.dt
                        rhs = -req * i_prev - v_prev
                    sys.add_a(br, br, -req)
                    sys.add_z(br, rhs)
            elif isinstance(elem, VCVS):
                a, b, c, d = nodes
                sys.incidence(br, a, b)
                sys.add_a(br, c, -elem.mu)
                sys.add_a(br, d, elem.mu)
            elif isinstance(elem, VCCS):
                a, b, c, d = nodes
                for row, col, sign in ((a, c, 1), (a, d, -1), (b, c, -1),
                                       (b, d, 1)):
                    sys.add_a(row, col, sign * elem.gm)
            elif isinstance(elem, Mosfet):
                self._stamp_mosfet(sys, elem, x, with_rhs=True)
            elif isinstance(elem, Diode):
                a, b = nodes
                v = self._v(x, a) - self._v(x, b)
                i, g = ref_diode(elem, v)
                sys.conductance(a, b, g)
                sys.add_z(a, -(i - g * v))
                sys.add_z(b, i - g * v)
        if tran:
            for cap in self.caps:
                cap.stamp(sys, ctx)
        for i in range(self.circuit.n_nodes):
            sys.A[i, i] += ctx.gmin
        return sys

    def assemble_ac(self, x_op: np.ndarray, omega: float,
                    gmin: float = 1e-12) -> RefSystem:
        sys = RefSystem(self.size, complex_valued=True)
        for elem in self.circuit.elements:
            nodes, br = elem.nodes, elem.branch_start
            if isinstance(elem, Resistor):
                sys.conductance(*nodes, elem.conductance)
            elif isinstance(elem, VoltageSource):
                sys.incidence(br, *nodes)
                sys.add_z(br, elem.ac)
            elif isinstance(elem, CurrentSource):
                sys.add_z(nodes[0], -elem.ac)
                sys.add_z(nodes[1], elem.ac)
            elif isinstance(elem, Inductor):
                sys.incidence(br, *nodes)
                sys.add_a(br, br, -1j * omega * elem.inductance)
            elif isinstance(elem, VCVS):
                a, b, c, d = nodes
                sys.incidence(br, a, b)
                sys.add_a(br, c, -elem.mu)
                sys.add_a(br, d, elem.mu)
            elif isinstance(elem, VCCS):
                a, b, c, d = nodes
                for row, col, sign in ((a, c, 1), (a, d, -1), (b, c, -1),
                                       (b, d, 1)):
                    sys.add_a(row, col, sign * elem.gm)
            elif isinstance(elem, Mosfet):
                self._stamp_mosfet(sys, elem, x_op, with_rhs=False)
            elif isinstance(elem, Diode):
                v = self._v(x_op, nodes[0]) - self._v(x_op, nodes[1])
                sys.conductance(*nodes, ref_diode(elem, v)[1])
        for cap in self.caps:
            sys.conductance(cap.a, cap.b, 1j * omega * cap.c)
        for i in range(self.circuit.n_nodes):
            sys.A[i, i] += gmin
        return sys

    def init_state(self, x: np.ndarray) -> None:
        for cap in self.caps:
            cap.v_prev = (cap.ic if cap.ic is not None
                          else self._v(x, cap.a) - self._v(x, cap.b))
            cap.i_prev = 0.0
        for elem in self.circuit.elements:
            if isinstance(elem, Inductor):
                i0 = elem.ic if elem.ic is not None else x[elem.branch_start]
                self.inductors[elem.name] = [float(i0), 0.0]

    def commit(self, x: np.ndarray, ctx: StampContext) -> None:
        for cap in self.caps:
            cap.commit(self._v(x, cap.a) - self._v(x, cap.b), ctx)
        for elem in self.circuit.elements:
            if isinstance(elem, Inductor):
                a, b = elem.nodes
                self.inductors[elem.name] = [
                    float(x[elem.branch_start]),
                    self._v(x, a) - self._v(x, b)]


# -- comparison ------------------------------------------------------------------

def assert_same_system(new, ref, x: np.ndarray, label: str) -> None:
    """A agrees row by row and z entry by entry to RTOL, each relative to
    the magnitude of its own row (``sum_j |A_ij x_j|`` for z)."""
    a_new, a_ref = np.asarray(new.A), ref.A
    assert a_new.shape == a_ref.shape, label
    row_scale = np.max(np.abs(a_ref), axis=1, keepdims=True)
    bad = np.abs(a_new - a_ref) > RTOL * row_scale
    assert not bad.any(), (
        f"{label}: A differs at {np.argwhere(bad)[:3].tolist()}")
    z_scale = np.abs(ref.z) + np.abs(a_ref) @ np.abs(x)
    bad = np.abs(np.asarray(new.z) - ref.z) > RTOL * z_scale
    assert not bad.any(), f"{label}: z differs at {np.flatnonzero(bad)[:3]}"


DC_CONTEXTS = [StampContext(analysis="dc", gmin=g, source_scale=s)
               for g in (1e-2, 1e-12) for s in (0.3, 1.0)]
OMEGAS = (2 * np.pi * 1e3, 2 * np.pi * 1e8)


def random_iterate(ckt: Circuit, rng: np.random.Generator) -> np.ndarray:
    """Node voltages over and beyond the rails, small branch currents."""
    x = rng.uniform(-0.5, 2.3, ckt.size)
    x[ckt.n_nodes:] = rng.normal(0.0, 1e-3, ckt.size - ckt.n_nodes)
    return x


def check_all_contexts(ckt: Circuit, rng: np.random.Generator,
                       t: float = 20.5e-9) -> None:
    """DC at two gmin x two source scales; trap and BE at two dt from a
    non-zero companion state; AC at two frequencies."""
    for elem in ckt.elements:
        if isinstance(elem, VoltageSource | CurrentSource):
            elem.ac = float(rng.normal())
    new = ckt.compile()
    ref = Reference(ckt)
    x = random_iterate(ckt, rng)
    for ctx in DC_CONTEXTS:
        assert_same_system(new.assemble(x, ctx), ref.assemble(x, ctx), x,
                           f"{ckt.title} {ctx}")
    # Start both from one iterate, commit one step at another: capacitor
    # voltages and currents and inductor states are all non-zero.
    x0, x1 = random_iterate(ckt, rng), random_iterate(ckt, rng)
    for obj in (new, ref):
        obj.init_state(x0)
        obj.commit(x1, StampContext(analysis="tran", time=t - 1e-10,
                                    dt=1e-10, integ="trap"))
    for integ in ("trap", "be"):
        for dt in (1e-10, 3e-9):
            ctx = StampContext(analysis="tran", time=t, dt=dt, integ=integ)
            assert_same_system(new.assemble(x, ctx), ref.assemble(x, ctx), x,
                               f"{ckt.title} {ctx}")
    for omega in OMEGAS:
        assert_same_system(ckt.assemble_ac(x, omega), ref.assemble_ac(x, omega),
                           np.abs(x), f"{ckt.title} AC w={omega:g}")


def sizings(task, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(N_SIZINGS):
        yield task.space.denormalize(rng.uniform(size=task.d)), rng


PAPER_NETLISTS = {
    "ota-open-loop": (TwoStageOTA, lambda p: build_ota(p)),
    "ota-unity-gain": (TwoStageOTA, lambda p: build_ota(p, closed_loop=True)),
    "ota-step": (TwoStageOTA,
                 lambda p: build_ota(p, closed_loop=True, step_input=True)),
    "tia": (ThreeStageTIA, build_tia),
    "ldo": (LDORegulator, build_ldo),
}


@pytest.mark.parametrize("name", sorted(PAPER_NETLISTS))
def test_paper_netlists_match_scalar_stamps(name):
    task_cls, build = PAPER_NETLISTS[name]
    seed = sorted(PAPER_NETLISTS).index(name)
    for params, rng in sizings(task_cls(fidelity="fast"), seed):
        check_all_contexts(build(params), rng)


# -- hand circuits for the remaining element types ------------------------------

def _hand_circuits() -> list[Circuit]:
    rlc = Circuit("rlc-sin")
    rlc.add_vsource("V1", "in", "0", Sine(0.2, 0.5, 50e6, td=1e-9, theta=1e6))
    rlc.add_resistor("R1", "in", "a", 50.0)
    rlc.add_inductor("L1", "a", "b", 1e-6)
    rlc.add_inductor("L2", "b", "0", 2e-7, ic=1e-3)
    rlc.add_capacitor("C1", "b", "0", 1e-12, ic=0.1)
    rlc.add_capacitor("C2", "a", "b", 3e-13)

    diode = Circuit("diode-pulse")
    diode.add_vsource("V1", "in", "0",
                      Pulse(0.0, 1.2, td=5e-9, tr=2e-9, tf=2e-9, pw=10e-9,
                            per=30e-9))
    diode.add_resistor("R1", "in", "a", 1e3)
    diode.add_diode("D1", "a", "0", DiodeModel("dcj", cj0=2e-12), area=2.0)
    diode.add_diode("D2", "a", "k", DiodeModel("dplain"))
    diode.add_resistor("R2", "k", "0", 5e3)

    ctrl = Circuit("controlled-pwl")
    ctrl.add_isource("I1", "0", "in",
                     PieceWiseLinear([(0.0, 0.0), (10e-9, 1e-3),
                                      (30e-9, -2e-4)]))
    ctrl.add_resistor("Rin", "in", "0", 2e3)
    ctrl.add_vcvs("E1", "e", "0", "in", "0", 4.0)
    ctrl.add_resistor("Re", "e", "f", 1e3)
    ctrl.add_vccs("G1", "f", "0", "in", "e", 2e-3)
    ctrl.add_capacitor("Cf", "f", "0", 1e-12)
    ctrl.add_mosfet("M1", "f", "e", "0", "0", NMOS_180, 5e-6, 0.5e-6, m=3)
    ctrl.add_mosfet("M2", "f", "in", "vdd", "vdd", PMOS_180, 8e-6, 1e-6)
    ctrl.add_vsource("Vdd", "vdd", "0", 1.8)
    return [rlc, diode, ctrl]


@pytest.mark.parametrize("index", range(3))
def test_hand_circuits_match_scalar_stamps(index):
    rng = np.random.default_rng(index)
    for t in (0.5e-9, 6e-9, 15e-9, 29e-9, 45e-9):
        check_all_contexts(_hand_circuits()[index], rng, t=t)


def test_unknown_element_type_is_rejected():
    class Memristor(Element):
        pass

    ckt = Circuit()
    ckt.add_vsource("V1", "a", "0", 1.0)
    ckt.add(Memristor("X1", ("a", "0")))
    with pytest.raises(NetlistError, match="Memristor"):
        operating_point(ckt)


# -- end to end: a whole transient against the scalar path ----------------------

def ref_transient(ckt: Circuit, x0: np.ndarray, t_stop: float,
                  dt: float) -> np.ndarray:
    """The transient driver over the scalar reference (no halvings are
    needed on this bench; a failure to converge fails the test)."""
    ref = Reference(ckt)
    ref.init_state(x0)
    n_nodes = ckt.n_nodes
    x = x0.copy()
    xs = [x]
    n_steps = int(round(t_stop / dt))
    for k in range(1, n_steps + 1):
        ctx = StampContext(analysis="tran", time=k * dt, dt=dt,
                           integ="be" if k == 1 else "trap")
        for _ in range(60):
            sys = ref.assemble(x, ctx)
            x_new = np.linalg.solve(sys.A, sys.z)
            delta = x_new - x
            max_dv = np.max(np.abs(delta[:n_nodes]))
            if max_dv > DV_MAX:
                delta[:n_nodes] *= DV_MAX / max_dv
            x = x + delta
            tol = VNTOL + RELTOL * max(1.0, float(np.max(np.abs(x[:n_nodes]))))
            if max_dv <= tol and np.max(np.abs(x_new - x)) < 1e-30 + VNTOL:
                break
        else:
            raise AssertionError(f"reference Newton failed at step {k}")
        ref.commit(x, ctx)
        xs.append(x)
    return np.array(xs)


def test_ota_step_transient_matches_scalar_path():
    task = TwoStageOTA(fidelity="fast")
    params = task.space.denormalize(np.full(task.d, 0.5))
    x0 = operating_point(build_ota(params, closed_loop=True)).x
    ckt = build_ota(params, closed_loop=True, step_input=True)
    window = 400e-9
    dt = window / task.fid.tran_points
    new = transient_analysis(ckt, window, dt, x0=x0)
    ref = ref_transient(ckt, x0, window, dt)
    assert new.xs.shape == ref.shape
    err = np.max(np.abs(new.xs - ref)) / np.max(np.abs(ref))
    assert err < 1e-9
    # The step actually moved the output.
    out = ckt.node_index("out")
    assert np.ptp(ref[:, out]) > 0.1


# -- values changed between analyses are picked up -----------------------------

def _pair() -> Circuit:
    ckt = Circuit("pair")
    ckt.add_vsource("Vdd", "vdd", "0", 1.8)
    ckt.add_vsource("Vp", "a", "0", 0.9)
    ckt.add_vsource("Vn", "b", "0", 0.9)
    ckt.add_isource("It", "t", "0", 20e-6)
    ckt.add_mosfet("M1", "x", "a", "t", "0", NMOS_180, 10e-6, 1e-6)
    ckt.add_mosfet("M2", "y", "b", "t", "0", NMOS_180, 10e-6, 1e-6)
    ckt.add_resistor("R1", "vdd", "x", 50e3)
    ckt.add_resistor("R2", "vdd", "y", 50e3)
    return ckt


def test_mismatch_and_restore_are_picked_up():
    ckt = _pair()
    nominal = operating_point(ckt).x
    originals = apply_mismatch(ckt, np.random.default_rng(3))
    perturbed = operating_point(ckt).x
    fresh = _pair()
    for name in originals:
        fresh[name].model = ckt[name].model
    np.testing.assert_array_equal(perturbed, operating_point(fresh).x)
    assert abs(perturbed[ckt.node_index("x")]
               - perturbed[ckt.node_index("y")]) > 1e-6
    restore_models(ckt, originals)
    np.testing.assert_array_equal(operating_point(ckt).x, nominal)


def test_ota_ac_flips_are_picked_up():
    task = TwoStageOTA(fidelity="fast")
    params = task.space.denormalize(np.full(task.d, 0.5))
    ckt = build_ota(params)
    op = operating_point(ckt)
    freqs = np.logspace(1, 9, 17)
    settings = ((0.5, -0.5, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    results = []
    for vp, vn, vdd in settings:
        ckt["Vp"].ac, ckt["Vn"].ac, ckt["Vdd"].ac = vp, vn, vdd
        results.append(ac_analysis(ckt, freqs, op).v("out"))
        fresh = build_ota(params)
        fresh["Vp"].ac, fresh["Vn"].ac, fresh["Vdd"].ac = vp, vn, vdd
        np.testing.assert_array_equal(
            results[-1], ac_analysis(fresh, freqs, op.x).v("out"))
    # Differential, common-mode and supply gains all differ.
    dc = [abs(h[0]) for h in results]
    assert dc[0] > 10 * dc[1] and dc[0] > 10 * dc[2]


def test_dc_sweep_values_are_picked_up():
    values = np.array([0.7, 0.9, 1.1])
    sweep = dc_sweep(_pair(), "Vp", values)
    for value, x in zip(values, sweep.xs):
        fresh = _pair()
        fresh["Vp"].waveform = DCWave(value)
        np.testing.assert_allclose(x, operating_point(fresh).x,
                                   rtol=1e-6, atol=1e-9)
