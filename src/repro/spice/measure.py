"""Measurement helpers: turn raw analysis results into circuit metrics.

These mirror the ``.measure`` statements an analog designer would write in
an HSpice deck (gain, unity-gain frequency, phase margin, settling time...).
All functions are pure and operate on numpy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.spice.exceptions import AnalysisError


def db(x: np.ndarray | float) -> np.ndarray | float:
    """Magnitude in decibels (20 log10 |x|), floored to avoid -inf."""
    mag = np.abs(x)
    return 20.0 * np.log10(np.maximum(mag, 1e-30))


def phase_deg(h: np.ndarray) -> np.ndarray:
    """Unwrapped phase in degrees."""
    return np.degrees(np.unwrap(np.angle(h)))


def dc_gain(h: np.ndarray) -> float:
    """Low-frequency gain magnitude (first sweep point)."""
    return float(np.abs(h[0]))


def unity_gain_frequency(freqs: np.ndarray, h: np.ndarray) -> float | None:
    """First frequency where |H| crosses 1 from above (None if it never does)."""
    mag = np.abs(np.asarray(h))
    freqs = np.asarray(freqs, dtype=float)
    above = mag >= 1.0
    if not above[0]:
        return None  # gain below unity from the start
    crossings = np.nonzero(above[:-1] & ~above[1:])[0]
    if crossings.size == 0:
        return None
    i = int(crossings[0])
    # log-log interpolation between points i and i+1
    lm0, lm1 = np.log10(mag[i]), np.log10(max(mag[i + 1], 1e-30))
    lf0, lf1 = np.log10(freqs[i]), np.log10(freqs[i + 1])
    frac = lm0 / (lm0 - lm1) if lm0 != lm1 else 0.5
    return float(10.0 ** (lf0 + frac * (lf1 - lf0)))


def phase_margin(freqs: np.ndarray, h: np.ndarray) -> float | None:
    """Phase margin in degrees at the unity-gain crossover.

    Assumes ``h`` is the loop (or open-loop) gain with low-frequency phase
    near 0 or 180 degrees; the returned margin is ``180 + phase(f_ugf)``
    after normalizing the low-frequency phase to 0.
    """
    fu = unity_gain_frequency(freqs, h)
    if fu is None:
        return None
    ph = phase_deg(np.asarray(h))
    # Normalize so the low-frequency phase is ~0 (inverting outputs read 180).
    ph = ph - np.round(ph[0] / 360.0) * 360.0
    if abs(ph[0]) > 90.0:
        ph = ph - np.sign(ph[0]) * 180.0
    lf = np.log10(np.asarray(freqs, dtype=float))
    ph_u = float(np.interp(np.log10(fu), lf, ph))
    return 180.0 + ph_u


def bandwidth_3db(freqs: np.ndarray, h: np.ndarray) -> float | None:
    """-3 dB bandwidth relative to the low-frequency gain."""
    mag = np.abs(np.asarray(h))
    target = mag[0] / np.sqrt(2.0)
    below = mag < target
    if not np.any(below):
        return None
    i = int(np.argmax(below))
    if i == 0:
        return float(freqs[0])
    lf = np.log10(np.asarray(freqs, dtype=float))
    m0, m1 = mag[i - 1], mag[i]
    frac = (m0 - target) / (m0 - m1) if m0 != m1 else 0.5
    return float(10.0 ** (lf[i - 1] + frac * (lf[i] - lf[i - 1])))


def settling_time(t: np.ndarray, y: np.ndarray, final_value: float | None = None,
                  tol: float = 0.01, t_start: float = 0.0) -> float | None:
    """Time after which ``y`` stays within ``tol`` (fractional, of the total
    step) of its final value.  Returns None if it never settles.

    ``t_start`` marks the stimulus edge; settling time is measured from it.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.size < 2:
        raise AnalysisError("settling_time needs matching t/y arrays")
    if final_value is None:
        final_value = float(y[-1])
    y0 = float(np.interp(t_start, t, y))
    swing = abs(final_value - y0)
    band = tol * swing if swing > 0 else tol * max(abs(final_value), 1e-12)
    outside = np.abs(y - final_value) > band
    relevant = t >= t_start
    outside &= relevant
    if not np.any(outside):
        return 0.0
    last_out = int(np.nonzero(outside)[0][-1])
    if last_out + 1 >= t.size:
        return None  # still outside the band at the end of the window
    return float(t[last_out + 1] - t_start)
