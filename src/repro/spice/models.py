"""Device model cards and model equations.

The MOSFET model is a simplified EKV formulation chosen deliberately over
the classic SPICE level-1 square law: EKV's single interpolation function
covers weak/moderate/strong inversion and triode/saturation with a C1-smooth
expression, which keeps Newton-Raphson robust across the random sizings an
optimizer throws at the simulator.

Model equations (bulk-referenced, polarity-flipped so PMOS reuses the NMOS
math):

    vp  = (Vg - VTO) / n
    F(u) = ln(1 + exp(u / 2))^2          (EKV interpolation function)
    i_f = F((vp - Vs) / Ut),  i_r = F((vp - Vd) / Ut)
    Is  = 2 n KP (W/L) Ut^2
    Id  = Is (i_f - i_r) * (1 + lambda * |Vds|_smooth)

``lambda`` scales as ``lambda_l / L`` so short channels show strong channel-
length modulation, as in a real 180 nm process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BOLTZMANN = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19
ROOM_TEMP = 300.15
UT_ROOM = BOLTZMANN * ROOM_TEMP / ELEMENTARY_CHARGE  # ~25.9 mV
EPS_OX = 3.9 * 8.8541878128e-12  # F/m


def _ekv_f_pair(u):
    """``(F(u), F'(u))`` elementwise, without overflow: ``F(u) =
    softplus(u/2)^2`` and ``F'(u) = softplus(u/2) * sigmoid(u/2)``."""
    h = u / 2.0
    sp = np.logaddexp(0.0, h)  # softplus(h) = ln(1 + exp(h))
    # sigmoid(h) = exp(h) / (1 + exp(h)) = exp(h - softplus(h)).
    return sp * sp, sp * np.exp(h - sp)


def ekv_f(u):
    """EKV interpolation function ``F(u) = ln(1+exp(u/2))^2``."""
    return _ekv_f_pair(u)[0]


def ekv_f_prime(u):
    """Derivative ``F'(u) = ln(1+exp(u/2)) * sigmoid(u/2)``."""
    return _ekv_f_pair(u)[1]


#: Sign of the channel-length-modulation term in each terminal's
#: conductance (drain, gate, source).
_CLM_SIGN = np.array([[1.0], [0.0], [-1.0]])


def ekv(polarity, vto, n, ut, isq, lam, v):
    """EKV drain current and conductances, elementwise over devices.

    The model arguments are scalars or arrays of one value per device:
    polarity (+1/-1), threshold ``vto``, slope factor ``n``, thermal
    voltage ``ut``, specific current ``isq`` and channel-length-modulation
    coefficient ``lam`` (already divided by L).  ``v``, of shape
    ``(4, n_devices)``, stacks the *absolute* terminal voltages in
    ``(d, g, s, b)`` order.  Returns ``(id, g, i_f, i_r)``: the drain
    current flowing drain -> source (signed, A); ``g``, stacked like ``v``,
    its partials ``(gds, gm, gms, gmb)`` with respect to the drain, gate,
    source and bulk voltages (in absolute-voltage space, so they stamp
    directly); and the forward/reverse normalized currents.  :meth:`MosfetModel.evaluate` and
    the compiled circuit both evaluate the model through this function.
    """
    # Flip into NMOS-equivalent, bulk-referenced space: rows d, g, s.
    f = polarity * (v[:3] - v[3])
    vp = (f[1] - vto) / n
    # Forward (source) and reverse (drain) arguments share one F / F'.
    (i_f, i_r), dfr = _ekv_f_pair((vp - f[::-2]) / ut)
    dif, dir_ = dfr
    icore = isq * (i_f - i_r)
    # Channel-length modulation with a smooth |Vds|.
    vds = f[0] - f[2]
    eps = 1e-3
    root = np.sqrt(vds * vds + eps * eps)
    mclm = 1.0 + lam * (root - eps)
    # Partials of icore in flipped space, rows d, g, s.
    dic = np.concatenate((dfr[1:], ((dif - dir_) / n)[None], -dfr[:1])) * (
        isq / ut)
    # Full partials; d(flipped v)/d(abs v) = p for d/g/s and the bulk
    # picks up minus the sum, so conductances keep their sign while the
    # current flips with polarity.
    g3 = dic * mclm + _CLM_SIGN * (icore * lam * vds / root)
    g = np.concatenate((g3, -g3.sum(axis=0, keepdims=True)))
    return polarity * icore * mclm, g, i_f, i_r


def diode_iv(v, is_, nut, v_crit):
    """Diode ``(current, conductance)`` at junction voltage ``v``,
    elementwise.  Above ``v_crit`` the exponential is linearized to avoid
    overflow during Newton iterations far from the solution."""
    vc = np.minimum(v, v_crit)
    e = np.exp(vc / nut)
    g = is_ * e / nut
    return is_ * (e - 1.0) + g * (v - vc), g


@dataclass(frozen=True)
class MosfetModel:
    """An EKV-style MOSFET model card.

    Attributes
    ----------
    name: card name, e.g. ``"nmos180"``.
    polarity: +1 for NMOS, -1 for PMOS.
    vto: threshold voltage magnitude (positive for both polarities) [V].
    kp: transconductance parameter ``mu * Cox`` [A/V^2].
    n: subthreshold slope factor (dimensionless).
    lambda_l: channel-length-modulation coefficient; the per-device value is
        ``lambda_l / L`` [V^-1 * m].
    tox: oxide thickness [m] (sets intrinsic gate capacitance).
    cgso / cgdo: gate overlap capacitance per unit width [F/m].
    cjw: junction capacitance per unit width (drain/source to bulk) [F/m].
    gamma_noise: channel thermal-noise factor (2/3 in saturation).
    kf / af: flicker-noise coefficient and current exponent.
    """

    name: str
    polarity: int
    vto: float = 0.45
    kp: float = 300e-6
    n: float = 1.3
    lambda_l: float = 0.03e-6
    tox: float = 4e-9
    cgso: float = 3.7e-10
    cgdo: float = 3.7e-10
    cjw: float = 1.0e-9
    gamma_noise: float = 2.0 / 3.0
    kf: float = 3e-24
    af: float = 1.0
    temp: float = ROOM_TEMP

    def __post_init__(self) -> None:
        if self.polarity not in (1, -1):
            raise ValueError("polarity must be +1 (NMOS) or -1 (PMOS)")
        if self.vto <= 0 or self.kp <= 0 or self.n < 1.0 or self.tox <= 0:
            raise ValueError(f"non-physical model parameters in {self.name!r}")

    @property
    def ut(self) -> float:
        """Thermal voltage at the model temperature."""
        return BOLTZMANN * self.temp / ELEMENTARY_CHARGE

    @property
    def cox(self) -> float:
        """Oxide capacitance per unit area [F/m^2]."""
        return EPS_OX / self.tox

    def specific_current(self, w: float, l: float) -> float:
        """EKV specific current ``Is = 2 n KP (W/L) Ut^2``."""
        return 2.0 * self.n * self.kp * (w / l) * self.ut**2

    def at_temperature(self, temp_c: float) -> "MosfetModel":
        """Model card re-evaluated at ``temp_c`` degrees Celsius.

        First-order temperature physics: mobility degrades as
        ``(T/T0)^-1.5`` and |VTO| drops ~1 mV/K; the thermal voltage (and
        hence subthreshold behaviour and noise) follows T through
        :attr:`temp`.
        """
        from dataclasses import replace

        t_new = temp_c + 273.15
        ratio = t_new / self.temp
        return replace(
            self,
            name=f"{self.name}@{temp_c:g}C",
            kp=self.kp * ratio**-1.5,
            vto=max(self.vto - 1e-3 * (t_new - self.temp), 0.05),
            temp=t_new,
        )

    def evaluate(
        self, vg: float, vd: float, vs: float, vb: float, w: float, l: float
    ) -> dict[str, float]:
        """Evaluate drain current and conductances at a bias point.

        Inputs are *absolute* terminal voltages.  Returns a dict with:

        ``id``  drain current flowing drain -> source (signed, A)
        ``gm``  dId/dVg, ``gds`` dId/dVd, ``gms`` dId/dVs, ``gmb`` dId/dVb
        (all in absolute-voltage space, so they stamp directly).
        """
        id_, g, i_f, i_r = ekv(
            float(self.polarity), self.vto, self.n, self.ut,
            self.specific_current(w, l), self.lambda_l / l,
            np.array([[vd], [vg], [vs], [vb]], dtype=float))
        gds, gm, gms, gmb = g[:, 0].tolist()
        return {"id": float(id_[0]), "gm": gm, "gds": gds, "gms": gms,
                "gmb": gmb, "if": float(i_f[0]), "ir": float(i_r[0])}

    def capacitances(self, w: float, l: float) -> dict[str, float]:
        """Geometry-determined small-signal capacitances [F].

        The simulator treats these as bias-independent (saturation-region
        Meyer values), which keeps transient integration charge-conserving.
        """
        c_intrinsic = self.cox * w * l
        return {
            "cgs": (2.0 / 3.0) * c_intrinsic + self.cgso * w,
            "cgd": self.cgdo * w,
            "cdb": self.cjw * w,
            "csb": self.cjw * w,
        }

    def thermal_noise_psd(self, gm: float) -> float:
        """Channel thermal noise current PSD ``4 k T gamma gm`` [A^2/Hz]."""
        return 4.0 * BOLTZMANN * self.temp * self.gamma_noise * max(gm, 0.0)

    def flicker_noise_psd(self, drain_current: float, w: float, l: float,
                          f: float | np.ndarray) -> float | np.ndarray:
        """Flicker noise current PSD ``KF Id^AF / (Cox W L f)`` [A^2/Hz];
        ``f`` may be an array of frequencies."""
        if np.any(np.asarray(f) <= 0):
            raise ValueError("flicker noise frequency must be positive")
        cox_tot = self.cox * w * l
        return self.kf * abs(drain_current) ** self.af / (cox_tot * f)


@dataclass(frozen=True)
class DiodeModel:
    """Ideal-exponential junction diode model with series conductance clamp."""

    name: str
    is_: float = 1e-14
    n: float = 1.0
    temp: float = ROOM_TEMP
    v_crit: float = 0.9
    cj0: float = field(default=0.0)

    @property
    def ut(self) -> float:
        return BOLTZMANN * self.temp / ELEMENTARY_CHARGE

    def evaluate(self, v: float) -> tuple[float, float]:
        """Return ``(current, conductance)`` at junction voltage ``v``.

        Above ``v_crit`` the exponential is linearized to avoid overflow
        during Newton iterations far from the solution.
        """
        i, g = diode_iv(v, self.is_, self.n * self.ut, self.v_crit)
        return float(i), float(g)


# Representative generic 0.18 um CMOS cards.  Values are textbook-plausible
# (not any foundry's data): NMOS mobility ~3-4x PMOS, |VTO| ~ 0.45 V,
# tox ~ 4 nm, strong CLM at minimum length.
NMOS_180 = MosfetModel(
    name="nmos180",
    polarity=+1,
    vto=0.45,
    kp=300e-6,
    n=1.30,
    lambda_l=0.06e-6,
    tox=4e-9,
    kf=4e-24,
)

PMOS_180 = MosfetModel(
    name="pmos180",
    polarity=-1,
    vto=0.45,
    kp=85e-6,
    n=1.35,
    lambda_l=0.08e-6,
    tox=4e-9,
    kf=1.5e-24,
)

DEFAULT_DIODE = DiodeModel(name="d180")
