"""Compiled form of a circuit: index arrays behind one vectorized MNA stamp.

Each analysis compiles its circuit at entry (:meth:`Circuit.compile`).  The
linear part is pre-summed into one matrix and every capacitance (MOSFET
Meyer caps and diode junction caps included) and inductance into one
matrix ``C``; sources keep their branch/node index; MOSFETs and diodes
become per-device parameter arrays with flat scatter indices.  Ground maps
to an extra row and column that is sliced away.  DC and transient Newton
steps add one vectorized device evaluation to a base matrix built once per
``(analysis, dt, integ, gmin)``; small-signal analyses use ``G + jwC``.
See docs/spice.md, "Assembly".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.spice.elements import (
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Diode,
    Inductor,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.spice.exceptions import AnalysisError, NetlistError
from repro.spice.mna import MNASystem, StampContext
from repro.spice.models import diode_iv, ekv

if TYPE_CHECKING:
    from repro.spice.netlist import Circuit


class CompiledCircuit:
    """Index-array form of a bound circuit, with its transient state."""

    def __init__(self, circuit: "Circuit") -> None:
        circuit.ensure_bound()
        self.n_nodes = circuit.n_nodes
        self.size = n = circuit.size
        self._n1 = n1 = n + 1

        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []

        def entry(i: int, j: int, v: float) -> None:
            rows.append(i)
            cols.append(j)
            vals.append(v)

        def incidence(br: int, a: int, b: int) -> None:
            entry(a, br, 1.0)
            entry(b, br, -1.0)
            entry(br, a, 1.0)
            entry(br, b, -1.0)

        caps: list[tuple[int, int, float, float]] = []  # a, b, C, ic (nan)
        inds: list[tuple[int, int, int, float, float]] = []  # br, a, b, L, ic
        self._vsrc: list[tuple[int, VoltageSource]] = []
        self._isrc: list[tuple[int, int, CurrentSource]] = []
        mos: list[tuple[tuple[int, ...], Mosfet]] = []
        diodes: list[tuple[int, int, Diode]] = []
        for elem in circuit.elements:
            nodes = tuple(n if i < 0 else i for i in elem.nodes)
            br = elem.branch_start
            if isinstance(elem, Resistor):
                a, b = nodes
                g = elem.conductance
                entry(a, a, g)
                entry(b, b, g)
                entry(a, b, -g)
                entry(b, a, -g)
            elif isinstance(elem, Capacitor):
                ic = np.nan if elem.ic is None else float(elem.ic)
                caps.append((*nodes, elem.capacitance, ic))
            elif isinstance(elem, Inductor):
                incidence(br, *nodes)
                ic = np.nan if elem.ic is None else float(elem.ic)
                inds.append((br, *nodes, elem.inductance, ic))
            elif isinstance(elem, VoltageSource):
                incidence(br, *nodes)
                self._vsrc.append((br, elem))
            elif isinstance(elem, CurrentSource):
                self._isrc.append((*nodes, elem))
            elif isinstance(elem, VCVS):
                a, b, c, d = nodes
                incidence(br, a, b)
                entry(br, c, -elem.mu)
                entry(br, d, elem.mu)
            elif isinstance(elem, VCCS):
                a, b, c, d = nodes
                entry(a, c, elem.gm)
                entry(a, d, -elem.gm)
                entry(b, c, -elem.gm)
                entry(b, d, elem.gm)
            elif isinstance(elem, Mosfet):
                mos.append((nodes, elem))
                d, g, s, b = nodes
                c = elem.capacitances()
                for ta, tb, key in ((g, s, "cgs"), (g, d, "cgd"),
                                    (d, b, "cdb"), (s, b, "csb")):
                    caps.append((ta, tb, c[key], np.nan))
            elif isinstance(elem, Diode):
                diodes.append((*nodes, elem))
                if elem.model.cj0 > 0:
                    caps.append((*nodes, elem.model.cj0 * elem.area, np.nan))
            else:
                raise NetlistError(
                    f"cannot compile element type {type(elem).__name__}")

        self._lin = self._scatter(np.array(rows, int), np.array(cols, int),
                                  np.array(vals, float))
        self._diag = np.arange(self.n_nodes) * (n1 + 1)
        self._base_key: tuple | None = None
        self._base_a = self._lin
        self._compile_reactive(caps, inds)
        self._compile_devices(mos, diodes)

    # -- construction helpers ------------------------------------------------
    def _flat(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return rows * self._n1 + cols

    def _scatter(self, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray) -> np.ndarray:
        """Flat ``(n+1)**2`` matrix with ``vals`` summed at ``(rows, cols)``."""
        return np.bincount(self._flat(rows, cols), weights=vals,
                           minlength=self._n1 * self._n1).astype(float)

    def _compile_reactive(self, caps: list, inds: list) -> None:
        """Terminal/value arrays of every capacitance and inductance, the
        capacitance matrix ``C`` and the (zeroed) companion state."""
        cap = np.array(caps, dtype=float).reshape(-1, 4)
        self._cap_a, self._cap_b = cap[:, :2].T.astype(int)
        self._cap_c, self._cap_ic = cap[:, 2], cap[:, 3]
        ind = np.array(inds, dtype=float).reshape(-1, 5)
        self._ind_br, self._ind_a, self._ind_b = ind[:, :3].T.astype(int)
        self._ind_l, self._ind_ic = ind[:, 3], ind[:, 4]
        a, b = self._cap_a, self._cap_b
        self._C = (self._scatter(np.concatenate((a, b, a, b)),
                                 np.concatenate((a, b, b, a)),
                                 np.concatenate((self._cap_c, self._cap_c,
                                                 -self._cap_c, -self._cap_c)))
                   - self._scatter(self._ind_br, self._ind_br, self._ind_l))
        # Transient companion state: branch voltage and current of every
        # capacitor, current and voltage of every inductor.
        self._cap_v = np.zeros(self._cap_c.size)
        self._cap_i = np.zeros(self._cap_c.size)
        self._ind_i = np.zeros(self._ind_l.size)
        self._ind_v = np.zeros(self._ind_l.size)
        self._z_ctx: StampContext | None = None
        self._z_companion = np.zeros(0)

    def _compile_devices(self, mos: list, diodes: list) -> None:
        """Per-device parameter arrays and the flat scatter indices of
        their stamps into ``[A.ravel(), z]`` (one vector, so one bincount
        assembles every device)."""
        nn = self._n1 * self._n1
        a_idx: list[np.ndarray] = []
        z_idx: list[np.ndarray] = []
        self._n_mos = len(mos)
        if mos:
            # Terminal indices, rows d, g, s, b.
            self._mos_t = t = np.array([nodes for nodes, _ in mos]).T
            elems = [e for _, e in mos]
            models = [e.model for e in elems]
            self._mos_p = np.array([mo.polarity for mo in models], float)
            self._mos_vto = np.array([mo.vto for mo in models])
            self._mos_n = np.array([mo.n for mo in models])
            self._mos_ut = np.array([mo.ut for mo in models])
            self._mos_isq = np.array([e.model.specific_current(e.w, e.l)
                                      for e in elems])
            self._mos_lam = np.array([e.model.lambda_l / e.l for e in elems])
            self._mos_m = np.array([e.m for e in elems], float)
            # Drain row +g_t and source row -g_t in each terminal column t;
            # the linearization residual ieq leaves d and enters s.
            a_idx += [self._flat(t[0], t).ravel(), self._flat(t[2], t).ravel()]
            z_idx += [nn + t[0], nn + t[2]]
        self._n_diode = len(diodes)
        if diodes:
            da = np.array([a for a, _, _ in diodes])
            db = np.array([b for _, b, _ in diodes])
            self._d_a, self._d_b = da, db
            models = [e.model for _, _, e in diodes]
            self._d_is = np.array([mo.is_ for mo in models])
            self._d_nut = np.array([mo.n * mo.ut for mo in models])
            self._d_vcrit = np.array([mo.v_crit for mo in models])
            self._d_area = np.array([e.area for _, _, e in diodes])
            a_idx += [self._flat(da, da), self._flat(db, db),
                      self._flat(da, db), self._flat(db, da)]
            z_idx += [nn + da, nn + db]
        self._dev_idx = np.concatenate([np.zeros(0, int), *a_idx, *z_idx])

    # -- assembly ---------------------------------------------------------------
    def _pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` with a trailing zero: the ground voltage."""
        xg = np.empty(self._n1)
        xg[:-1] = x
        xg[-1] = 0.0
        return xg

    def _devices(self, xg: np.ndarray) -> np.ndarray:
        """``[A.ravel(), z]`` (flat, ground padded) of every nonlinear
        device linearized at the padded iterate ``xg``:
        ``i ~= i0 + g (v - v0)``, with the constant part in ``z``."""
        g_parts: list[np.ndarray] = []
        ieq_parts: list[np.ndarray] = []
        if self._n_mos:
            v = xg[self._mos_t]
            id_, g, _, _ = ekv(self._mos_p, self._mos_vto, self._mos_n,
                               self._mos_ut, self._mos_isq, self._mos_lam, v)
            g = g * self._mos_m
            ieq = id_ * self._mos_m - (g * v).sum(axis=0)
            g_parts += [g.ravel(), -g.ravel()]
            ieq_parts += [-ieq, ieq]
        if self._n_diode:
            v = xg[self._d_a] - xg[self._d_b]
            i, g = diode_iv(v, self._d_is, self._d_nut, self._d_vcrit)
            i, g = i * self._d_area, g * self._d_area
            ieq = i - g * v
            g_parts += [g, g, -g, -g]
            ieq_parts += [-ieq, ieq]
        size = self._n1 * (self._n1 + 1)
        if not g_parts:
            return np.zeros(size)
        return np.bincount(self._dev_idx,
                           weights=np.concatenate(g_parts + ieq_parts),
                           minlength=size)

    @staticmethod
    def _companion_scale(ctx: StampContext) -> float:
        """``k/dt`` of the integration rule: 1/dt (BE) or 2/dt (trap)."""
        if ctx.dt is None or ctx.dt <= 0:
            raise ValueError("transient stamp requires a positive dt")
        return (1.0 if ctx.integ == "be" else 2.0) / ctx.dt

    def _base(self, ctx: StampContext) -> np.ndarray:
        """Linear part + gmin + companion conductances for ``ctx``, kept
        until a context with another ``(analysis, dt, integ, gmin)``."""
        tran = ctx.analysis == "tran"
        key = (tran, ctx.dt if tran else None, ctx.integ if tran else None,
               ctx.gmin)
        if key != self._base_key:
            base = self._lin.copy()
            if ctx.gmin > 0:
                base[self._diag] += ctx.gmin
            if tran:
                base += self._companion_scale(ctx) * self._C
            self._base_key, self._base_a = key, base
        return self._base_a

    def _companion_rhs(self, ctx: StampContext) -> np.ndarray:
        """RHS of the companion models at ``ctx`` (cached per context)."""
        if ctx is self._z_ctx:
            return self._z_companion
        k_dt = self._companion_scale(ctx)
        # ceq flows b -> a so that i = geq * v - ceq.
        ceq = self._companion_ceq(ctx, k_dt * self._cap_c)
        z = np.bincount(np.concatenate((self._cap_a, self._cap_b)),
                        weights=np.concatenate((ceq, -ceq)),
                        minlength=self._n1).astype(float)
        # Inductor branch row: v - (k L/dt) i = -(k L/dt) i_prev [- v_prev].
        rhs = -(k_dt * self._ind_l) * self._ind_i
        if ctx.integ != "be":
            rhs = rhs - self._ind_v
        z[self._ind_br] += rhs
        self._z_ctx, self._z_companion = ctx, z
        return z

    def assemble(self, x: np.ndarray, ctx: StampContext) -> MNASystem:
        """The real MNA system at iterate ``x`` under ``ctx``."""
        n, n1 = self.size, self._n1
        az = self._devices(self._pad(x))
        a, z = az[:n1 * n1], az[n1 * n1:]
        a += self._base(ctx)
        if ctx.analysis == "tran":
            z += self._companion_rhs(ctx)
        scale = ctx.source_scale
        for br, elem in self._vsrc:
            z[br] += elem.waveform.value(ctx.time) * scale
        for p, m, elem in self._isrc:
            value = elem.waveform.value(ctx.time) * scale
            z[p] -= value
            z[m] += value
        return MNASystem(a.reshape(n1, n1)[:n, :n], z[:n])

    def small_signal(self, x_op: np.ndarray, gmin: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(G, C, z)`` of the circuit linearized at ``x_op``: the system
        at angular frequency ``w`` is ``(G + jwC) x = z``, with ``z`` the
        sources' ``ac`` magnitudes."""
        n, n1 = self.size, self._n1
        g = self._devices(self._pad(np.real(x_op)))[:n1 * n1]
        g += self._lin
        if gmin > 0:
            g[self._diag] += gmin
        z = np.zeros(n1)
        for br, elem in self._vsrc:
            z[br] += elem.ac
        for p, m, elem in self._isrc:
            z[p] -= elem.ac
            z[m] += elem.ac
        return (g.reshape(n1, n1)[:n, :n], self._C.reshape(n1, n1)[:n, :n],
                z[:n])

    # -- transient state ----------------------------------------------------------
    def init_state(self, x: np.ndarray) -> None:
        """Start the companion state from solution ``x`` (t = 0): element
        initial conditions where given, else the voltages/currents of x."""
        xg = self._pad(x)
        v = xg[self._cap_a] - xg[self._cap_b]
        self._cap_v = np.where(np.isnan(self._cap_ic), v, self._cap_ic)
        self._cap_i = np.zeros_like(self._cap_v)
        self._ind_i = np.where(np.isnan(self._ind_ic), xg[self._ind_br],
                               self._ind_ic)
        self._ind_v = np.zeros_like(self._ind_i)
        self._z_ctx = None

    def commit(self, x: np.ndarray, ctx: StampContext) -> None:
        """Advance the companion state past the step accepted at ``x``."""
        xg = self._pad(x)
        v_new = xg[self._cap_a] - xg[self._cap_b]
        geq = self._companion_scale(ctx) * self._cap_c
        self._cap_i = geq * v_new - self._companion_ceq(ctx, geq)
        self._cap_v = v_new
        self._ind_i = xg[self._ind_br]
        self._ind_v = xg[self._ind_a] - xg[self._ind_b]
        self._z_ctx = None

    def _companion_ceq(self, ctx: StampContext, geq: np.ndarray) -> np.ndarray:
        """Capacitor companion currents: ``geq v_prev`` (BE), plus
        ``i_prev`` (trapezoidal)."""
        ceq = geq * self._cap_v
        return ceq if ctx.integ == "be" else ceq + self._cap_i


def solve_sweep(a: np.ndarray, b: np.ndarray, freqs: np.ndarray,
                what: str) -> np.ndarray:
    """Solve ``a[k] x[k] = b`` for every frequency ``freqs[k]`` in one
    batched call; a singular system raises :class:`AnalysisError` naming
    the first frequency at which it is singular."""
    rhs = np.broadcast_to(b[:, None], (freqs.size, b.size, 1))
    try:
        return np.linalg.solve(a, rhs)[..., 0]
    except np.linalg.LinAlgError:
        for f, a_f in zip(freqs, a):
            try:
                np.linalg.solve(a_f, b)
            except np.linalg.LinAlgError as exc:
                raise AnalysisError(
                    f"singular {what} system at {f:g} Hz: {exc}") from exc
        raise
