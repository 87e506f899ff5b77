"""Netlist container: nodes, elements, and MNA assembly."""

from __future__ import annotations

import numpy as np

from repro.spice.compiled import CompiledCircuit
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
from repro.spice.mna import MNASystem, StampContext
from repro.spice.models import DEFAULT_DIODE, DiodeModel, MosfetModel
from repro.spice.waveforms import Waveform

GROUND_NAMES = frozenset({"0", "gnd"})


class Circuit:
    """A circuit under construction and analysis.

    Nodes are referenced by name; ``"0"`` and ``"gnd"`` (case-insensitive)
    are ground.  Element names must be unique.  After any structural change
    the circuit re-binds element node/branch indices lazily on the next
    analysis.  Every analysis compiles the circuit at entry
    (:meth:`compile`), so element values changed between analyses are
    picked up.

    Example
    -------
    >>> ckt = Circuit("divider")
    >>> ckt.add_vsource("Vin", "in", "0", 1.0)
    >>> ckt.add_resistor("R1", "in", "out", 1e3)
    >>> ckt.add_resistor("R2", "out", "0", 1e3)
    """

    def __init__(self, title: str = "untitled") -> None:
        self.title = title
        self.elements: list[Element] = []
        self._by_name: dict[str, Element] = {}
        self._node_index: dict[str, int] = {}
        self._bound = False
        self._n_branches = 0
        self._compiled: CompiledCircuit | None = None

    # -- construction -------------------------------------------------------
    @staticmethod
    def _canon(node: str) -> str:
        node = str(node)
        return "0" if node.lower() in GROUND_NAMES else node

    def add(self, element: Element) -> Element:
        """Register an element (used by all ``add_*`` helpers)."""
        if element.name in self._by_name:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self.elements.append(element)
        self._by_name[element.name] = element
        for node in element.node_names:
            canon = self._canon(node)
            if canon != "0" and canon not in self._node_index:
                self._node_index[canon] = len(self._node_index)
        self._bound = False
        self._compiled = None
        return element

    def add_resistor(self, name: str, a: str, b: str, r: float) -> Resistor:
        return self.add(Resistor(name, a, b, r))

    def add_capacitor(self, name: str, a: str, b: str, c: float,
                      ic: float | None = None) -> Capacitor:
        return self.add(Capacitor(name, a, b, c, ic=ic))

    def add_inductor(self, name: str, a: str, b: str, value: float,
                     ic: float | None = None) -> Inductor:
        return self.add(Inductor(name, a, b, value, ic=ic))

    def add_vsource(self, name: str, pos: str, neg: str,
                    value: float | Waveform = 0.0, ac: float = 0.0) -> VoltageSource:
        return self.add(VoltageSource(name, pos, neg, value, ac=ac))

    def add_isource(self, name: str, pos: str, neg: str,
                    value: float | Waveform = 0.0, ac: float = 0.0) -> CurrentSource:
        return self.add(CurrentSource(name, pos, neg, value, ac=ac))

    def add_vcvs(self, name: str, pos: str, neg: str, cpos: str, cneg: str,
                 mu: float) -> VCVS:
        return self.add(VCVS(name, pos, neg, cpos, cneg, mu))

    def add_vccs(self, name: str, pos: str, neg: str, cpos: str, cneg: str,
                 gm: float) -> VCCS:
        return self.add(VCCS(name, pos, neg, cpos, cneg, gm))

    def add_diode(self, name: str, anode: str, cathode: str,
                  model: DiodeModel = DEFAULT_DIODE, area: float = 1.0) -> Diode:
        return self.add(Diode(name, anode, cathode, model, area))

    def add_mosfet(self, name: str, d: str, g: str, s: str, b: str,
                   model: MosfetModel, w: float, l: float, m: int = 1) -> Mosfet:
        return self.add(Mosfet(name, d, g, s, b, model, w, l, m=m))

    def add_subcircuit(self, inst: str, sub: "Circuit",
                       port_map: dict[str, str]) -> list[Element]:
        """Flatten another circuit into this one as instance ``inst``.

        ``port_map`` maps the subcircuit's port node names to nodes of this
        circuit; every other subcircuit node becomes ``<inst>.<node>`` and
        every element is copied (deep) under the name ``<inst>.<name>``.
        Ground is never remapped.  Returns the new elements.

        This is the programmatic counterpart of the parser's ``.subckt`` /
        ``X`` support — compose reusable blocks without writing decks.
        """
        import copy

        if not inst:
            raise NetlistError("instance name must be non-empty")
        added: list[Element] = []
        for elem in sub.elements:
            clone = copy.deepcopy(elem)
            clone.name = f"{inst}.{elem.name}"
            new_nodes = []
            for node in elem.node_names:
                canon = sub._canon(node)
                if canon == "0":
                    new_nodes.append("0")
                elif canon in port_map:
                    new_nodes.append(port_map[canon])
                else:
                    new_nodes.append(f"{inst}.{canon}")
            clone.node_names = tuple(new_nodes)
            clone.nodes = ()
            clone.branch_start = -1
            added.append(self.add(clone))
        return added

    def canonical_node(self, node: str) -> str:
        """Public canonical spelling of a node name (``"gnd"``/``"GND"`` ->
        ``"0"``, everything else unchanged).  Static analyses use this
        instead of reaching into the private name table."""
        return self._canon(node)

    def connectivity(self) -> list[tuple["Element", tuple[str, ...]]]:
        """Element-terminal connectivity with canonical node names.

        Returns one ``(element, canonical_nodes)`` pair per element in
        insertion order — the public traversal surface for topology
        checks (:mod:`repro.analysis.erc`) and other netlist-walking
        tools.
        """
        return [(elem, tuple(self._canon(n) for n in elem.node_names))
                for elem in self.elements]

    # -- lookup ---------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Element:
        try:
            return self._by_name[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    @property
    def n_nodes(self) -> int:
        return len(self._node_index)

    @property
    def n_branches(self) -> int:
        self._bind()
        return self._n_branches

    @property
    def size(self) -> int:
        """Total number of MNA unknowns."""
        return self.n_nodes + self.n_branches

    def node_index(self, name: str) -> int:
        """Index of a node in solution vectors; ground returns -1."""
        canon = self._canon(name)
        if canon == "0":
            return -1
        try:
            return self._node_index[canon]
        except KeyError:
            raise NetlistError(f"no node named {name!r}") from None

    def node_names(self) -> list[str]:
        """Non-ground node names ordered by index."""
        return sorted(self._node_index, key=self._node_index.__getitem__)

    @property
    def is_nonlinear(self) -> bool:
        return any(e.is_nonlinear for e in self.elements)

    # -- binding / assembly ---------------------------------------------------
    def ensure_bound(self) -> None:
        """Resolve element node/branch indices (idempotent; analyses call
        this before touching elements outside of assembly)."""
        self._bind()

    def _bind(self) -> None:
        if self._bound:
            return
        n_nodes = self.n_nodes
        branch = 0
        for elem in self.elements:
            idx = tuple(self.node_index(n) for n in elem.node_names)
            elem.bind(idx, n_nodes + branch if elem.n_branches else -1)
            branch += elem.n_branches
        self._n_branches = branch
        self._bound = True

    def compile(self) -> CompiledCircuit:
        """Compile the circuit from its current element values.

        Analyses call this once at entry; :meth:`assemble` and
        :meth:`assemble_ac` then read the compiled form, which also holds
        the transient companion state.
        """
        self._compiled = CompiledCircuit(self)
        return self._compiled

    def _compiled_form(self) -> CompiledCircuit:
        return self._compiled if self._compiled is not None else self.compile()

    def assemble(self, x: np.ndarray, ctx: StampContext) -> MNASystem:
        """Assemble the real MNA system at iterate ``x`` (one Newton step)."""
        return self._compiled_form().assemble(x, ctx)

    def assemble_ac(self, x_op: np.ndarray, omega: float | np.ndarray,
                    gmin: float = 1e-12) -> MNASystem:
        """The complex small-signal system ``(G + j omega C) x = z``
        linearized at ``x_op``.  ``omega`` (rad/s) may be an array, giving
        ``A`` of shape ``omega.shape + (size, size)``."""
        g, c, z = self._compiled_form().small_signal(x_op, gmin)
        w = np.asarray(omega, dtype=float)[..., None, None]
        return MNASystem(g + 1j * w * c, z.astype(complex))

    # -- reporting --------------------------------------------------------------
    def netlist_text(self) -> str:
        """A human-readable netlist listing (SPICE-flavoured)."""
        lines = [f"* {self.title}"]
        for elem in self.elements:
            kind = type(elem).__name__
            nodes = " ".join(elem.node_names)
            extra = ""
            if isinstance(elem, Resistor):
                extra = f"{elem.resistance:g}"
            elif isinstance(elem, Capacitor):
                extra = f"{elem.capacitance:g}"
            elif isinstance(elem, Inductor):
                extra = f"{elem.inductance:g}"
            elif isinstance(elem, VoltageSource | CurrentSource):
                extra = f"dc={elem.waveform.dc_value():g} ac={elem.ac:g}"
            elif isinstance(elem, Mosfet):
                extra = (f"{elem.model.name} w={elem.w:g} l={elem.l:g} "
                         f"m={elem.m}")
            elif isinstance(elem, Diode):
                extra = f"{elem.model.name} area={elem.area:g}"
            elif isinstance(elem, VCVS | VCCS):
                gain = elem.mu if isinstance(elem, VCVS) else elem.gm
                extra = f"gain={gain:g}"
            lines.append(f"{elem.name} ({kind}) {nodes} {extra}".rstrip())
        lines.append(".end")
        return "\n".join(lines)

    def to_spice(self) -> str:
        """Emit a SPICE deck that :func:`repro.spice.parser.parse_netlist`
        reads back into an equivalent circuit (round-trip tested).

        Custom MOSFET/diode models are emitted as ``.model`` cards; source
        waveforms map to PULSE/SIN/PWL specs.  Instance names containing
        ``.`` (from subcircuit flattening) are preserved.
        """
        from repro.spice.models import MosfetModel
        from repro.spice.waveforms import DCWave, PieceWiseLinear, Pulse, Sine

        def src_spec(elem) -> str:
            wave = elem.waveform
            parts = []
            if isinstance(wave, DCWave):
                parts.append(f"DC {wave.dc_value():.17g}")
            elif isinstance(wave, Pulse):
                parts.append(
                    f"PULSE({wave.v1:.17g} {wave.v2:.17g} {wave.td:.17g} "
                    f"{wave.tr:.17g} {wave.tf:.17g} {wave.pw:.17g} "
                    f"{wave.per:.17g})")
            elif isinstance(wave, Sine):
                parts.append(f"SIN({wave.vo:.17g} {wave.va:.17g} "
                             f"{wave.freq:.17g} {wave.td:.17g} "
                             f"{wave.theta:.17g})")
            elif isinstance(wave, PieceWiseLinear):
                pts = " ".join(f"{t:.17g} {v:.17g}"
                               for t, v in zip(wave.times, wave.values))
                parts.append(f"PWL({pts})")
            if elem.ac:
                parts.append(f"AC {elem.ac:.17g}")
            return " ".join(parts) or "DC 0"

        model_cards: dict[str, str] = {}

        def mos_model_name(model: MosfetModel) -> str:
            if model.name in ("nmos180", "pmos180"):
                return model.name
            kind = "nmos" if model.polarity > 0 else "pmos"
            model_cards[model.name] = (
                f".model {model.name} {kind} vto={model.vto:.17g} "
                f"kp={model.kp:.17g} n={model.n:.17g} "
                f"lambda_l={model.lambda_l:.17g} tox={model.tox:.17g} "
                f"kf={model.kf:.17g} af={model.af:.17g}")
            return model.name

        lines: list[str] = []
        for elem in self.elements:
            n = elem.node_names
            if isinstance(elem, Resistor):
                lines.append(f"{elem.name} {n[0]} {n[1]} "
                             f"{elem.resistance:.17g}")
            elif isinstance(elem, Capacitor):
                lines.append(f"{elem.name} {n[0]} {n[1]} "
                             f"{elem.capacitance:.17g}")
            elif isinstance(elem, Inductor):
                lines.append(f"{elem.name} {n[0]} {n[1]} "
                             f"{elem.inductance:.17g}")
            elif isinstance(elem, VoltageSource | CurrentSource):
                lines.append(f"{elem.name} {n[0]} {n[1]} {src_spec(elem)}")
            elif isinstance(elem, VCVS):
                lines.append(f"{elem.name} {n[0]} {n[1]} {n[2]} {n[3]} "
                             f"{elem.mu:.17g}")
            elif isinstance(elem, VCCS):
                lines.append(f"{elem.name} {n[0]} {n[1]} {n[2]} {n[3]} "
                             f"{elem.gm:.17g}")
            elif isinstance(elem, Mosfet):
                mname = mos_model_name(elem.model)
                lines.append(f"{elem.name} {n[0]} {n[1]} {n[2]} {n[3]} "
                             f"{mname} W={elem.w:.17g} L={elem.l:.17g} "
                             f"M={elem.m}")
            elif isinstance(elem, Diode):
                dname = elem.model.name
                model_cards[dname] = (
                    f".model {dname} d is={elem.model.is_:.17g} "
                    f"n={elem.model.n:.17g} cjo={elem.model.cj0:.17g}")
                lines.append(f"{elem.name} {n[0]} {n[1]} {dname}")
            else:  # pragma: no cover - future element types
                raise NetlistError(
                    f"cannot export element type {type(elem).__name__}")
        deck = [f".title {self.title}"]
        deck.extend(model_cards.values())
        deck.extend(lines)
        deck.append(".end")
        return "\n".join(deck)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Circuit({self.title!r}, nodes={self.n_nodes}, "
                f"elements={len(self.elements)})")
