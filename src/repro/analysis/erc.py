"""Electrical rule checks (ERC) over :class:`repro.spice.netlist.Circuit`.

Topology checks — no ground reference, floating nodes, capacitor-isolated
islands with no DC path to ground, loops of ideal voltage sources — over
an in-tree union-find
(:mod:`repro.analysis.graph`), plus device-level rules:

* MOSFET geometry sanity (non-finite/nonpositive W or L, out-of-family
  dimensions),
* passive value sanity (NaN/Inf or nonpositive R/C, absurd magnitudes),
* case-insensitive element-name collisions (SPICE treats ``M1``/``m1`` as
  the same device),
* voltage sources shorting a node to itself, current sources driving an
  open circuit.

Every finding is a :class:`~repro.analysis.diagnostics.Diagnostic`
(:func:`run_erc`); :func:`gate_errors` / :func:`is_simulatable` are the
pre-simulation gate's views of the same list.
"""

from __future__ import annotations

import math

from repro.analysis.diagnostics import (
    Diagnostic,
    RuleSet,
    Severity,
    has_errors,
)
from repro.analysis.graph import UnionFind, find_cycle
from repro.spice.netlist import Circuit

GROUND = "0"

ERC_RULES = RuleSet()
ERC_RULES.add("erc.empty", Severity.ERROR,
              "circuit contains no elements")
ERC_RULES.add("erc.no-ground", Severity.ERROR,
              "no ground reference ('0'/'gnd') anywhere in the circuit")
ERC_RULES.add("erc.floating-node", Severity.ERROR,
              "node touched by fewer than two element terminals")
ERC_RULES.add("erc.source-open", Severity.ERROR,
              "independent source terminal connected to nothing else")
ERC_RULES.add("erc.no-dc-path", Severity.ERROR,
              "node has no DC path to ground (capacitor-isolated island)")
ERC_RULES.add("erc.vsource-loop", Severity.ERROR,
              "loop of ideal voltage sources (singular MNA)")
ERC_RULES.add("erc.source-short", Severity.ERROR,
              "voltage source with both terminals on the same node")
ERC_RULES.add("erc.mosfet-geometry", Severity.ERROR,
              "MOSFET W/L non-finite, nonpositive, or far outside any "
              "plausible process")
ERC_RULES.add("erc.passive-value", Severity.ERROR,
              "passive element value non-finite, nonpositive, or absurd")
ERC_RULES.add("erc.name-collision", Severity.WARNING,
              "element names differing only by case (one device in SPICE)")
ERC_RULES.add("erc.parse-error", Severity.ERROR,
              "building the task's netlist raised")

# Sanity envelopes for the magnitude rules (warning severity).  These are
# deliberately generous — they exist to catch unit mistakes (fF vs F,
# um vs m), not to police design choices.
_W_RANGE = (2e-8, 1e-2)      # MOSFET width [m]: 20 nm .. 1 cm
_L_RANGE = (1.6e-8, 1e-3)    # MOSFET length [m]: 16 nm .. 1 mm
_R_RANGE = (1e-3, 1e12)      # resistance [ohm]
_C_RANGE = (1e-18, 1e-1)     # capacitance [F]


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _check_topology(circuit: Circuit, connectivity) -> list[Diagnostic]:
    """Ground reference, floating nodes, DC islands, V-source loops."""
    from repro.spice.elements import (
        Capacitor,
        CurrentSource,
        Mosfet,
        VoltageSource,
    )

    diags: list[Diagnostic] = []
    all_nodes: set[str] = set()
    touch_count: dict[str, int] = {}
    touching: dict[str, list] = {}
    for elem, nodes in connectivity:
        for node in nodes:
            all_nodes.add(node)
            touch_count[node] = touch_count.get(node, 0) + 1
            touching.setdefault(node, []).append(elem)
    if GROUND not in all_nodes:
        diags.append(ERC_RULES.diag(
            "erc.no-ground",
            "no ground reference ('0'/'gnd') in the circuit",
            fix="tie one node to '0' (or 'gnd')"))

    for node, count in sorted(touch_count.items()):
        if node == GROUND or count >= 2:
            continue
        only = touching[node][0]
        if isinstance(only, (VoltageSource, CurrentSource)):
            kind = ("current source" if isinstance(only, CurrentSource)
                    else "voltage source")
            diags.append(ERC_RULES.diag(
                "erc.source-open",
                f"{kind} {only.name!r} terminal {node!r} is connected to "
                f"nothing else",
                location=only.name,
                fix="connect the source to the circuit or remove it"))
        else:
            diags.append(ERC_RULES.diag(
                "erc.floating-node",
                f"node {node!r} is floating (touched by only {count} "
                f"terminal)",
                location=node,
                fix="connect the node or remove the dangling element"))

    # DC path to ground: capacitors and current sources provide none; a
    # MOSFET conducts d-s and ties s-b, but its gate is DC-isolated.
    index = {node: i for i, node in enumerate(sorted(all_nodes))}
    uf = UnionFind(len(index))
    for elem, nodes in connectivity:
        if isinstance(elem, (Capacitor, CurrentSource)):
            continue
        if isinstance(elem, Mosfet):
            d, _g, s, b = nodes
            uf.union(index[d], index[s])
            uf.union(index[s], index[b])
            continue
        for a, b_ in zip(nodes, nodes[1:]):
            uf.union(index[a], index[b_])
    if GROUND in index:
        ground_root = uf.find(index[GROUND])
        for node in sorted(all_nodes):
            if node != GROUND and uf.find(index[node]) != ground_root:
                diags.append(ERC_RULES.diag(
                    "erc.no-dc-path",
                    f"node {node!r} has no DC path to ground",
                    location=node,
                    fix="add a DC-conducting element (resistor, source) "
                        "to the island"))

    # Loops of ideal voltage sources.
    v_edges = [(index[nodes[0]], index[nodes[1]], elem.name)
               for elem, nodes in connectivity
               if isinstance(elem, VoltageSource)]
    cycle = find_cycle(v_edges)
    if cycle:
        diags.append(ERC_RULES.diag(
            "erc.vsource-loop",
            "loop of ideal voltage sources: " + ", ".join(cycle),
            location=cycle[-1],
            fix="break the loop with a resistance"))
    return diags


def _check_devices(circuit: Circuit, connectivity) -> list[Diagnostic]:
    """Per-element value/geometry sanity and name-collision checks."""
    from repro.spice.elements import (
        Capacitor,
        Mosfet,
        Resistor,
        VoltageSource,
    )

    diags: list[Diagnostic] = []
    lowered: dict[str, str] = {}
    for elem, nodes in connectivity:
        prior = lowered.setdefault(elem.name.lower(), elem.name)
        if prior != elem.name:
            diags.append(ERC_RULES.diag(
                "erc.name-collision",
                f"element names {prior!r} and {elem.name!r} differ only by "
                f"case (SPICE is case-insensitive)",
                location=elem.name,
                fix="rename one of the two"))

        if isinstance(elem, Mosfet):
            for dim, value, (lo, hi) in (("W", elem.w, _W_RANGE),
                                         ("L", elem.l, _L_RANGE)):
                if not _finite_positive(value):
                    diags.append(ERC_RULES.diag(
                        "erc.mosfet-geometry",
                        f"mosfet {elem.name!r} has {dim}={value!r}; must be "
                        f"finite and positive",
                        location=elem.name,
                        fix=f"set a physical {dim} in meters"))
                elif not lo <= value <= hi:
                    diags.append(ERC_RULES.diag(
                        "erc.mosfet-geometry",
                        f"mosfet {elem.name!r} has {dim}={value:g} m, "
                        f"outside the sane range [{lo:g}, {hi:g}]",
                        location=elem.name,
                        severity=Severity.WARNING,
                        fix="check the unit scaling (um vs m?)"))
            continue

        for cls, attr, label, (lo, hi) in (
                (Resistor, "resistance", "resistance [ohm]", _R_RANGE),
                (Capacitor, "capacitance", "capacitance [F]", _C_RANGE)):
            if not isinstance(elem, cls):
                continue
            value = getattr(elem, attr)
            if not _finite_positive(value):
                diags.append(ERC_RULES.diag(
                    "erc.passive-value",
                    f"{elem.name!r} has {label} = {value!r}; must be finite "
                    f"and positive",
                    location=elem.name,
                    fix="replace the value (NaN propagates into the MNA "
                        "matrix)"))
            elif not lo <= value <= hi:
                diags.append(ERC_RULES.diag(
                    "erc.passive-value",
                    f"{elem.name!r} has {label} = {value:g}, outside the "
                    f"sane range [{lo:g}, {hi:g}]",
                    location=elem.name,
                    severity=Severity.WARNING,
                    fix="check the SI suffix on the value"))

        if isinstance(elem, VoltageSource) and nodes[0] == nodes[1]:
            diags.append(ERC_RULES.diag(
                "erc.source-short",
                f"voltage source {elem.name!r} shorts node {nodes[0]!r} to "
                f"itself",
                location=elem.name,
                fix="connect the source across two distinct nodes"))
    return diags


def run_erc(circuit: Circuit) -> list[Diagnostic]:
    """Run every electrical rule check; returns diagnostics (empty = clean).

    Topology-only circuits short-circuit: an empty netlist is one finding,
    not a cascade.
    """
    if not circuit.elements:
        return [ERC_RULES.diag("erc.empty", "circuit has no elements",
                               fix="add elements before analyzing")]
    connectivity = circuit.connectivity()
    return (_check_topology(circuit, connectivity)
            + _check_devices(circuit, connectivity))


def gate_errors(circuit: Circuit) -> list[Diagnostic]:
    """Error-severity findings only — the pre-simulation gate's view."""
    return [d for d in run_erc(circuit) if d.severity >= Severity.ERROR]


def is_simulatable(circuit: Circuit) -> bool:
    """True when no error-severity ERC finding blocks simulation."""
    return not has_errors(run_erc(circuit))
