"""Tests for the union-find / cycle-detection machinery behind the ERC."""

import numpy as np
import pytest

from repro.analysis.erc import run_erc
from repro.analysis.graph import UnionFind, bfs_path, find_cycle
from repro.spice import Circuit


def erc(elements, rename=None):
    """ERC findings of a circuit given as ``(kind, name, a, b, value)``
    rows (kind R, C or V), with node names mapped through ``rename``."""
    rename = rename or {}
    ckt = Circuit()
    add = {"R": ckt.add_resistor, "C": ckt.add_capacitor,
           "V": ckt.add_vsource}
    for kind, name, a, b, value in elements:
        add[kind](name, rename.get(a, a), rename.get(b, b), value)
    return run_erc(ckt)


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(4)
        assert not uf.connected(0, 1)
        assert uf.find(3) == 3

    def test_union_merges_and_reports(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert uf.union(1, 2)
        assert not uf.union(0, 2)   # already joined
        assert uf.connected(0, 2)
        assert not uf.connected(0, 3)

    def test_component_mask(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert list(uf.component_mask(0)) == [True, True, False, False,
                                              False]
        assert list(uf.component_mask(4)) == [False, False, False, True,
                                              True]

    def test_large_chain_stays_correct(self):
        n = 2000
        uf = UnionFind(n)
        for i in range(n - 1):
            uf.union(i, i + 1)
        assert uf.connected(0, n - 1)
        assert int(uf.size[uf.find(0)]) == n

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)


class TestBfsPath:
    ADJ = {0: [(1, "a")], 1: [(0, "a"), (2, "b")], 2: [(1, "b")]}

    def test_path_labels(self):
        assert bfs_path(self.ADJ, 0, 2) == ["a", "b"]

    def test_same_node_is_empty_path(self):
        assert bfs_path(self.ADJ, 1, 1) == []

    def test_unreachable_is_none(self):
        assert bfs_path(self.ADJ, 0, 9) is None


class TestFindCycle:
    def test_no_edges(self):
        assert find_cycle([]) is None

    def test_tree_has_no_cycle(self):
        assert find_cycle([(0, 1, "e1"), (1, 2, "e2"), (0, 3, "e3")]) is None

    def test_triangle(self):
        cycle = find_cycle([(0, 1, "e1"), (1, 2, "e2"), (2, 0, "e3")])
        assert sorted(cycle) == ["e1", "e2", "e3"]
        assert cycle[-1] == "e3"   # the edge that closed the loop is last

    def test_parallel_edges_are_a_cycle(self):
        assert find_cycle([(0, 1, "V1"), (0, 1, "V2")]) == ["V1", "V2"]

    def test_self_loop_ignored(self):
        assert find_cycle([(0, 0, "V1"), (0, 1, "V2")]) is None


class TestSelfLoopElements:
    """Self-loop edges: a device with both terminals on one node."""

    def test_union_self_is_noop(self):
        uf = UnionFind(3)
        assert not uf.union(1, 1)
        assert int(uf.size[uf.find(1)]) == 1

    def test_bfs_ignores_self_edges(self):
        adj = {0: [(0, "loop"), (1, "a")], 1: [(0, "a")]}
        assert bfs_path(adj, 0, 1) == ["a"]

    def test_cycle_detection_skips_self_loops_among_real_edges(self):
        edges = [(0, 0, "Vself"), (0, 1, "V1"), (1, 2, "V2")]
        assert find_cycle(edges) is None

    def test_erc_self_loop_resistor_is_an_island(self):
        diags = erc([("V", "V1", "in", "0", 1.0), ("R", "R1", "in", "0", 1e3),
                     ("R", "R2", "x", "x", 1e3)])
        assert [d.rule for d in diags] == ["erc.no-dc-path"]
        assert diags[0].location == "x"

    def test_erc_self_loop_vsource_is_a_short(self):
        rules = {d.rule for d in erc([("V", "V1", "in", "0", 1.0),
                                      ("R", "R1", "in", "0", 1e3),
                                      ("V", "V2", "in", "in", 0.0)])}
        assert "erc.source-short" in rules
        # ...and does NOT double-report as a voltage-source loop.
        assert "erc.vsource-loop" not in rules


class TestDisconnectedSubcircuits:
    """Fully disconnected components: every node islanded from ground."""

    def test_union_find_keeps_components_apart(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)      # component A
        uf.union(3, 4)
        uf.union(4, 5)      # component B
        assert not uf.connected(0, 5)
        assert list(uf.component_mask(0)) == [True] * 3 + [False] * 3
        assert list(uf.component_mask(5)) == [False] * 3 + [True] * 3

    def test_bfs_cannot_cross_components(self):
        adj = {0: [(1, "a")], 1: [(0, "a")], 2: [(3, "b")], 3: [(2, "b")]}
        assert bfs_path(adj, 0, 3) is None

    def test_erc_reports_every_islanded_node(self):
        diags = erc([("V", "V1", "in", "0", 1.0), ("R", "R1", "in", "0", 1e3),
                     ("R", "R3", "a", "b", 1e3), ("R", "R4", "b", "a", 2e3)])
        assert [d.rule for d in diags] == ["erc.no-dc-path"] * 2
        assert sorted(d.location for d in diags) == ["a", "b"]


class TestCanonicalNodeStability:
    """Node indices come from sorted() over node names: renaming every
    node must not change which *rules* fire (only the names in them)."""

    ELEMENTS = [("V", "V1", "in", "0", 1.0), ("R", "R1", "in", "mid", 1e3),
                ("R", "R2", "mid", "0", 1e3),
                ("C", "C1", "mid", "dangle", 1e-12)]

    def test_rule_multiset_invariant_under_renaming(self):
        renamed = {"in": "zz_in", "mid": "aa_mid", "dangle": "qq_dangle"}
        before = sorted(d.rule for d in erc(self.ELEMENTS))
        after = sorted(d.rule for d in erc(self.ELEMENTS, renamed))
        assert before == after == ["erc.floating-node", "erc.no-dc-path"]

    def test_locations_follow_the_renaming(self):
        locs = {d.rule: d.location
                for d in erc(self.ELEMENTS, {"dangle": "zzz"})}
        assert locs["erc.floating-node"] == "zzz"

    def test_reversed_sort_order_same_verdicts(self):
        # Renaming that inverts the sorted() order of node names must
        # not flip any union-find/cycle verdicts.
        elements = [("V", "V1", "a", "0", 1.0), ("V", "V2", "b", "0", 1.0),
                    ("V", "V3", "a", "b", 0.0), ("R", "R1", "a", "0", 1e3)]
        flipped = {"a": "zz", "b": "aa"}
        assert {d.rule for d in erc(elements)} \
            == {d.rule for d in erc(elements, flipped)} \
            >= {"erc.vsource-loop"}
