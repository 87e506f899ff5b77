"""Tests of the benchmark itself, not of repro::

    python3 -m pytest perfbench/tests -q

Tiny-budget passes of every workload, tracer hygiene, the output check,
and agreement between ``BENCHMARK.json`` and what ``run.py`` reports.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from perfbench import layers, workloads
from perfbench.tracing import SpanTracer, installed_wrappers, tail_percentile

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Budgets that keep one pass of each workload to a second or two.
TINY = {"ota-maopt": {"n_init": 4, "n_sims": 3},
        "tia-maopt": {"n_init": 6, "n_sims": 4},
        "tia-bo": {"n_init": 6, "n_sims": 3}}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def traced_pass(wl: workloads.Workload, task, seed: int):
    tracer = SpanTracer()
    layers.install(tracer)
    try:
        with tracer.span("bench.pass"):
            result = workloads.run_pass(wl, task, seed, 0)
    finally:
        tracer.uninstall()
    return tracer, result


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_is_clean_and_repeatable(name):
    wl = tiny(name)
    task = wl.make_task()
    first = workloads.run_pass(wl, task, seed=1, index=0)
    assert first.problems == []
    assert len(first.foms) == wl.n_init + wl.n_sims
    again = workloads.run_pass(wl, task, seed=1, index=0)
    assert workloads.same_outputs(first, again) == []
    other = workloads.initial_designs(wl, task, seed=2, index=0)
    assert not np.array_equal(other, workloads.initial_designs(wl, task, 1, 0))


def test_traced_pass_matches_and_leaves_no_wrapper():
    import numpy.linalg
    import repro.circuits.ota
    import repro.spice.dc
    from repro.spice.netlist import Circuit

    def bound():
        return (repro.circuits.ota.operating_point,
                repro.spice.dc.operating_point, numpy.linalg.solve,
                Circuit.__dict__["assemble"])

    before = bound()
    wl = tiny("ota-maopt")
    task = wl.make_task()
    untraced = workloads.run_pass(wl, task, seed=2, index=0)
    tracer = SpanTracer()
    layers.install(tracer)
    try:
        assert "repro.circuits.ota.operating_point" in installed_wrappers()
        with tracer.span("bench.pass"):
            traced = workloads.run_pass(wl, task, seed=2, index=0)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert bound() == before
    assert workloads.same_outputs(untraced, traced) == []
    assert tracer.calls("circuits") == wl.n_init + wl.n_sims
    assert tracer.counters["spice.tran.newton_iters"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    wl = tiny("tia-bo")
    task = wl.make_task()
    tracer, result = traced_pass(wl, task, seed=3)
    reported = layers.metrics(tracer, wl.dominant, passes=1,
                              pass_s=result.wall_s, n_metrics=task.m + 1)
    reported["trace.overhead_share"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()}
    assert reported["gp.fit.calls"][0] == wl.n_sims
    assert reported["circuits.sims"][0] == wl.n_init + wl.n_sims


def test_reference_check_catches_a_planted_perturbation():
    wl = workloads.WORKLOADS["tia-bo"]
    reference = workloads.load_reference()["probes"][wl.name]
    measured = workloads.probe(wl, wl.make_task())
    assert workloads.reference_problems(measured, reference) == []
    planted = np.array(reference)
    planted[1, 2] *= 1.0 + 1e-4
    problems = workloads.reference_problems(measured, planted)
    assert len(problems) == 1 and "design 1, metric 2" in problems[0]


def test_busy_and_self_time_count_nesting_once():
    tracer = SpanTracer()
    tracer.spans.extend([["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
                         ["a", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]])
    assert tracer.busy_s("a") == 10.0
    assert tracer.busy_s("b") == 4.0
    assert tracer.busy_s("a", "b") == 10.0
    assert tracer.self_times() == {"a": 7.0, "b": 3.0}


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(list(range(19)))[0] == 50.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(1000)))[0] == 99.0
