#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from the code under ``src/``.

    python3 perfbench/make_reference.py

The file pins what every run checks or reports against: each workload's
probe metric matrix (its first base designs, unperturbed, compared at
``REFERENCE_RTOL``), and the best FoM and success of each workload's
first pass for seeds 1-10.  Regenerate it only in a change meant to alter
simulator numerics or optimizer paths, and say so in that change.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import pin_threads  # noqa: E402

REFERENCE_SEEDS = range(1, 11)


def main() -> int:
    pin_threads()
    from perfbench import workloads

    doc = {"rtol": workloads.REFERENCE_RTOL, "probes": {}, "runs": {}}
    for wl in workloads.WORKLOADS.values():
        task = wl.make_task()
        doc["probes"][wl.name] = workloads.probe(wl, task).tolist()
        runs = doc["runs"][wl.name] = {}
        for seed in REFERENCE_SEEDS:
            res = workloads.run_pass(wl, task, seed, 0)
            if res.problems:
                raise SystemExit(f"{wl.name} seed {seed}: {res.problems}")
            runs[str(seed)] = {"best_fom": res.best_fom,
                               "success": res.success}
            print(wl.name, seed, runs[str(seed)], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
