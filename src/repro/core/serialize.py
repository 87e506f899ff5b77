"""Persistence for optimization results.

Saves an :class:`~repro.core.result.OptimizationResult` to a single ``.npz``
archive (arrays for the per-record data, a small JSON blob for scalars) and
loads it back.  Useful for archiving paper-scale runs, post-hoc analysis,
and sharing traces without re-simulating.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.result import EvaluationRecord, OptimizationResult

# Version 2 stores ``kinds`` as a fixed-width unicode array so archives
# load with ``allow_pickle=False``.  Version-1 archives (object-dtype kinds)
# would need unpickling and are refused like any unsupported version.
_FORMAT_VERSION = 2


def save_result(result: OptimizationResult, path: str | pathlib.Path) -> None:
    """Write a result to ``path`` (``.npz`` appended if missing)."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    n = len(result.records)
    d = result.records[0].x.size if n else 0
    m1 = result.records[0].metrics.size if n else 0
    xs = np.zeros((n, d))
    metrics = np.zeros((n, m1))
    foms = np.zeros(n)
    t_walls = np.zeros(n)
    feasible = np.zeros(n, dtype=bool)
    owners = np.full(n, -1, dtype=int)
    kinds: list[str] = []
    for i, rec in enumerate(result.records):
        xs[i] = rec.x
        metrics[i] = rec.metrics
        foms[i] = rec.fom
        t_walls[i] = rec.t_wall
        feasible[i] = rec.feasible
        owners[i] = -1 if rec.owner is None else rec.owner
        kinds.append(rec.kind)
    header = json.dumps({
        "version": _FORMAT_VERSION,
        "task_name": result.task_name,
        "method": result.method,
        "init_best_fom": result.init_best_fom,
        "wall_time_s": result.wall_time_s,
    })
    np.savez_compressed(
        path, header=np.array(header), xs=xs, metrics=metrics, foms=foms,
        t_walls=t_walls, feasible=feasible, owners=owners,
        kinds=(np.array(kinds, dtype=np.str_) if kinds
               else np.empty(0, dtype="U1")),
    )


def save_comparison(results: dict[str, list[OptimizationResult]],
                    directory: str | pathlib.Path) -> list[pathlib.Path]:
    """Archive a full method comparison (one ``.npz`` per run plus a
    ``manifest.json``); load back with :func:`load_comparison`."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, list[str]] = {}
    written: list[pathlib.Path] = []
    for method, runs in results.items():
        safe = method.replace("/", "_")
        manifest[method] = []
        for k, res in enumerate(runs):
            name = f"{safe}_run{k}.npz"
            save_result(res, directory / name)
            manifest[method].append(name)
            written.append(directory / name)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return written


def load_comparison(directory: str | pathlib.Path
                    ) -> dict[str, list[OptimizationResult]]:
    """Inverse of :func:`save_comparison`."""
    directory = pathlib.Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    return {
        method: [load_result(directory / name) for name in names]
        for method, names in manifest.items()
    }


def load_result(path: str | pathlib.Path) -> OptimizationResult:
    """Load a result previously written by :func:`save_result`.

    Archives are read with ``allow_pickle=False``, so a crafted file cannot
    execute code; any version but the current one raises ``ValueError``.
    """
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        version = header.get("version")
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported result format version {version}")
        kinds = [str(k) for k in data["kinds"]]
        records = []
        owners = data["owners"]
        for i in range(len(data["foms"])):
            records.append(EvaluationRecord(
                index=i,
                x=np.array(data["xs"][i]),
                metrics=np.array(data["metrics"][i]),
                fom=float(data["foms"][i]),
                kind=str(kinds[i]),
                owner=None if owners[i] < 0 else int(owners[i]),
                feasible=bool(data["feasible"][i]),
                t_wall=float(data["t_walls"][i]),
            ))
    return OptimizationResult(
        task_name=header["task_name"], method=header["method"],
        records=records, init_best_fom=header["init_best_fom"],
        wall_time_s=header["wall_time_s"],
    )
