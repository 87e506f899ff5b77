"""Crash-safe checkpoints: versioned, atomic, pickle-free ``.npz`` files.

A checkpoint is one compressed archive holding a JSON **header** (scalars:
format version, config, round counter, RNG state, wall-clock offset) plus
named numpy **arrays** (dataset, records, network weights, optimizer
moments).  Writes go to a temporary file in the target directory followed
by :func:`os.replace`, so a crash mid-write can never leave a truncated
checkpoint where a good one used to be — the previous snapshot survives.

Loads never use ``allow_pickle``: every array is a plain numeric/bool/
fixed-width-string array, so untrusted checkpoints cannot execute code.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

import numpy as np

__all__ = ["CHECKPOINT_VERSION", "atomic_write_json", "load_checkpoint",
           "save_checkpoint"]

# Version 5: a checkpoint is also the run's archive.  Every method writes
# ``records/kind`` and ``records/owner``, and the header carries the run's
# name (``name``) and its wall seconds over all segments (``wall_time_s``).
# Version 4 lacks those; versions 1-3 carry config settings that no longer
# exist.  All of them are refused.
CHECKPOINT_VERSION = 5

_HEADER_KEY = "__header__"


def atomic_write_json(path: str | pathlib.Path, doc: dict,
                      default=None) -> pathlib.Path:
    """Write ``doc`` as deterministic JSON via tmp-file + :func:`os.replace`.

    The durability primitive for the repo's JSON records (run-store
    manifests): a crash mid-write can never leave a torn document where
    a good one used to be, and concurrent readers always see either the
    old or the new version.  ``default`` is forwarded to :func:`json.dumps` for values
    that need coercion (numpy scalars and the like).
    """
    path = pathlib.Path(path)
    # Per-writer temp name (pid + thread id): two threads updating the
    # same document race benignly — last replace wins — instead of one
    # replacing a temp file the other already consumed.
    tmp = path.with_name(
        f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True,
                              default=default) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return path


def save_checkpoint(path: str | pathlib.Path, header: dict,
                    arrays: dict[str, np.ndarray]) -> pathlib.Path:
    """Atomically write ``header`` + ``arrays`` to ``path`` (.npz).

    ``header`` must be JSON-serializable; ``arrays`` maps names (slashes
    allowed, e.g. ``"critic/w0"``) to arrays.  Returns the final path.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if _HEADER_KEY in arrays:
        raise ValueError(f"array name {_HEADER_KEY!r} is reserved")
    for name, arr in arrays.items():
        if np.asarray(arr).dtype == object:
            raise ValueError(f"array {name!r} has dtype=object; "
                             "checkpoints must stay pickle-free")
    header = dict(header)
    header.setdefault("checkpoint_version", CHECKPOINT_VERSION)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    # Same-directory temp file so os.replace is an atomic rename.
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}.npz")
    try:
        np.savez_compressed(
            tmp, **{_HEADER_KEY: np.array(json.dumps(header))}, **arrays)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # failed write: don't leave temp litter behind
            tmp.unlink()
    return path


def load_checkpoint(path: str | pathlib.Path
                    ) -> tuple[dict, dict[str, np.ndarray]]:
    """Load ``(header, arrays)`` written by :func:`save_checkpoint`.

    Safe on untrusted files (``allow_pickle=False``); raises
    ``ValueError`` on a missing or future-versioned header.
    """
    path = pathlib.Path(path)
    with np.load(path, allow_pickle=False) as data:
        if _HEADER_KEY not in data.files:
            raise ValueError(f"{path} is not a repro checkpoint "
                             "(missing header)")
        header = json.loads(str(data[_HEADER_KEY]))
        version = header.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads version {CHECKPOINT_VERSION})")
        arrays = {k: data[k] for k in data.files if k != _HEADER_KEY}
    return header, arrays
