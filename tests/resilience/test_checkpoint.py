"""Unit tests for the atomic checkpoint file format."""

import json

import numpy as np
import pytest

from repro.resilience.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_checkpoint,
)


class TestRoundTrip:
    def test_header_and_arrays_survive(self, tmp_path):
        header = {"kind": "test", "round": 3, "best": float("inf")}
        arrays = {"a/x": np.arange(6.0).reshape(2, 3),
                  "b": np.array([True, False])}
        path = save_checkpoint(tmp_path / "ck.npz", header, arrays)
        back_header, back_arrays = load_checkpoint(path)
        assert back_header["kind"] == "test"
        assert back_header["round"] == 3
        assert back_header["best"] == float("inf")
        assert back_header["checkpoint_version"] == CHECKPOINT_VERSION
        np.testing.assert_array_equal(back_arrays["a/x"], arrays["a/x"])
        np.testing.assert_array_equal(back_arrays["b"], arrays["b"])

    def test_suffix_appended(self, tmp_path):
        path = save_checkpoint(tmp_path / "ck", {"kind": "t"}, {})
        assert path.name == "ck.npz" and path.exists()

    def test_string_arrays_stay_pickle_free(self, tmp_path):
        arrays = {"kinds": np.array(["init", "actor"], dtype=np.str_)}
        path = save_checkpoint(tmp_path / "ck.npz", {"kind": "t"}, arrays)
        _, back = load_checkpoint(path)  # load_checkpoint forbids pickle
        assert list(back["kinds"]) == ["init", "actor"]


class TestSafety:
    def test_object_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="pickle-free"):
            save_checkpoint(tmp_path / "ck.npz", {"kind": "t"},
                            {"bad": np.array([{"a": 1}], dtype=object)})

    def test_reserved_header_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint(tmp_path / "ck.npz", {"kind": "t"},
                            {"__header__": np.zeros(1)})

    def test_failed_write_preserves_previous_checkpoint(self, tmp_path):
        path = save_checkpoint(tmp_path / "ck.npz", {"kind": "good"},
                               {"x": np.ones(3)})
        # A non-serializable header fails before the atomic rename ...
        with pytest.raises(TypeError):
            save_checkpoint(path, {"bad": object()}, {})
        # ... so the original snapshot survives and no temp files linger.
        header, arrays = load_checkpoint(path)
        assert header["kind"] == "good"
        np.testing.assert_array_equal(arrays["x"], np.ones(3))
        assert list(tmp_path.glob("*.tmp-*")) == []

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        header = json.dumps({"checkpoint_version": 999})
        np.savez_compressed(path, __header__=np.array(header))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_version_1_header_rejected(self, tmp_path):
        # Version-1 to version-3 headers hold config settings this build
        # no longer has; they must be refused by version, not by a
        # TypeError from the config constructor.
        path = tmp_path / "ck.npz"
        for version in (1, 2, 3):
            header = json.dumps({"checkpoint_version": version,
                                 "config": {}})
            np.savez_compressed(path, __header__=np.array(header))
            with pytest.raises(
                    ValueError,
                    match=f"unsupported checkpoint version {version}"):
                load_checkpoint(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        np.savez_compressed(path, x=np.zeros(2))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_creates_parent_directories(self, tmp_path):
        path = save_checkpoint(tmp_path / "deep" / "dir" / "ck.npz",
                               {"kind": "t"}, {})
        assert path.exists()
