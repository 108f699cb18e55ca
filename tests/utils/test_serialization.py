"""Serialization helper tests."""

import numpy as np

from repro.utils.serialization import load_json, save_json, to_jsonable


class TestSerialization:
    def test_numpy_types_converted(self):
        obj = {
            "i": np.int64(4),
            "f": np.float32(1.5),
            "b": np.bool_(True),
            "arr": np.arange(3),
            "nested": [np.float64(2.0), {"x": np.int32(1)}],
        }
        out = to_jsonable(obj)
        assert out == {"i": 4, "f": 1.5, "b": True, "arr": [0, 1, 2],
                       "nested": [2.0, {"x": 1}]}

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "result.json"
        save_json(path, {"a": np.float64(0.5), "b": [1, 2]})
        assert load_json(path) == {"a": 0.5, "b": [1, 2]}

    def test_creates_parent_dirs(self, tmp_path):
        p = save_json(tmp_path / "x" / "y" / "z.json", [1])
        assert p.exists()
