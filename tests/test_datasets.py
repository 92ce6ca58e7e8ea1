import re

import numpy as np
import pytest
from conftest import write_idx

from vbfl.datasets import Task, load_idx_task, make_blobs_task, read_idx

SHAPE = {"spread": 0.3, "feature_scale": 0.5}
GEOMETRY = {
    "dim": 32, "classes": 10, "train_per_class": 300, "test_per_class": 200, "seed": 0, **SHAPE
}


class TestBlobs:
    def test_shapes_and_label_range(self):
        t = make_blobs_task(dim=6, classes=3, train_per_class=10, test_per_class=4, seed=0, **SHAPE)
        assert t.train_x.shape == (30, 6)
        assert t.test_x.shape == (12, 6)
        assert set(np.unique(t.train_y)) == {0, 1, 2}
        assert t.num_classes == 3

    def test_deterministic(self):
        a = make_blobs_task(seed=5, dim=4, classes=2, train_per_class=8, test_per_class=3, **SHAPE)
        b = make_blobs_task(seed=5, dim=4, classes=2, train_per_class=8, test_per_class=3, **SHAPE)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_seed_matters(self):
        a = make_blobs_task(seed=1, dim=4, classes=2, train_per_class=8, test_per_class=3, **SHAPE)
        b = make_blobs_task(seed=2, dim=4, classes=2, train_per_class=8, test_per_class=3, **SHAPE)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_feature_scale(self):
        small = make_blobs_task(seed=3, dim=4, classes=2, train_per_class=50,
                                test_per_class=5, spread=0.3, feature_scale=0.5)
        big = make_blobs_task(seed=3, dim=4, classes=2, train_per_class=50,
                              test_per_class=5, spread=0.3, feature_scale=2.0)
        np.testing.assert_allclose(big.train_x, small.train_x * 4.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            make_blobs_task(**{**GEOMETRY, "dim": 0})
        with pytest.raises(ValueError):
            make_blobs_task(**{**GEOMETRY, "classes": 1})

    def test_geometry_has_no_default(self):
        # DatasetConfig holds the defaults; the task builder takes every field.
        with pytest.raises(TypeError):
            make_blobs_task(**{k: v for k, v in GEOMETRY.items() if k != "spread"})

    def test_arrays_locked(self):
        t = make_blobs_task(
            dim=3, classes=2, train_per_class=4, test_per_class=2, seed=0, **SHAPE
        )
        with pytest.raises(ValueError):
            t.train_x[0, 0] = 5.0


class TestIdx:
    def test_roundtrip_u8(self, tmp_path):
        arr = np.arange(24, dtype=">u1").reshape(2, 3, 4)
        path = tmp_path / "a-idx3-ubyte"
        write_idx(path, arr, 0x08)
        got = read_idx(path)
        assert got.shape == (2, 3, 4)
        assert np.array_equal(got, arr)

    def test_roundtrip_gzip(self, tmp_path):
        arr = np.arange(10, dtype=">u1")
        path = tmp_path / "labels-idx1-ubyte.gz"
        write_idx(path, arr, 0x08, compress=True)
        assert np.array_equal(read_idx(path), arr)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"\x01\x02\x08\x01" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            read_idx(path)

    @pytest.mark.parametrize("data", [b"\x00\x00", b"\x00\x00\x08\x03\x00\x00\x00\x02"])
    def test_truncated_header(self, tmp_path, data):
        # Too short for the magic, or for the dimensions its rank announces.
        path = tmp_path / "trunc"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="truncated IDX header"):
            read_idx(path)

    def test_truncated_payload(self, tmp_path):
        arr = np.arange(10, dtype=">u1")
        path = tmp_path / "trunc"
        write_idx(path, arr, 0x08)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="size"):
            read_idx(path)

    @pytest.mark.parametrize("code, dtype", [
        (0x09, ">i1"), (0x0B, ">i2"), (0x0C, ">i4"), (0x0D, ">f4"), (0x0E, ">f8"),
    ], ids=["0x09", "0x0b", "0x0c", "0x0d", "0x0e"])
    def test_other_dtype_names_file_and_code(self, tmp_path, code, dtype):
        # A well-formed label file of another IDX dtype: only unsigned bytes read.
        path = tmp_path / "labels-idx1-ubyte"
        write_idx(path, np.arange(40, dtype=dtype), code)
        message = f"{path}: IDX dtype code 0x{code:02x} is not 0x08 (unsigned byte)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_idx(path)

    @pytest.mark.parametrize("data, cause", [
        (b"not gzip", "Not a gzipped file (b'no')"),
        # a gzip header, then a deflate block of the invalid type 3
        (b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff",
         "Error -3 while decompressing data: invalid block type"),
    ], ids=["not-gzip", "corrupt-deflate"])
    def test_unreadable_gzip_names_file(self, tmp_path, data, cause):
        path = tmp_path / "labels-idx1-ubyte.gz"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {cause}')}$"):
            read_idx(path)

    def test_load_task(self, tmp_path):
        rng = np.random.default_rng(0)
        tri = rng.integers(0, 256, size=(12, 4, 4)).astype(">u1")
        trl = rng.integers(0, 5, size=12).astype(">u1")
        tei = rng.integers(0, 256, size=(6, 4, 4)).astype(">u1")
        tel = rng.integers(0, 5, size=6).astype(">u1")
        for stem, arr in (
            ("train-images-idx3-ubyte", tri),
            ("train-labels-idx1-ubyte", trl),
            ("t10k-images-idx3-ubyte", tei),
            ("t10k-labels-idx1-ubyte", tel),
        ):
            write_idx(tmp_path / stem, arr, 0x08)
        task = load_idx_task(tmp_path)
        assert isinstance(task, Task)
        assert task.train_x.shape == (12, 16)
        assert task.train_x.max() <= 1.0
        assert task.num_classes == int(max(trl.max(), tel.max())) + 1
