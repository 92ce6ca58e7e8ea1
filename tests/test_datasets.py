import math
import re

import numpy as np
import pytest
from conftest import write_idx

from vbfl.config import DatasetConfig
from vbfl.datasets import Task, load_idx_task, make_blobs_task, read_idx
from vbfl.errors import ConfigError


def blobs(seed=0, **geometry):
    """The blob task of a small DatasetConfig, ``geometry`` overriding its fields."""
    ds = DatasetConfig(**{"dim": 4, "classes": 2, "train_per_class": 8, "test_per_class": 3,
                          "spread": 0.3, "feature_scale": 0.5, **geometry})
    return make_blobs_task(ds, seed)


class TestBlobs:
    def test_shapes_and_label_range(self):
        t = blobs(dim=6, classes=3, train_per_class=10, test_per_class=4)
        assert t.train.arrays()[0].shape == (30, 6)
        assert t.test.arrays()[0].shape == (12, 6)
        assert set(np.unique(t.train.arrays()[1])) == {0, 1, 2}
        assert t.classes == 3

    def test_deterministic(self):
        a = blobs(seed=5)
        b = blobs(seed=5)
        assert np.array_equal(a.train.arrays()[0], b.train.arrays()[0])
        assert np.array_equal(a.test.arrays()[1], b.test.arrays()[1])

    def test_seed_matters(self):
        a, b = blobs(seed=1), blobs(seed=2)
        assert not np.array_equal(a.train.arrays()[0], b.train.arrays()[0])

    def test_feature_scale(self):
        small = blobs(seed=3, train_per_class=50, test_per_class=5, feature_scale=0.5)
        big = blobs(seed=3, train_per_class=50, test_per_class=5, feature_scale=2.0)
        np.testing.assert_allclose(big.train.arrays()[0], small.train.arrays()[0] * 4.0)

    @pytest.mark.parametrize("field, value, why", [
        ("dim", 0, "must be >= 1"),
        ("classes", 1, "must be >= 2"),
        ("test_per_class", 0, "must be >= 1"),
        ("spread", math.nan, "must be finite"),
    ])
    def test_bad_args(self, field, value, why):
        # The section's annotations are the builder's only rules, so a bad
        # geometry fails from Python as it does from a config file.
        with pytest.raises(ConfigError, match=re.escape(f"dataset.{field}: {why}")):
            blobs(**{field: value})

    def test_arrays_locked(self):
        t = blobs(dim=3, train_per_class=4, test_per_class=2)
        for shard in (t.train, t.test):
            for a in shard.arrays():
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 5


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
        x, y = task.train.arrays()
        assert x.shape == (12, 16)
        assert x.max() <= 1.0
        np.testing.assert_array_equal(x, tri.reshape(12, 16) / 255.0)
        np.testing.assert_array_equal(y, trl)
        assert len(task.test) == 6
        assert task.classes == int(max(trl.max(), tel.max())) + 1
