"""Built-in learning tasks: synthetic Gaussian blobs and IDX image files.

A task is its training pool and its test set, each a read-only
``learning.DataShard``, and its number of classes; the drivers split the
pool, and the test set too when each validator holds its own slice.

The blob task is the default for simulations and tests: deterministic,
dependency-free and fast. It takes its geometry from a
``config.DatasetConfig``, whose annotations are the geometry's only rules.
For fidelity runs the IDX reader takes MNIST's format, plain or gzipped:
unsigned bytes, rank-3 images of at least one pixel and as many rank-1
labels; a malformed file fails with a ValueError that names it.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DatasetConfig, check_fields
from .learning import DataShard


@dataclass(frozen=True)
class Task:
    """A complete classification task: a training pool, a test set and the
    number of classes."""

    train: DataShard
    test: DataShard
    classes: int


def make_blobs_task(ds: DatasetConfig, seed: int) -> Task:
    """K isotropic Gaussian clusters with standard-normal means, shaped by
    the dataset section ``ds`` (its ``idx_dir`` is not read).

    ``spread`` is the within-cluster standard deviation; ``feature_scale``
    rescales all features uniformly. Rows are shuffled so contiguous slices
    are class-balanced in expectation. A section that breaks a
    ``DatasetConfig`` rule raises ``ConfigError`` naming its ``dataset.`` key.
    """
    check_fields(ds, "dataset.")
    classes, dim = ds.classes, ds.dim
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(classes, dim))

    def split(per_class: int) -> DataShard:
        y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
        x = means[y] + ds.spread * rng.normal(0.0, 1.0, size=(y.size, dim))
        x *= ds.feature_scale
        return DataShard(x, y, rng.permutation(y.size))

    return Task(split(ds.train_per_class), split(ds.test_per_class), classes)


def read_idx(path) -> np.ndarray:
    """Parse one unsigned-byte IDX file (gzipped or plain) into an array."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rb") as fh:
            data = fh.read()
    except (OSError, EOFError, zlib.error) as exc:  # unreadable, not gzip, bad deflate
        raise ValueError(f"{path}: {exc}") from None
    if len(data) < 4 or len(data) < 4 + 4 * data[3]:  # data[3] is the rank
        raise ValueError(f"{path}: truncated IDX header")
    zero, dtype_code, ndim = struct.unpack(">HBB", data[:4])
    if zero != 0:
        raise ValueError(f"{path}: bad IDX magic (leading bytes not zero)")
    if dtype_code != 0x08:
        raise ValueError(f"{path}: IDX dtype code 0x{dtype_code:02x} is not 0x08 (unsigned byte)")
    header_end = 4 + 4 * ndim
    dims = struct.unpack(f">{ndim}I", data[4:header_end])
    arr = np.frombuffer(data, dtype=np.uint8, offset=header_end)
    expected = int(np.prod(dims)) if dims else 0
    if arr.size != expected:
        raise ValueError(f"{path}: payload size {arr.size} != header size {expected}")
    return arr.reshape(dims)


def load_idx_task(root) -> Task:
    """Build a Task from the four MNIST-named IDX files under ``root``, each
    plain or gzipped: rank-3 images, whose pixels flatten and scale to
    [0, 1], and rank-1 labels. An error names its file, or both files of a
    split whose counts disagree."""
    root = Path(root)

    def read(stem: str, rank: int) -> tuple[Path, np.ndarray]:
        path = next((p for p in (root / stem, root / (stem + ".gz")) if p.exists()), None)
        if path is None:
            raise ValueError(f"missing {stem}[.gz] under {root}")
        raw = read_idx(path)
        if raw.ndim != rank:
            raise ValueError(f"{path}: rank {raw.ndim}, not {rank}")
        return path, raw

    def split(prefix: str) -> DataShard:
        x_path, x = read(f"{prefix}-images-idx3-ubyte", 3)
        if 0 in x.shape:
            raise ValueError(f"{x_path}: shape {x.shape} holds no pixels")
        y_path, y = read(f"{prefix}-labels-idx1-ubyte", 1)
        try:
            return DataShard(x.reshape(len(x), -1) / 255.0, y)
        except ValueError as exc:
            raise ValueError(f"{x_path} and {y_path}: {exc}") from None

    train, test = split("train"), split("t10k")
    classes = max(int(shard.arrays()[1].max()) for shard in (train, test)) + 1
    return Task(train, test, classes)
