"""Built-in learning tasks: synthetic Gaussian blobs and IDX image files.

The blob task is the default for simulations and tests: deterministic,
dependency-free and fast. For fidelity runs the IDX reader takes MNIST's
format, plain or gzipped: unsigned bytes, with rank-3 images and rank-1
labels.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

@dataclass(frozen=True)
class Task:
    """A complete classification task: a training pool plus a test set."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int

    def __post_init__(self):
        for arr in (self.train_x, self.train_y, self.test_x, self.test_y):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.train_x.shape[1]

    @property
    def train_size(self) -> int:
        return self.train_x.shape[0]


def make_blobs_task(
    *,
    dim: int,
    classes: int,
    train_per_class: int,
    test_per_class: int,
    spread: float,
    feature_scale: float,
    seed: int,
) -> Task:
    """K isotropic Gaussian clusters with standard-normal means.

    ``spread`` is the within-cluster standard deviation; ``feature_scale``
    rescales all features uniformly. Rows are shuffled so contiguous slices
    are class-balanced in expectation. The defaults live in one place,
    ``config.DatasetConfig``.
    """
    if dim < 1 or classes < 2:
        raise ValueError("need dim >= 1 and classes >= 2")
    if train_per_class < 1 or test_per_class < 1:
        raise ValueError("need at least one example per class and split")
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(classes, dim))

    def split(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
        x = means[y] + spread * rng.normal(0.0, 1.0, size=(y.size, dim))
        x *= feature_scale
        order = rng.permutation(y.size)
        return x[order], y[order]

    train_x, train_y = split(train_per_class)
    test_x, test_y = split(test_per_class)
    return Task(train_x, train_y, test_x, test_y, classes)


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
    [0, 1], and rank-1 labels."""
    root = Path(root)

    def read(stem: str, rank: int) -> np.ndarray:
        path = next((p for p in (root / stem, root / (stem + ".gz")) if p.exists()), None)
        if path is None:
            raise ValueError(f"missing {stem}[.gz] under {root}")
        raw = read_idx(path)
        if raw.ndim != rank:
            raise ValueError(f"{path}: rank {raw.ndim}, not {rank}")
        return raw

    def images(stem: str) -> np.ndarray:
        raw = read(stem, 3)
        return raw.reshape(raw.shape[0], -1).astype(np.float64) / 255.0

    train_x = images("train-images-idx3-ubyte")
    train_y = read("train-labels-idx1-ubyte", 1).astype(np.int64)
    test_x = images("t10k-images-idx3-ubyte")
    test_y = read("t10k-labels-idx1-ubyte", 1).astype(np.int64)
    if train_x.shape[0] != train_y.shape[0] or test_x.shape[0] != test_y.shape[0]:
        raise ValueError("image and label counts disagree")
    classes = int(max(train_y.max(), test_y.max())) + 1
    return Task(train_x, train_y, test_x, test_y, classes)
