"""Local models, SGD training, evaluation, FedAvg and noise distortion.

A model is a flat float64 parameter vector tagged with an architecture id,
either plain softmax regression (``"softmax:<in>-<classes>"``) or a
one-hidden-layer ReLU network (``"mlp:<in>-<hidden>-<classes>"``). Training
is plain minibatch SGD on softmax cross-entropy; nothing fancier is needed
at desk scale and the protocol is agnostic to the model anyway.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

INIT_SCALE = 0.05  # uniform initializer range [-INIT_SCALE, INIT_SCALE]


class TrainingDiverged(Exception):
    """Loss became NaN/Inf during local training (learning rate too high)."""


def softmax_arch(input_dim: int, num_classes: int) -> str:
    return f"softmax:{input_dim}-{num_classes}"


def mlp_arch(input_dim: int, hidden: int, num_classes: int) -> str:
    return f"mlp:{input_dim}-{hidden}-{num_classes}"


@functools.lru_cache
def parse_arch(arch_id: str) -> tuple[str, tuple[int, ...]]:
    """Split an architecture id into (kind, layer dims). Raises ValueError.

    Cached: every SGD step parses its architecture id several times. A
    failed parse raises each time, since exceptions are not cached.
    """
    try:
        kind, spec = arch_id.split(":")
        dims = tuple(int(d) for d in spec.split("-"))
    except (ValueError, AttributeError):
        raise ValueError(f"malformed architecture id: {arch_id!r}") from None
    if kind == "softmax" and len(dims) == 2 and all(d > 0 for d in dims):
        return kind, dims
    if kind == "mlp" and len(dims) == 3 and all(d > 0 for d in dims):
        return kind, dims
    raise ValueError(f"unknown architecture id: {arch_id!r}")


def param_count(arch_id: str) -> int:
    kind, dims = parse_arch(arch_id)
    if kind == "softmax":
        d, k = dims
        return d * k + k
    d, h, k = dims
    return d * h + h + h * k + k


def arch_classes(arch_id: str) -> int:
    return parse_arch(arch_id)[1][-1]


def arch_input_dim(arch_id: str) -> int:
    return parse_arch(arch_id)[1][0]


@dataclass(frozen=True)
class ModelParams:
    """Immutable flat parameter vector of a fixed architecture."""

    values: np.ndarray
    arch_id: str

    def __post_init__(self):
        vec = np.array(self.values, dtype=np.float64).reshape(-1)
        expected = param_count(self.arch_id)
        if vec.size != expected:
            raise ValueError(
                f"parameter vector has {vec.size} entries, "
                f"{self.arch_id} needs {expected}"
            )
        if not np.all(np.isfinite(vec)):
            raise ValueError("parameter vector contains NaN/Inf")
        vec.flags.writeable = False
        object.__setattr__(self, "values", vec)

    def __eq__(self, other):
        if not isinstance(other, ModelParams):
            return NotImplemented
        return self.arch_id == other.arch_id and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.arch_id, self.values.tobytes()))


class DataShard:
    """Feature/label arrays private to one device.

    Reads go through :meth:`arrays`, which counts accesses so tests can
    assert data locality (a device's shard is only ever read by that
    device's own training/evaluation).
    """

    __slots__ = ("_x", "_y", "shard_of", "access_count")

    def __init__(self, x, y, shard_of: bytes = b""):
        x = np.array(x, dtype=np.float64)
        y = np.array(y, dtype=np.int64).reshape(-1)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels disagree in length")
        if x.shape[0] == 0:
            raise ValueError("shard is empty")
        if np.any(y < 0):
            raise ValueError("labels must be non-negative")
        x.flags.writeable = False
        y.flags.writeable = False
        self._x = x
        self._y = y
        self.shard_of = shard_of
        self.access_count = 0

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        self.access_count += 1
        return self._x, self._y

    def view(self, shard_of: bytes) -> "DataShard":
        """Another device's shard over these same read-only arrays.

        No data is copied; the new shard counts its own accesses.
        """
        out = DataShard.__new__(DataShard)
        out._x, out._y = self._x, self._y
        out.shard_of = shard_of
        out.access_count = 0
        return out

    @property
    def buffer_id(self) -> int:
        """Identity of the arrays read; equal for a shard and its views."""
        return id(self._x)

    def __len__(self) -> int:
        return self._x.shape[0]

    @property
    def dim(self) -> int:
        return self._x.shape[1]


@dataclass(frozen=True)
class TrainSpec:
    """Local training hyperparameters, shared by all devices in a run."""

    epochs: int = 5
    learning_rate: float = 0.01
    batch_size: int = 10

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def init_global_model(arch_id: str, seed: int) -> ModelParams:
    """Fresh parameters, uniform in [-0.05, 0.05], deterministic in seed."""
    n = param_count(arch_id)
    rng = np.random.default_rng(seed)
    return ModelParams(rng.uniform(-INIT_SCALE, INIT_SCALE, size=n), arch_id)


def _unpack(vec: np.ndarray, arch_id: str) -> list[np.ndarray]:
    kind, dims = parse_arch(arch_id)
    if kind == "softmax":
        d, k = dims
        return [vec[: d * k].reshape(d, k), vec[d * k :]]
    d, h, k = dims
    o1 = d * h
    o2 = o1 + h
    o3 = o2 + h * k
    return [
        vec[:o1].reshape(d, h),
        vec[o1:o2],
        vec[o2:o3].reshape(h, k),
        vec[o3:],
    ]


def _logits(vec: np.ndarray, arch_id: str, x: np.ndarray) -> np.ndarray:
    kind, _ = parse_arch(arch_id)
    if kind == "softmax":
        w, b = _unpack(vec, arch_id)
        return x @ w + b
    w1, b1, w2, b2 = _unpack(vec, arch_id)
    hidden = np.maximum(x @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _mean_cross_entropy(z: np.ndarray, y: np.ndarray) -> float:
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_norm - shifted[np.arange(z.shape[0]), y]))


def _loss_and_grad(vec: np.ndarray, arch_id: str, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over the batch and its gradient as a flat vector."""
    kind, _ = parse_arch(arch_id)
    n = x.shape[0]
    if kind == "softmax":
        w, b = _unpack(vec, arch_id)
        z = x @ w + b
        loss = _mean_cross_entropy(z, y)
        dz = _softmax(z)
        dz[np.arange(n), y] -= 1.0
        dz /= n
        grad = np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])
        return loss, grad
    w1, b1, w2, b2 = _unpack(vec, arch_id)
    z1 = x @ w1 + b1
    hidden = np.maximum(z1, 0.0)
    z2 = hidden @ w2 + b2
    loss = _mean_cross_entropy(z2, y)
    p = _softmax(z2)
    dz2 = p
    dz2[np.arange(n), y] -= 1.0
    dz2 /= n
    dhidden = dz2 @ w2.T
    dhidden[z1 <= 0.0] = 0.0
    grad = np.concatenate(
        [
            (x.T @ dhidden).ravel(),
            dhidden.sum(axis=0),
            (hidden.T @ dz2).ravel(),
            dz2.sum(axis=0),
        ]
    )
    return loss, grad


def local_train(
    start: ModelParams,
    shard: DataShard,
    spec: TrainSpec,
    rng: np.random.Generator,
) -> ModelParams:
    """Minibatch SGD for ``spec.epochs`` epochs; batch order drawn from rng.

    The input parameters are never modified. Deterministic given
    (start, shard, spec, rng state). Raises TrainingDiverged on NaN/Inf loss.
    """
    x, y = shard.arrays()
    if shard.dim != arch_input_dim(start.arch_id):
        raise ValueError("shard feature dimension does not match the model")
    if int(y.max()) >= arch_classes(start.arch_id):
        raise ValueError("shard labels exceed the model's class count")
    if spec.batch_size > len(shard):
        raise ValueError("batch_size exceeds shard size")
    vec = start.values.copy()
    n = len(shard)
    lr = spec.learning_rate
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, spec.batch_size):
            idx = order[lo : lo + spec.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad = _loss_and_grad(vec, start.arch_id, x[idx], y[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss diverged to {loss!r}")
            vec -= lr * grad
    if not np.all(np.isfinite(vec)):
        raise TrainingDiverged("parameters diverged to NaN/Inf")
    return ModelParams(vec, start.arch_id)


def evaluate(params: ModelParams, test: DataShard) -> float:
    """Fraction of test examples whose argmax prediction matches the label.

    Argmax ties resolve to the lowest class index. Pure: repeated calls on
    the same inputs return the same value.
    """
    x, y = test.arrays()
    if test.dim != arch_input_dim(params.arch_id):
        raise ValueError("test feature dimension does not match the model")
    preds = np.argmax(_logits(params.values, params.arch_id, x), axis=1)
    return float(np.mean(preds == y))


def fedavg(updates: Sequence[tuple[ModelParams, float]]) -> ModelParams:
    """Elementwise weighted mean of parameter vectors, weights normalized."""
    if len(updates) == 0:
        raise ValueError("fedavg needs at least one update")
    arch = updates[0][0].arch_id
    for params, weight in updates:
        if params.arch_id != arch:
            raise ValueError("updates mix architectures")
        if not weight > 0:
            raise ValueError("weights must be positive")
    stacked = np.stack([p.values for p, _ in updates])
    weights = np.array([w for _, w in updates], dtype=np.float64)
    return ModelParams(np.average(stacked, axis=0, weights=weights), arch)


def inject_gaussian_noise(
    params: ModelParams, variance: float, rng: np.random.Generator
) -> ModelParams:
    """Additive iid N(0, variance) perturbation of every entry."""
    if not variance > 0:
        raise ValueError("variance must be > 0")
    noise = rng.normal(0.0, np.sqrt(variance), size=params.values.shape)
    return ModelParams(params.values + noise, params.arch_id)
