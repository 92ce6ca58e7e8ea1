"""Local models, SGD training, evaluation, FedAvg and noise distortion.

A model is a flat float64 parameter vector tagged with an architecture id,
either plain softmax regression (``"softmax:<in>-<classes>"``) or a
one-hidden-layer ReLU network (``"mlp:<in>-<hidden>-<classes>"``). Training
is plain minibatch SGD on softmax cross-entropy; nothing fancier is needed
at desk scale and the protocol is agnostic to the model anyway.

``local_train_many`` trains many devices at once; ``local_train`` is its
one-device case. Devices whose shards have the same row count (and the same
architecture) step together: each draws its own permutation per epoch from
its own generator, one gather builds the stacked minibatch, and every layer
is one ``np.matmul`` over the stack. The bytes do not change: each slice of
a stacked matmul is the same 2-D gemm on the same operand layout, and every
other operation is elementwise or reduces along the same axis in the same
order as for one device.
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

    Cached: training, evaluation and every ModelParams parse an id. A
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
    return _layout(arch_id)[-1][1]


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
    """Weight matrices and (1, cols) bias rows of a parameter vector, as views.

    A stack of vectors, shape (W, P), gives stacks of W matrices and rows.
    """
    lead = vec.shape[:-1]
    return [vec[..., lo:hi].reshape(lead + shape) for lo, hi, shape in _layout(arch_id)]


@functools.lru_cache
def _layout(arch_id: str) -> tuple[tuple[int, int, tuple[int, int]], ...]:
    """(start, end, shape) of every weight matrix and bias row in the vector."""
    dims, out, at = parse_arch(arch_id)[1], [], 0
    for rows, cols in zip(dims[:-1], dims[1:]):
        for shape in ((rows, cols), (1, cols)):
            out.append((at, at + shape[0] * cols, shape))
            at += shape[0] * cols
    return tuple(out)


def _forward(params: list[np.ndarray], x: np.ndarray) -> list[np.ndarray]:
    """The input of every layer, then the logits: [x, z] or [x, hidden, z]."""
    acts = [x]
    for k in range(0, len(params), 2):
        if k:
            acts.append(np.maximum(z, 0.0))
        z = acts[-1] @ params[k] + params[k + 1]
    return acts + [z]


def _loss_and_grad(vec: np.ndarray, arch_id: str, x: np.ndarray, y: np.ndarray):
    """Per-model mean cross-entropy and flat gradient of a stack of models.

    ``vec`` is (W, P), ``x`` (W, B, d) and ``y`` (W, B). Each matmul is one
    np.matmul over the stack; slice w is the 2-D gemm model w alone needs.
    """
    params = _unpack(vec, arch_id)
    *inputs, z = _forward(params, x)
    labels = (np.arange(len(y))[:, None], np.arange(y.shape[1]), y)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    norm = e.sum(axis=-1, keepdims=True)
    loss = (np.log(norm[..., 0]) - shifted[labels]).sum(axis=1) / y.shape[1]
    delta = e / norm
    delta[labels] -= 1.0
    delta /= y.shape[1]
    grads = []
    for k in reversed(range(len(inputs))):
        grads[:0] = [np.swapaxes(inputs[k], 1, 2) @ delta, delta.sum(axis=1)]
        if k:
            delta = delta @ np.swapaxes(params[2 * k], 1, 2)
            delta[inputs[k] <= 0.0] = 0.0
    return loss, np.concatenate([g.reshape(len(y), -1) for g in grads], axis=1)


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
    return local_train_many([start], [shard], spec, [rng])[0]


def local_train_many(
    starts: Sequence[ModelParams],
    shards: Sequence[DataShard],
    spec: TrainSpec,
    rngs: Sequence[np.random.Generator],
) -> list[ModelParams]:
    """``local_train`` of every (start, shard, rng) triple, stepped together.

    Element i is bit-identical to ``local_train(starts[i], shards[i], spec,
    rngs[i])``. Each rng must be its own generator: it draws its device's
    permutations, once per epoch, as a single call would.
    """
    if not len(starts) == len(shards) == len(rngs) == len({id(r) for r in rngs}):
        raise ValueError("need one start, one shard and a distinct rng per device")
    groups: dict[tuple[int, str], list[int]] = {}
    data = [shard.arrays() for shard in shards]
    for i, (start, shard, (_, y)) in enumerate(zip(starts, shards, data)):
        if shard.dim != arch_input_dim(start.arch_id):
            raise ValueError("shard feature dimension does not match the model")
        if int(y.max()) >= arch_classes(start.arch_id):
            raise ValueError("shard labels exceed the model's class count")
        if spec.batch_size > len(shard):
            raise ValueError("batch_size exceeds shard size")
        groups.setdefault((len(shard), start.arch_id), []).append(i)
    out: list[ModelParams] = [None] * len(starts)
    for (n, arch_id), members in groups.items():
        vec = np.stack([starts[i].values for i in members])
        x, y = (np.stack(a) for a in zip(*(data[i] for i in members)))
        rows = np.arange(len(members))[:, None]
        for _ in range(spec.epochs):
            order = np.stack([rngs[i].permutation(n) for i in members])
            for lo in range(0, n, spec.batch_size):
                idx = order[:, lo : lo + spec.batch_size]
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, grad = _loss_and_grad(vec, arch_id, x[rows, idx], y[rows, idx])
                bad = loss[~np.isfinite(loss)]
                if bad.size:
                    raise TrainingDiverged(f"loss diverged to {float(bad[0])!r}")
                vec -= spec.learning_rate * grad
        if not np.all(np.isfinite(vec)):
            raise TrainingDiverged("parameters diverged to NaN/Inf")
        for i, v in zip(members, vec):
            out[i] = ModelParams(v, arch_id)
    return out


def evaluate(params: ModelParams, test: DataShard) -> float:
    """Fraction of test examples whose argmax prediction matches the label.

    Argmax ties resolve to the lowest class index. Pure: repeated calls on
    the same inputs return the same value.
    """
    x, y = test.arrays()
    if test.dim != arch_input_dim(params.arch_id):
        raise ValueError("test feature dimension does not match the model")
    preds = np.argmax(_forward(_unpack(params.values, params.arch_id), x)[-1], axis=1)
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
