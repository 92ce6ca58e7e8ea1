"""Local models, SGD training, evaluation, FedAvg and noise distortion.

A model is a flat float64 parameter vector tagged with an architecture id,
either plain softmax regression (``"softmax:<in>-<classes>"``) or a
one-hidden-layer ReLU network (``"mlp:<in>-<hidden>-<classes>"``). Training
is plain minibatch SGD on softmax cross-entropy; nothing fancier is needed
at desk scale and the protocol is agnostic to the model anyway.

``local_train_many`` trains many devices at once, each for its own number
of epochs; ``local_train`` is its one-device case. Devices whose shards
have the same row count (and the same architecture) step together, ordered
by epoch count so that the devices still training in an epoch are a prefix
of the stack. The work is split by how often it changes:

- per call: the spec's walk against its annotations (``config.TrainSpec``),
  the input checks and one ``np.errstate`` for every step;
- per group: the stacked parameters, gradient buffer and shards, and one
  ``_Step`` per prefix size ``k`` (per distinct epoch count), which holds
  the layer views of the first ``k`` parameter and gradient rows, the
  transposed weights, and per batch width the label offsets and each
  layer's output buffer;
- per epoch: each device draws its own permutation from its own generator;
- per step: one gather builds the stacked minibatch, every layer is one
  ``np.matmul`` over the stack into its buffer, its gradient written in
  place into the group's gradient buffer, then the update.

The bytes do not change: each slice of a stacked matmul is the same 2-D
gemm on the same operand layout, and every other operation is elementwise
or reduces along the same axis in the same order as for one device.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import TrainSpec, check_fields

INIT_SCALE = 0.05  # uniform initializer range [-INIT_SCALE, INIT_SCALE]


class TrainingDiverged(Exception):
    """Loss became NaN/Inf during local training (learning rate too high)."""


def softmax_arch(input_dim: int, num_classes: int) -> str:
    return f"softmax:{input_dim}-{num_classes}"


def mlp_arch(input_dim: int, hidden: int, num_classes: int) -> str:
    return f"mlp:{input_dim}-{hidden}-{num_classes}"


@functools.lru_cache
def parse_arch(arch_id: str) -> tuple[str, tuple[int, ...]]:
    """Split an architecture id into (kind, layer dims). Raises ValueError,
    also for an id that is not the one spelling of its dims (``"mlp:08-4-2"``),
    so equal layouts have equal ids.

    Cached: training, evaluation and every ModelParams parse an id. A
    failed parse raises each time, since exceptions are not cached.
    """
    try:
        kind, spec = arch_id.split(":")
        dims = tuple(int(d) for d in spec.split("-"))
    except (ValueError, AttributeError):
        raise ValueError(f"malformed architecture id: {arch_id!r}") from None
    if arch_id != f"{kind}:{'-'.join(map(str, dims))}":
        raise ValueError(f"non-canonical architecture id: {arch_id!r}")
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


class DataShard:
    """Read-only feature/label arrays: one device's private shard, or the
    whole test set, which every device shares by default. :meth:`arrays`
    is the one read."""

    __slots__ = ("_x", "_y")

    def __init__(self, x, y):
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

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._x, self._y

    def __len__(self) -> int:
        return self._x.shape[0]

    @property
    def dim(self) -> int:
        return self._x.shape[1]


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


class _Step:
    """One SGD step of the first ``k`` models of a group.

    ``vec`` and ``grad`` are the group's (W, P) parameters and gradient
    buffer, ``x`` and ``y`` its stacked shards, (W, n, d) and (W, n).
    Everything that depends on the group and ``k`` alone is built here once:
    the layer views of ``vec[:k]`` and ``grad[:k]``, the transposed weights
    and each model's row offset into the flattened shards. Per batch width
    it builds, once, each label's flat offset into the logits and each
    layer's output buffer. A call then does only the work of its batch. Each
    matmul is one np.matmul over the stack; slice w is the 2-D gemm model w
    alone needs.
    """

    def __init__(self, vec, grad, x, y, arch_id: str, k: int, lr: float):
        self.vec, self.grad, self.lr = vec[:k], grad[:k], lr
        self.params = _unpack(self.vec, arch_id)
        self.grads = _unpack(self.grad, arch_id)
        self.weights_t = [np.swapaxes(w, 1, 2) for w in self.params[::2]]
        self.x, self.y = x.reshape(-1, x.shape[-1]), y.reshape(-1)
        self.offsets = np.arange(k)[:, None] * x.shape[1]
        self.widths: dict[int, tuple] = {}

    def _width(self, width: int) -> tuple:
        """Flat offset of each batch row's logits, layer output buffers and
        transposed hidden outputs."""
        if width not in self.widths:
            k, classes = len(self.vec), self.params[-1].shape[-1]
            logits = (np.arange(k)[:, None] * width + np.arange(width)) * classes
            outs = [np.empty((k, width) + b.shape[-1:]) for b in self.params[1::2]]
            hidden_t = [np.swapaxes(h, 1, 2) for h in outs[:-1]]
            self.widths[width] = (logits, outs, hidden_t)
        return self.widths[width]

    def __call__(self, idx: np.ndarray) -> None:
        """Step on the rows ``idx`` (k, B) of each model's shard: mean
        cross-entropy, its gradient written into ``grad[:k]``, then
        ``vec[:k] -= lr * grad[:k]``. Raises TrainingDiverged, before the
        update, on a non-finite loss."""
        rows = idx + self.offsets
        xb, yb = self.x[rows], self.y[rows]
        width = idx.shape[1]
        logits, outs, hidden_t = self._width(width)
        labels = logits + yb  # flat index of each row's label logit
        inputs = [xb, *outs[:-1]]
        z = outs[-1]
        for a, w, b, o in zip(inputs, self.params[::2], self.params[1::2], outs):
            np.matmul(a, w, out=o)
            o += b
            if o is not z:
                np.maximum(o, 0.0, out=o)
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        norm = e.sum(axis=-1, keepdims=True)
        loss = (np.log(norm[..., 0]) - shifted.reshape(-1)[labels]).sum(axis=1) / width
        if not np.isfinite(loss).all():
            raise TrainingDiverged(f"loss diverged to {float(loss[~np.isfinite(loss)][0])!r}")
        delta = e / norm
        delta.reshape(-1)[labels] -= 1.0
        delta /= width
        inputs_t = [np.swapaxes(xb, 1, 2), *hidden_t]
        for layer in reversed(range(len(inputs))):
            np.matmul(inputs_t[layer], delta, out=self.grads[2 * layer])
            delta.sum(axis=1, keepdims=True, out=self.grads[2 * layer + 1])
            if layer:
                delta = delta @ self.weights_t[layer]
                np.putmask(delta, inputs[layer] <= 0.0, 0.0)
        self.grad *= self.lr  # vec -= lr * grad, without a temporary
        self.vec -= self.grad


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
    epochs: Sequence[int] | None = None,
) -> list[ModelParams]:
    """``local_train`` of every (start, shard, rng) triple, stepped together.

    ``epochs`` gives each device its own epoch count (``spec.epochs`` for
    all when None). Element i is bit-identical to ``local_train(starts[i],
    shards[i], replace(spec, epochs=epochs[i]), rngs[i])``. Each rng must be
    its own generator: it draws its device's permutations, once per epoch,
    as a single call would. A spec that breaks a ``TrainSpec`` rule raises
    ``ConfigError`` naming its ``train.`` key.
    """
    check_fields(spec, "train.")
    if epochs is None:
        epochs = [spec.epochs] * len(starts)
    if not len(starts) == len(shards) == len(rngs) == len(epochs) == len({id(r) for r in rngs}):
        raise ValueError("need one start, shard and epoch count and a distinct rng per device")
    groups: dict[tuple[int, str], list[int]] = {}
    data = [shard.arrays() for shard in shards]
    for i, (start, shard, (_, y)) in enumerate(zip(starts, shards, data)):
        if epochs[i] < 1:
            raise ValueError(f"epoch count {epochs[i]} of device {i} is below 1")
        if shard.dim != arch_input_dim(start.arch_id):
            raise ValueError("shard feature dimension does not match the model")
        if int(y.max()) >= arch_classes(start.arch_id):
            raise ValueError("shard labels exceed the model's class count")
        if spec.batch_size > len(shard):
            raise ValueError("batch_size exceeds shard size")
        groups.setdefault((len(shard), start.arch_id), []).append(i)
    out: list[ModelParams] = [None] * len(starts)
    with np.errstate(over="ignore", invalid="ignore"):
        for (n, arch_id), members in groups.items():
            # Most epochs first (stable), so the devices still training in
            # any epoch are a prefix of the stack and every array below is a
            # view.
            members.sort(key=lambda i: -epochs[i])
            vec = np.stack([starts[i].values for i in members])
            grad = np.empty_like(vec)
            x, y = (np.stack(a) for a in zip(*(data[i] for i in members)))
            step = None
            for epoch in range(epochs[members[0]]):
                k = sum(epochs[i] > epoch for i in members)
                if step is None or len(step.vec) != k:
                    step = _Step(vec, grad, x, y, arch_id, k, spec.learning_rate)
                order = np.stack([rngs[i].permutation(n) for i in members[:k]])
                for lo in range(0, n, spec.batch_size):
                    step(order[:, lo : lo + spec.batch_size])
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
    layers = _unpack(params.values, params.arch_id)
    a = x
    for k in range(0, len(layers), 2):
        if k:
            np.maximum(a, 0.0, out=a)  # ReLU on the hidden layer, in place
        a = a @ layers[k]
        a += layers[k + 1]
    return np.count_nonzero(a.argmax(axis=1) == y) / len(y)


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
