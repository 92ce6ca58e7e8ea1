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

``evaluate`` returns the accuracy of the float64 forward pass, argmax ties
going to the lowest class. An accuracy depends only on each row's argmax,
so on a test set of at least ``SCREEN_MIN_ROWS`` rows a float32 pass
decides the rows it can certify and float64 decides the rest. The bound:
a pass with unit roundoff u gets each logit of row r within ε·S_r + τ of
its exact value. S_r is the logit with every term made positive,
``(|x_r| @ |W1| + |b1|) @ |W2| + |b2|`` for the MLP and ``|x_r| @ |W| +
|b|`` for softmax, and at most ‖x_r‖₂·α + β by Cauchy–Schwarz. Layer by
layer ε_l = ε_{l-1}(1 + u) + γ_{n_l+3}(1 + ε_{l-1}), with γ_k = k·u/(1 -
k·u) and n_l the layer's fan-in; τ adds 2⁻¹⁵⁰ (float32) or 2⁻¹⁰⁷⁵
(float64) for each rounding that may underflow, carried through the next
layer's |W|. A row is decided when exactly one class lies within
4·(ε32·S_r + τ32 + ε64·S_r + τ64) of its float32 maximum, twice the margin
that forces the float64 argmax to that class. The float64 recheck of the
other rows decides within 8·(ε64·S_r + τ64), twice what two float64
passes that sum in different orders need. A row still undecided (an exact
or near tie) sends the whole test set to the float64 pass, and so do a
float32 pass that decides no row (a recheck of every row would cost that
pass) and a magnitude at which float32 could overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import TrainSpec, check_fields

INIT_SCALE = 0.05  # uniform initializer range [-INIT_SCALE, INIT_SCALE]

# evaluate screens test sets of at least this many rows in float32; smaller
# ones take the float64 pass alone. At dim 128, hidden 16 and 10 classes,
# with one BLAS thread on a 2-vCPU x86-64 box, the screen took 59 µs
# against 19 µs for the float64 pass at 100 rows, 116 against 121 µs at
# 800 and 220 against 326 µs at 2,000: they break even near 800 rows.
SCREEN_MIN_ROWS = 1024
# Unit roundoff and underflow unit (half the smallest subnormal) of each
# precision, and a magnitude bound under float32's overflow at 2**128: the
# screen runs only while every value its pass can form stays below it.
_FLOAT32 = (2.0**-24, 2.0**-150)
_FLOAT64 = (2.0**-53, 2.0**-1075)
_SCREEN_LIMIT = 2.0**120


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
    is the one read of the arrays themselves; :meth:`screen_arrays` holds
    the float32 copy that evaluate screens large test sets with."""

    __slots__ = ("_x", "_y", "_screen")

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
        self._screen = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._x, self._y

    def screen_arrays(self) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, int]:
        """What :func:`evaluate`'s float32 screen reads, built on first use
        and kept as long as the shard: the features as a C-contiguous
        (dim, rows) float32 array, each row's float64 2-norm and their max,
        the flat index of each row's label logit in (classes, rows) logits,
        and the largest label."""
        if self._screen is None:
            x, y = self._x, self._y
            with np.errstate(over="ignore"):  # huge features: inf, never screened
                x32 = np.ascontiguousarray(x.T, dtype=np.float32)
                norms = np.sqrt(np.einsum("ij,ij->i", x, x))
            labels = y * len(y) + np.arange(len(y))
            self._screen = (x32, norms, float(norms.max()), labels, int(y.max()))
        return self._screen

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

    The accuracy is always that of the float64 forward pass, argmax ties
    resolving to the lowest class index. A test set of at least
    ``SCREEN_MIN_ROWS`` rows is first screened in float32, which decides
    only the rows whose float64 argmax its rounding bound certifies (see
    the module docstring); float64 decides every other row. Pure: repeated
    calls on the same inputs return the same value.
    """
    x, y = test.arrays()
    if test.dim != arch_input_dim(params.arch_id):
        raise ValueError("test feature dimension does not match the model")
    layers = _unpack(params.values, params.arch_id)
    correct = _screen(params, layers, test) if len(y) >= SCREEN_MIN_ROWS else None
    if correct is None:
        correct = np.count_nonzero(_forward(layers, x).argmax(axis=1) == y)
    return correct / len(y)


def _forward(layers: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """The float64 forward pass: (rows, classes) logits of the rows x."""
    a = x
    for k in range(0, len(layers), 2):
        if k:
            np.maximum(a, 0.0, out=a)  # ReLU on the hidden layer, in place
        a = a @ layers[k]
        a += layers[k + 1]
    return a


def _screen(params: ModelParams, layers: list[np.ndarray], test: DataShard) -> int | None:
    """How many rows the float64 forward pass classifies correctly, or None
    when the whole test set must take that pass (see the module docstring):
    a row left undecided, no row decided in float32, a label that is not a
    class of the model, or a magnitude at which float32 could overflow."""
    x32, norms, xi, labels, top_label = test.screen_arrays()
    dims = parse_arch(params.arch_id)[1]
    omega = float(np.abs(params.values).max())
    # Below _SCREEN_LIMIT no float32 weight (at most omega), hidden unit (at
    # most omega * (1 + ‖x‖₁)) or logit (at most S_r) can overflow. `not <`
    # also catches NaN features.
    if top_label >= dims[-1] or not omega * (1 + math.sqrt(dims[0]) * xi) < _SCREEN_LIMIT:
        return None
    alpha, beta = _magnitude(layers)
    if not alpha * xi + beta < _SCREEN_LIMIT:
        return None
    eps32, tau32 = _error_terms(dims, omega, xi, *_FLOAT32)
    eps64, tau64 = _error_terms(dims, omega, xi, *_FLOAT64)
    z = x32
    for k in range(0, len(layers), 2):
        if k:
            np.maximum(z, 0.0, out=z)  # ReLU on the hidden layer, in place
        z = layers[k].T.astype(np.float32) @ z
        z += layers[k + 1].T.astype(np.float32)
    rel = 4 * (eps32 + eps64)
    slack = norms * (rel * alpha) + (rel * beta + 4 * (tau32 + tau64))
    decided, correct = _decide(z, slack, labels)
    if not decided.any():
        return None
    rest = np.flatnonzero(~decided)
    if rest.size:
        x, y = test.arrays()
        slack = 8 * (eps64 * (alpha * norms[rest] + beta) + tau64)
        labels = y[rest] * rest.size + np.arange(rest.size)
        decided, more = _decide(_forward(layers, x[rest]).T, slack, labels)
        if not decided.all():
            return None
        correct += more
    return correct


def _decide(z: np.ndarray, slack: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Which rows of the (classes, rows) logits z have exactly one class
    within ``slack`` of their maximum, and how many of those have it at the
    flat index ``labels`` (the label's logit)."""
    # Rounded to z's precision the cut may rise, but never past a value of
    # that precision below the exact cut: a class under it is still more
    # than the slack below the maximum.
    cut = (z.max(axis=0) - slack).astype(z.dtype)
    decided = (z >= cut).sum(axis=0, dtype=np.int32) == 1
    return decided, np.count_nonzero(decided & (z.ravel()[labels] >= cut))


def _magnitude(layers: list[np.ndarray]) -> tuple[float, float]:
    """(α, β) such that every S_r (see :func:`_error_terms`) is at most
    ``α * ‖x_r‖₂ + β``: Cauchy–Schwarz on the first layer's columns, then
    |W| of each later layer."""
    w = layers[0]
    per_x, per_1 = np.sqrt(np.einsum("ij,ij->j", w, w)), np.abs(layers[1][0])
    for w, b in zip(layers[2::2], layers[3::2]):
        w = np.abs(w)
        per_x, per_1 = per_x @ w, per_1 @ w + np.abs(b[0])
    return float(per_x.max()), float(per_1.max())


def _error_terms(
    dims: tuple[int, ...], omega: float, xi: float, u: float, eta: float
) -> tuple[float, float]:
    """(ε, τ) such that a forward pass rounding with unit roundoff u and
    underflow unit eta gets every logit of a row r within ``ε * S_r + τ``
    of its exact value, for a model whose largest |parameter| is omega and
    rows of 2-norm at most xi.

    S_r is the logit with every term made positive: ``|x_r| @ |W| + |b|``
    for softmax, ``(|x_r| @ |W1| + |b1|) @ |W2| + |b2|`` for the MLP. A layer of
    fan-in n rounds each of its sums with relative error γ_{n+3}, which
    covers the products, the additions, the bias and the conversion of both
    operands to float32; ReLU is 1-Lipschitz, so the next layer carries the
    error in through |W|. Every rounding may also underflow by eta: at most
    ``8 * eta * (‖a‖₁ + n * omega + n + 1)`` per unit of a layer with input
    a, where ‖x_r‖₁ ≤ sqrt(dim) * xi. This assumes gradual underflow, which
    IEEE 754 and numpy's default floating-point environment give.
    """
    eps, tau, l1 = 0.0, 0.0, math.sqrt(dims[0]) * xi
    for n, m in zip(dims[:-1], dims[1:]):
        gamma = (n + 3) * u / (1 - (n + 3) * u)
        eps = eps * (1 + u) + gamma * (1 + eps)
        tau = (1 + gamma) * n * omega * tau + 8 * eta * (l1 + n * omega + n + 1)
        l1 = m * ((l1 * omega + omega) * (1 + eps) + tau)  # bounds the next layer's ‖a‖₁
    return eps, tau


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
