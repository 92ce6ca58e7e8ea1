"""The experiment schema: every knob of a run, its rule and its JSON form.

A :class:`SimConfig` holds the top-level knobs and three sections,
:class:`TrainSpec`, :class:`NetworkConfig` and :class:`DatasetConfig`. Each
field's own rule lives in its annotation: its type, a ``Literal`` for its
choices and a :class:`Bound` for its range. Building a ``SimConfig``
(``replace`` included) walks every leaf once with :func:`check_fields` and
then checks the rules that span several fields, so a config built in Python
and one read from JSON fail the same way, with the dotted key first.

The JSON form mirrors the dataclasses: sections as objects, tuples as lists,
and an unlimited value (a bound marked ``unlimited``) as ``"unlimited"``.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass, is_dataclass
from typing import Annotated, Literal, Mapping, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError

Behavior = Literal["WORKER_NOISE", "VALIDATOR_FLIP"]
BEHAVIOR_WORKER_NOISE, BEHAVIOR_VALIDATOR_FLIP = get_args(Behavior)


class Bound(NamedTuple):
    """A numeric field's closed range, as its ``Annotated`` metadata.
    ``message`` replaces the default complaint, "must be >= lo"; a finite
    ``hi`` needs one. An ``unlimited`` field may also be +inf, written
    ``"unlimited"`` in JSON."""

    lo: float
    hi: float = math.inf
    message: str = ""
    unlimited: bool = False


# math.ulp(0.0) is the least float > 0.
_POSITIVE = Bound(math.ulp(0.0), message="must be > 0")


@dataclass(frozen=True)
class TrainSpec:
    """Local training hyperparameters, shared by all devices in a run."""

    epochs: Annotated[int, Bound(1)] = 5
    learning_rate: Annotated[float, _POSITIVE] = 0.01
    batch_size: Annotated[int, Bound(1)] = 10


@dataclass(frozen=True)
class DatasetConfig:
    """Task description: synthetic blobs by default, or for fidelity the IDX
    files under ``idx_dir`` when it is set.

    The default geometry (wide clusters in 128 dimensions, modest feature
    scale) is deliberately fragile to additive parameter noise: one round of
    local training cannot repair a noise-distorted average, which is what
    makes the poisoning experiments meaningful at desk scale.
    """

    dim: Annotated[int, Bound(1)] = 128
    classes: Annotated[int, Bound(2)] = 10
    train_per_class: Annotated[int, Bound(1)] = 300
    test_per_class: Annotated[int, Bound(1)] = 200
    spread: float = 4.0
    feature_scale: float = 0.5
    idx_dir: str | None = None


@dataclass(frozen=True)
class NetworkConfig:
    """Per-link constant delay plus optional jitter; wait caps block collection."""

    delay: Annotated[float, Bound(0)] = 0.0
    jitter: Annotated[float, Bound(0)] = 0.0
    propagated_block_wait: Annotated[float, Bound(0, unlimited=True)] = math.inf

    @property
    def is_benign(self) -> bool:
        return self.delay == 0.0 and self.jitter == 0.0 and math.isinf(self.propagated_block_wait)

    def link_delay(self, rng: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
        """An array of link delays, drawn in row-major order, one double each;
        without jitter it draws nothing."""
        if not self.jitter:
            return np.full(shape, self.delay, dtype=float)
        return self.delay + self.jitter * rng.random(shape)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment.

    Building a config (``replace`` included) holds every leaf to its
    annotation (:func:`check_fields`) and then checks :meth:`validate`'s
    rules that span several fields.
    """

    n_devices: Annotated[int, Bound(3, message="must be >= 3: one device per role")] = 20
    n_workers: Annotated[int, Bound(1)] = 12
    n_validators: Annotated[int, Bound(1)] = 5
    n_miners: Annotated[int, Bound(1)] = 3
    malicious: tuple[int, ...] = ()
    malicious_behaviors: tuple[Behavior, ...] = (BEHAVIOR_WORKER_NOISE,)
    noise_variance: Annotated[float, _POSITIVE] = 1.0
    vh: float = 1.0
    kick_r: Annotated[int, Bound(1)] = 6
    unit_reward: Annotated[int, Bound(1)] = 1
    train: TrainSpec = TrainSpec()
    consensus: Literal["pos", "pow", "vfl"] = "pos"
    pow_difficulty: Annotated[
        int, Bound(0, 64, "must lie in [0, 64], the digest's nibble count")
    ] = 1
    rounds: Annotated[int, Bound(0)] = 30
    master_seed: int = 0
    network: NetworkConfig = NetworkConfig()
    dataset: DatasetConfig = DatasetConfig()
    arch: Literal["softmax", "mlp"] = "mlp"
    mlp_hidden: Annotated[int, Bound(1)] = 16
    validator_test: Literal["full", "shard"] = "full"
    sharding: Literal["iid", "label_skew"] = "iid"
    signature_scheme: Literal["stub", "hmac"] = "stub"

    def __post_init__(self):
        check_fields(self)
        self.validate()

    def validate(self) -> None:
        """The rules beyond each leaf's annotation: role counts, malicious
        numbers, a non-empty ``idx_dir`` and a blob task's rows per device."""
        counts = (self.n_workers, self.n_validators, self.n_miners)
        if sum(counts) != self.n_devices:
            raise ConfigError(f"role_counts: {counts} must sum to n_devices={self.n_devices}")
        if any(i < 0 or i >= self.n_devices for i in self.malicious):
            raise ConfigError("malicious: device numbers must lie in [0, n_devices)")
        if len(set(self.malicious)) != len(self.malicious):
            raise ConfigError("malicious: device numbers must be distinct")
        ds = self.dataset
        if ds.idx_dir == "":
            raise ConfigError("dataset.idx_dir: must not be empty")
        if ds.idx_dir is None:
            check_rows(self, ds.classes * ds.train_per_class, ds.classes * ds.test_per_class)

    def to_dict(self) -> dict:
        return _to_dict(self)

    @staticmethod
    def from_dict(data: Mapping) -> "SimConfig":
        return _from_dict(SimConfig, data)


@functools.cache
def _rules(cls) -> dict[str, tuple[object, tuple, Bound | None]]:
    """(type, choices, bound or None) of each field of a config class, read
    from its annotations once per class; ``choices`` are the ``Literal``
    values a choice field, or each element of a tuple of choices, may take."""
    out = {}
    for name, hint in get_type_hints(cls, include_extras=True).items():
        hint, bound = get_args(hint) if get_origin(hint) is Annotated else (hint, None)
        elem = get_args(hint)[0] if get_origin(hint) is tuple else hint
        out[name] = (hint, get_args(elem) if get_origin(elem) is Literal else (), bound)
    return out


def check_fields(obj, prefix: str = "") -> None:
    """Hold every leaf of a config, nested sections included, to its
    annotation: first its type (a choice among its choices, a tuple element
    by element), then finiteness for a float that is not unlimited, then its
    bound. ``prefix`` leads each key, e.g. ``"train."`` for a lone spec."""
    for name, (hint, choices, bound) in _rules(type(obj)).items():
        key, value = prefix + name, getattr(obj, name)
        if not fits(value, hint):
            if choices and isinstance(value, tuple) == (get_origin(hint) is tuple):
                why = f"choices are {', '.join(map(repr, choices))}; got {value!r}"
            else:
                kind = hint.__name__ if isinstance(hint, type) else str(hint)
                why = f"expected {kind.replace('typing.', '')}, got {value!r}"
        elif is_dataclass(value):
            check_fields(value, key + ".")
            continue
        elif isinstance(value, float) and not (
            math.isfinite(value) or bound and bound.unlimited and value == math.inf
        ):
            why = "must be finite"
        elif bound is not None and not bound.lo <= value <= bound.hi:
            why = bound.message or f"must be >= {bound.lo}"
        else:
            continue
        raise ConfigError(f"{key}: {why}")


def check_rows(config: SimConfig, train_rows: int, test_rows: int) -> None:
    """Every device needs a training row, a test row of its own under
    ``validator_test="shard"``, and a training shard no smaller than a batch."""
    n = config.n_devices
    if train_rows < n:
        raise ConfigError(f"dataset: {train_rows} training rows for {n} devices")
    if config.validator_test == "shard" and test_rows < n:
        raise ConfigError(
            f"dataset: {test_rows} test rows for {n} devices under validator_test='shard'"
        )
    if config.train.batch_size > train_rows // n:
        raise ConfigError(
            f"train.batch_size: {config.train.batch_size} exceeds the smallest "
            f"training shard ({train_rows // n} rows)"
        )


def fits(value, hint) -> bool:
    """Whether a value fits a field annotation: an int may stand for a float,
    a bool is not a number, a choice must be one of its ``Literal`` values,
    and a tuple's elements are checked too."""
    if get_origin(hint) is tuple:
        elem = get_args(hint)[0]
        return isinstance(value, tuple) and all(fits(v, elem) for v in value)
    if get_origin(hint) is Literal:
        return value in get_args(hint)
    if get_origin(hint) is types.UnionType:
        return any(fits(value, h) for h in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


# The (de)serialisers walk each class's annotations, so a new knob needs no
# serialiser change; check_fields, run when the SimConfig is built, holds
# each value read to its annotation.


def _to_dict(obj) -> dict:
    out = {}
    for name, (_, _, bound) in _rules(type(obj)).items():
        value = getattr(obj, name)
        if is_dataclass(value):
            value = _to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif bound and bound.unlimited and value == math.inf:
            value = "unlimited"
        out[name] = value
    return out


def _from_dict(cls, data: Mapping, section: str = ""):
    prefix = section + "." if section else ""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{section or 'config'}: must be an object, got {data!r}")
    rules = _rules(cls)
    unknown = sorted(set(data) - set(rules))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key")
    kwargs = {}
    for key, value in data.items():
        hint, _, bound = rules[key]
        if is_dataclass(hint):
            value = _from_dict(hint, value, prefix + key)
        elif bound and bound.unlimited and value == "unlimited":
            value = math.inf
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)
