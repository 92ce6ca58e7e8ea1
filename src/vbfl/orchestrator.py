"""Round-by-round protocol driver, role rotation and the plain-FL baseline.

One communication round runs: role assignment, worker/validator/miner
association, local training (with noise injection for malicious workers),
worker-transaction delivery, validator broadcast and voting (with vote
flipping for malicious validators), validator-transaction delivery, vote
aggregation and candidate blocks per miner, block propagation, legitimate-
block selection (stake rank or mining race), chain append, reward/flag
bookkeeping and the new global model.

Everything is driven by named substreams of the master seed, so runs are
bit-reproducible and changing one noise source never shifts another.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import consensus as consensus_mod
from . import protocol as protocol_mod
from . import rewards as rewards_mod
from .datasets import Task, load_idx_task, make_blobs_task
from .errors import ConfigError, InvariantViolation
from .learning import (
    DataShard,
    ModelParams,
    TrainSpec,
    evaluate,
    fedavg,
    init_global_model,
    inject_gaussian_noise,
    local_train,
    mlp_arch,
    softmax_arch,
)
from .protocol import (
    Block,
    Blockchain,
    BlockRejected,
    DeviceId,
    HASH_NAME,
    HmacSigner,
    Signer,
    StubSigner,
    ValidatorTransaction,
    WorkerTransaction,
    append_block,
    chain_to_jsonl,
    make_genesis,
    sign_validator_tx,
    sign_worker_tx,
    verify_validator_tx,
    verify_worker_tx,
)
from .rewards import StakeLedger, apply_block
from .rng import derive_seed, substream
from .validation import (
    SCHEME_LEGACY,
    SCHEME_VOTING,
    VadRecord,
    ValidatorState,
    malicious_flip,
    pretrain_one_epoch,
    reference_from_global,
    validate_by_voting,
    write_vad_csv,
)

logger = logging.getLogger("vbfl")

BEHAVIOR_WORKER_NOISE = "WORKER_NOISE"
BEHAVIOR_VALIDATOR_FLIP = "VALIDATOR_FLIP"

ROUNDS_CSV_FIELDS = ("round", "consensus", "winner", "winner_malicious", "forked", "global_accuracy")
STAKE_CSV_FIELDS = ("round", "device", "stake", "is_malicious")
EVENTS_CSV_FIELDS = ("round", "device", "event")

EVENT_FLAGGED = "FLAGGED"
EVENT_STREAK_RESET = "STREAK_RESET"
EVENT_BLACKLISTED = "BLACKLISTED"


class Role(Enum):
    WORKER = "w"
    VALIDATOR = "v"
    MINER = "m"


# --- configuration --------------------------------------------------------


@dataclass(frozen=True)
class DatasetConfig:
    """Task description: synthetic blobs by default, IDX files for fidelity.

    The default geometry (wide clusters in 128 dimensions, modest feature
    scale) is deliberately fragile to additive parameter noise: one round of
    local training cannot repair a noise-distorted average, which is what
    makes the poisoning experiments meaningful at desk scale.
    """

    kind: str = "blobs"
    dim: int = 128
    classes: int = 10
    train_per_class: int = 300
    test_per_class: int = 200
    spread: float = 4.0
    feature_scale: float = 0.5
    informative_dims: int | None = None
    seed: int | None = None
    idx_dir: str | None = None


@dataclass(frozen=True)
class NetworkConfig:
    """Per-link constant delay plus optional jitter; wait caps block collection."""

    delay: float = 0.0
    jitter: float = 0.0
    propagated_block_wait: float = math.inf

    @property
    def is_benign(self) -> bool:
        return self.delay == 0.0 and self.jitter == 0.0 and math.isinf(self.propagated_block_wait)

    def link_delay(self, src: DeviceId, dst: DeviceId, rng: np.random.Generator) -> float:
        if src == dst:
            return 0.0
        extra = self.jitter * float(rng.random()) if self.jitter else 0.0
        return self.delay + extra


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment."""

    n_devices: int = 20
    n_workers: int = 12
    n_validators: int = 5
    n_miners: int = 3
    malicious: tuple[int, ...] = ()
    malicious_behaviors: tuple[str, ...] = (BEHAVIOR_WORKER_NOISE,)
    noise_variance: float = 1.0
    vh: float = 1.0
    vh_overrides: tuple[tuple[int, float], ...] = ()
    kick_r: int = 6
    unit_reward: int = 1
    train: TrainSpec = TrainSpec()
    consensus: str = "pos"
    pow_difficulty: int = 1
    pow_mode: str = "race"
    hash_rates: tuple[tuple[int, float], ...] = ()
    rounds: int = 30
    master_seed: int = 0
    network: NetworkConfig = NetworkConfig()
    dataset: DatasetConfig = DatasetConfig()
    arch: str = "mlp"
    mlp_hidden: int = 16
    role_policy: str = "random"
    role_sequence: tuple[str, ...] = ()
    validation_scheme: str = SCHEME_VOTING
    validator_test: str = "full"
    sharding: str = "iid"
    signature_scheme: str = "stub"

    def validate(self) -> None:
        def fail(key: str, why: str):
            raise ConfigError(f"{key}: {why}")

        if self.n_devices < 2:
            fail("n_devices", "need at least two devices")
        counts = (self.n_workers, self.n_validators, self.n_miners)
        if any(c < 1 for c in counts):
            fail("role_counts", "each of n_workers/n_validators/n_miners must be >= 1")
        if sum(counts) != self.n_devices:
            fail("role_counts", f"{counts} must sum to n_devices={self.n_devices}")
        if any(i < 0 or i >= self.n_devices for i in self.malicious):
            fail("malicious", "device numbers must lie in [0, n_devices)")
        if len(set(self.malicious)) != len(self.malicious):
            fail("malicious", "device numbers must be distinct")
        known = {BEHAVIOR_WORKER_NOISE, BEHAVIOR_VALIDATOR_FLIP}
        if not set(self.malicious_behaviors) <= known:
            fail("malicious_behaviors", f"must be a subset of {sorted(known)}")
        if not self.noise_variance > 0:
            fail("noise_variance", "must be > 0")
        if any(i < 0 or i >= self.n_devices for i, _ in self.vh_overrides):
            fail("vh_overrides", "device numbers must lie in [0, n_devices)")
        if self.kick_r < 1:
            fail("kick_r", "must be >= 1")
        if self.unit_reward < 1:
            fail("unit_reward", "must be >= 1")
        if self.consensus not in ("pos", "pow"):
            fail("consensus", "must be 'pos' or 'pow'")
        if self.pow_difficulty < 0:
            fail("pow_difficulty", "must be >= 0")
        if self.pow_mode not in ("race", "nonce"):
            fail("pow_mode", "must be 'race' or 'nonce'")
        if any(rate <= 0 for _, rate in self.hash_rates):
            fail("hash_rates", "rates must be positive")
        if any(i < 0 or i >= self.n_devices for i, _ in self.hash_rates):
            fail("hash_rates", "device numbers must lie in [0, n_devices)")
        if self.rounds < 0:
            fail("rounds", "must be >= 0")
        if self.network.delay < 0 or self.network.jitter < 0:
            fail("network", "delay and jitter must be >= 0")
        if self.network.propagated_block_wait < 0:
            fail("network", "propagated_block_wait must be >= 0 or unlimited")
        if self.dataset.kind not in ("blobs", "idx"):
            fail("dataset.kind", "must be 'blobs' or 'idx'")
        if self.dataset.kind == "blobs":
            if self.dataset.dim < 1 or self.dataset.classes < 2:
                fail("dataset", "need dim >= 1 and classes >= 2")
            if self.dataset.train_per_class < 1 or self.dataset.test_per_class < 1:
                fail("dataset", "need at least one example per class and split")
            info = self.dataset.informative_dims
            if info is not None and not 1 <= info <= self.dataset.dim:
                fail("dataset.informative_dims", "must lie in [1, dim]")
        elif not self.dataset.idx_dir:
            fail("dataset.idx_dir", "required when dataset.kind is 'idx'")
        if self.arch not in ("softmax", "mlp"):
            fail("arch", "must be 'softmax' or 'mlp'")
        if self.arch == "mlp" and self.mlp_hidden < 1:
            fail("mlp_hidden", "must be >= 1")
        if self.role_policy not in ("random", "fixed"):
            fail("role_policy", "must be 'random' or 'fixed'")
        if self.role_policy == "fixed":
            if not self.role_sequence:
                fail("role_sequence", "required when role_policy is 'fixed'")
            for entry in self.role_sequence:
                if len(entry) != self.n_devices or set(entry) - set("wvm"):
                    fail("role_sequence", "each entry needs one of w/v/m per device")
        if self.validation_scheme not in (SCHEME_VOTING, SCHEME_LEGACY):
            fail("validation_scheme", f"must be '{SCHEME_VOTING}' or '{SCHEME_LEGACY}'")
        if self.validator_test not in ("full", "shard"):
            fail("validator_test", "must be 'full' or 'shard'")
        if self.sharding not in ("iid", "label_skew"):
            fail("sharding", "must be 'iid' or 'label_skew'")
        if self.signature_scheme not in ("stub", "hmac"):
            fail("signature_scheme", "must be 'stub' or 'hmac'")

    def to_dict(self) -> dict:
        wait = self.network.propagated_block_wait
        return {
            "n_devices": self.n_devices,
            "n_workers": self.n_workers,
            "n_validators": self.n_validators,
            "n_miners": self.n_miners,
            "malicious": list(self.malicious),
            "malicious_behaviors": list(self.malicious_behaviors),
            "noise_variance": self.noise_variance,
            "vh": self.vh,
            "vh_overrides": [list(p) for p in self.vh_overrides],
            "kick_r": self.kick_r,
            "unit_reward": self.unit_reward,
            "train": {
                "epochs": self.train.epochs,
                "learning_rate": self.train.learning_rate,
                "batch_size": self.train.batch_size,
            },
            "consensus": self.consensus,
            "pow_difficulty": self.pow_difficulty,
            "pow_mode": self.pow_mode,
            "hash_rates": [list(p) for p in self.hash_rates],
            "rounds": self.rounds,
            "master_seed": self.master_seed,
            "network": {
                "delay": self.network.delay,
                "jitter": self.network.jitter,
                "propagated_block_wait": "unlimited" if math.isinf(wait) else wait,
            },
            "dataset": {
                "kind": self.dataset.kind,
                "dim": self.dataset.dim,
                "classes": self.dataset.classes,
                "train_per_class": self.dataset.train_per_class,
                "test_per_class": self.dataset.test_per_class,
                "spread": self.dataset.spread,
                "feature_scale": self.dataset.feature_scale,
                "informative_dims": self.dataset.informative_dims,
                "seed": self.dataset.seed,
                "idx_dir": self.dataset.idx_dir,
            },
            "arch": self.arch,
            "mlp_hidden": self.mlp_hidden,
            "role_policy": self.role_policy,
            "role_sequence": list(self.role_sequence),
            "validation_scheme": self.validation_scheme,
            "validator_test": self.validator_test,
            "sharding": self.sharding,
            "signature_scheme": self.signature_scheme,
        }

    @staticmethod
    def from_dict(data: Mapping) -> "SimConfig":
        data = dict(data)
        base = SimConfig()
        kwargs = {}

        def pop_section(key: str, builder):
            if key in data:
                kwargs[key] = builder(data.pop(key))

        def build_train(d: Mapping) -> TrainSpec:
            extra = set(d) - {"epochs", "learning_rate", "batch_size"}
            if extra:
                raise ConfigError(f"train.{sorted(extra)[0]}: unknown key")
            try:
                return TrainSpec(**d)
            except ValueError as exc:
                raise ConfigError(f"train: {exc}") from None

        def build_network(d: Mapping) -> NetworkConfig:
            d = dict(d)
            wait = d.pop("propagated_block_wait", math.inf)
            if wait == "unlimited" or wait is None:
                wait = math.inf
            extra = set(d) - {"delay", "jitter"}
            if extra:
                raise ConfigError(f"network.{sorted(extra)[0]}: unknown key")
            return NetworkConfig(propagated_block_wait=float(wait), **d)

        def build_dataset(d: Mapping) -> DatasetConfig:
            extra = set(d) - {f.strip() for f in (
                "kind", "dim", "classes", "train_per_class", "test_per_class",
                "spread", "feature_scale", "informative_dims", "seed", "idx_dir",
            )}
            if extra:
                raise ConfigError(f"dataset.{sorted(extra)[0]}: unknown key")
            return DatasetConfig(**d)

        pop_section("train", build_train)
        pop_section("network", build_network)
        pop_section("dataset", build_dataset)
        for key in ("malicious", "malicious_behaviors", "role_sequence"):
            if key in data:
                kwargs[key] = tuple(data.pop(key))
        for key in ("vh_overrides", "hash_rates"):
            if key in data:
                kwargs[key] = tuple(tuple(p) for p in data.pop(key))
        for key in list(data):
            if not hasattr(base, key):
                raise ConfigError(f"{key}: unknown key")
            kwargs[key] = data.pop(key)
        cfg = replace(base, **kwargs)
        cfg.validate()
        return cfg


# --- devices and sharding ---------------------------------------------------


@dataclass(frozen=True)
class Device:
    """A participant: its rank in id order, public id and signing secret."""

    number: int
    id: DeviceId
    secret: bytes


def make_devices(n: int) -> list[Device]:
    """n devices with stable hash-derived identities, sorted by id."""
    raw = []
    for i in range(n):
        secret = hashlib.sha256(b"vbfl/device-secret/" + str(i).encode()).digest()
        dev_id = hashlib.sha256(b"vbfl/device-identity/" + str(i).encode()).digest()[:16]
        raw.append((dev_id, secret))
    raw.sort()
    return [Device(number, dev_id, secret) for number, (dev_id, secret) in enumerate(raw)]


def shard_dataset(
    task: Task,
    device_ids: Sequence[DeviceId],
    rng: np.random.Generator,
    sharding: str = "iid",
    validator_test: str = "full",
) -> dict[DeviceId, tuple[DataShard, DataShard]]:
    """Disjoint equal train shards; test is shared in full by default.

    Uneven division hands the remainder one example each to the lowest
    device ids. ``label_skew`` deals label-sorted contiguous chunks instead
    of a random split. A shared test set is one read-only buffer that every
    device's test shard views.
    """
    ids = sorted(device_ids)
    n = len(ids)
    if task.train_size < n:
        raise ValueError("dataset smaller than the number of devices")
    if sharding == "iid":
        order = rng.permutation(task.train_size)
    else:
        order = np.argsort(task.train_y, kind="stable")
    base, rem = divmod(task.train_size, n)
    out: dict[DeviceId, tuple[DataShard, DataShard]] = {}
    if validator_test == "shard":
        test_order = rng.permutation(task.test_x.shape[0])
        tbase, trem = divmod(task.test_x.shape[0], n)
    else:
        shared_test = DataShard(task.test_x, task.test_y)
    start = 0
    tstart = 0
    for k, dev in enumerate(ids):
        size = base + (1 if k < rem else 0)
        rows = order[start : start + size]
        start += size
        train = DataShard(task.train_x[rows], task.train_y[rows], shard_of=dev)
        if validator_test == "shard":
            tsize = tbase + (1 if k < trem else 0)
            trows = test_order[tstart : tstart + tsize]
            tstart += tsize
            test = DataShard(task.test_x[trows], task.test_y[trows], shard_of=dev)
        else:
            test = shared_test.view(dev)
        out[dev] = (train, test)
    return out


def assign_roles(
    round_no: int,
    device_ids: Sequence[DeviceId],
    config: SimConfig,
    rng: np.random.Generator,
    excluded: frozenset[DeviceId] = frozenset(),
) -> dict[DeviceId, Role]:
    """Per-round role map; blacklisted devices receive no role.

    Random policy: a uniform shuffle filled worker-first. When exclusions
    leave fewer devices than the configured counts, the deficit shrinks the
    worker count first, then validators, then miners.
    """
    ids = sorted(device_ids)
    active = [d for d in ids if d not in excluded]
    if config.role_policy == "fixed":
        entry = config.role_sequence[(round_no - 1) % len(config.role_sequence)]
        by_char = {"w": Role.WORKER, "v": Role.VALIDATOR, "m": Role.MINER}
        return {
            dev: by_char[entry[number]]
            for number, dev in enumerate(ids)
            if dev not in excluded
        }
    counts = [config.n_workers, config.n_validators, config.n_miners]
    deficit = sum(counts) - len(active)
    for slot in range(3):  # shrink worker-first
        if deficit <= 0:
            break
        cut = min(counts[slot], deficit)
        counts[slot] -= cut
        deficit -= cut
    if counts != [config.n_workers, config.n_validators, config.n_miners]:
        logger.warning("round %d: role counts shrank to %s after blacklisting", round_no, counts)
    perm = rng.permutation(len(active))
    roles: dict[DeviceId, Role] = {}
    for pos, idx in enumerate(perm):
        if pos < counts[0]:
            role = Role.WORKER
        elif pos < counts[0] + counts[1]:
            role = Role.VALIDATOR
        else:
            role = Role.MINER
        roles[active[idx]] = role
    return roles


def associate(
    workers: Sequence[DeviceId],
    validators: Sequence[DeviceId],
    miners: Sequence[DeviceId],
    rng: np.random.Generator,
) -> tuple[dict[DeviceId, DeviceId], dict[DeviceId, DeviceId]]:
    """Uniform worker->validator and validator->miner associations."""
    if not validators or not miners:
        raise ValueError("cannot associate without validators and miners")
    w2v = {w: validators[int(rng.integers(len(validators)))] for w in sorted(workers)}
    v2m = {v: miners[int(rng.integers(len(miners)))] for v in sorted(validators)}
    return w2v, v2m


# --- per-round observables ---------------------------------------------------


@dataclass
class RoundMetrics:
    """Everything observable about one round; CSVs take subsets of this."""

    round: int
    consensus: str
    global_accuracy: float
    winner: DeviceId | None = None
    winner_malicious: bool = False
    forked: bool = False
    skipped: bool = False
    skip_reason: str = ""
    stakes: dict[DeviceId, int] = field(default_factory=dict)
    vad_records: tuple[VadRecord, ...] = ()
    events: tuple[tuple[DeviceId, str], ...] = ()
    reward_breakdown: dict[DeviceId, dict[str, int]] = field(default_factory=dict)
    qualified_workers: tuple[DeviceId, ...] = ()
    roles: dict[DeviceId, Role] = field(default_factory=dict)
    worker_txs: tuple[WorkerTransaction, ...] = ()
    txs_by_validator: dict[DeviceId, tuple[WorkerTransaction, ...]] = field(default_factory=dict)
    vtxs_by_miner: dict[DeviceId, tuple[ValidatorTransaction, ...]] = field(default_factory=dict)
    worker_updates: dict[DeviceId, tuple[ModelParams, ModelParams]] = field(default_factory=dict)
    legitimate_block: Block | None = None


@dataclass
class DeviceState:
    """One device's private world: data, chain replica, ledger replica, model."""

    device: Device
    train: DataShard
    test: DataShard
    malicious: bool
    chain: Blockchain
    ledger: StakeLedger
    g: ModelParams


def _build_task(config: SimConfig) -> Task:
    ds = config.dataset
    if ds.kind == "idx":
        root = Path(ds.idx_dir)

        def find(stem: str) -> Path:
            for candidate in (root / stem, root / (stem + ".gz")):
                if candidate.exists():
                    return candidate
            raise ConfigError(f"dataset.idx_dir: missing {stem}[.gz] under {root}")

        return load_idx_task(
            find("train-images-idx3-ubyte"),
            find("train-labels-idx1-ubyte"),
            find("t10k-images-idx3-ubyte"),
            find("t10k-labels-idx1-ubyte"),
            name="idx",
        )
    seed = ds.seed if ds.seed is not None else derive_seed(config.master_seed, "shard", "task")
    return make_blobs_task(
        dim=ds.dim,
        classes=ds.classes,
        train_per_class=ds.train_per_class,
        test_per_class=ds.test_per_class,
        spread=ds.spread,
        feature_scale=ds.feature_scale,
        seed=seed,
        informative_dims=ds.informative_dims,
    )


def _make_signer(config: SimConfig, devices: Sequence[Device]) -> Signer:
    signer = HmacSigner() if config.signature_scheme == "hmac" else StubSigner()
    for dev in devices:
        signer.register(dev.id, dev.secret)
    return signer


class Simulation:
    """Mutable state of one run plus the round step."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.devices = make_devices(config.n_devices)
        self.by_id = {d.id: d for d in self.devices}
        self.signer = _make_signer(config, self.devices)
        self.task = _build_task(config)
        if config.arch == "mlp":
            self.arch_id = mlp_arch(self.task.dim, config.mlp_hidden, self.task.num_classes)
        else:
            self.arch_id = softmax_arch(self.task.dim, self.task.num_classes)
        shards = shard_dataset(
            self.task,
            [d.id for d in self.devices],
            substream(config.master_seed, "shard"),
            sharding=config.sharding,
            validator_test=config.validator_test,
        )
        g0 = init_global_model(self.arch_id, derive_seed(config.master_seed, "init"))
        self.genesis = make_genesis(g0)
        malicious_ids = {self.devices[i].id for i in config.malicious}
        self.malicious_ids = frozenset(malicious_ids)
        self._vh_by_id = {
            self.devices[i].id: vh for i, vh in config.vh_overrides
        }
        self._rates_by_id = {self.devices[i].id: rate for i, rate in config.hash_rates}
        self.state: dict[DeviceId, DeviceState] = {}
        for dev in self.devices:
            train, test = shards[dev.id]
            self.state[dev.id] = DeviceState(
                device=dev,
                train=train,
                test=test,
                malicious=dev.id in malicious_ids,
                chain=Blockchain((self.genesis,)),
                ledger=StakeLedger(unit_reward=config.unit_reward, kick_r=config.kick_r),
                g=g0,
            )
        self.full_test = DataShard(self.task.test_x, self.task.test_y, shard_of=b"")
        self.round_no = 0
        self.metrics: list[RoundMetrics] = []
        self._seen_block_hashes = {self.genesis.content_hash}

    # -- helpers ------------------------------------------------------------

    def _unanimous_blacklist(self) -> frozenset[DeviceId]:
        """Devices every still-participating replica has blacklisted.

        Blacklisted devices stop adopting blocks, so their replicas go
        stale and must not weigh in; iterate to the fixed point.
        """
        out: frozenset[DeviceId] = frozenset()
        while True:
            views = [
                st.ledger.blacklist for d, st in self.state.items() if d not in out
            ]
            if not views:
                return out
            agreed = views[0]
            for v in views[1:]:
                agreed = agreed & v
            agreed = frozenset(agreed)
            if agreed == out:
                return out
            out = agreed

    def _active_ids(self, blacklist: frozenset[DeviceId]) -> list[DeviceId]:
        return [d.id for d in self.devices if d.id not in blacklist]

    def _reference_id(self, blacklist: frozenset[DeviceId]) -> DeviceId:
        return self._active_ids(blacklist)[0]

    def _threshold_for(self, device: DeviceId) -> float:
        return self._vh_by_id.get(device, self.config.vh)

    def _hash_rate_for(self, device: DeviceId) -> float:
        return self._rates_by_id.get(device, 1.0)

    def _behaves(self, device: DeviceId, behavior: str) -> bool:
        return (
            device in self.malicious_ids
            and behavior in self.config.malicious_behaviors
        )

    # -- the round ------------------------------------------------------------

    def run_round(self) -> RoundMetrics:
        cfg = self.config
        j = self.round_no + 1
        self.round_no = j
        blacklist = self._unanimous_blacklist()
        actives = self._active_ids(blacklist)
        ref = actives[0] if actives else sorted(self.state)[0]

        def skip(reason: str) -> RoundMetrics:
            logger.warning("round %d skipped: %s", j, reason)
            metrics = RoundMetrics(
                round=j,
                consensus=cfg.consensus.upper(),
                global_accuracy=evaluate(self.state[ref].g, self.full_test),
                skipped=True,
                skip_reason=reason,
                stakes={d: self.state[ref].ledger.stake_of(d) for d in self.state},
            )
            self.metrics.append(metrics)
            return metrics

        if not actives:
            return skip("all devices blacklisted")
        roles = assign_roles(
            j, list(self.state), cfg, substream(cfg.master_seed, "roles", j), excluded=blacklist
        )
        workers = sorted(d for d, r in roles.items() if r is Role.WORKER)
        validators = sorted(d for d, r in roles.items() if r is Role.VALIDATOR)
        miners = sorted(d for d, r in roles.items() if r is Role.MINER)
        if not validators or not miners:
            return skip("no validators or miners available")
        w2v, v2m = associate(workers, validators, miners, substream(cfg.master_seed, "assoc", j))
        net_rng = substream(cfg.master_seed, "net", j)

        # Workers: train, distort if malicious, sign, deliver to the
        # associated validator.
        worker_txs: list[WorkerTransaction] = []
        worker_updates: dict[DeviceId, tuple[ModelParams, ModelParams]] = {}
        # Messages carry the signing bytes their sender encoded once; every
        # receiver verifies the signature over the bytes it received.
        inbox_v: dict[DeviceId, list[tuple[WorkerTransaction, bytes, float]]] = {
            v: [] for v in validators
        }
        for w in workers:
            st = self.state[w]
            clean = local_train(
                st.g, st.train, cfg.train, substream(cfg.master_seed, "batches", w, j)
            )
            sent = clean
            if self._behaves(w, BEHAVIOR_WORKER_NOISE):
                sent = inject_gaussian_noise(
                    clean, cfg.noise_variance, substream(cfg.master_seed, "noise", w, j)
                )
            tx = WorkerTransaction(
                round=j,
                worker=w,
                update=sent,
                expected_reward=cfg.train.epochs * len(st.train) * cfg.unit_reward,
                epochs=cfg.train.epochs,
                train_size=len(st.train),
                signature=b"",
            )
            payload = protocol_mod.worker_tx_signing_bytes(tx)
            tx = sign_worker_tx(tx, self.signer, payload)
            worker_txs.append(tx)
            worker_updates[w] = (clean, sent)
            arrival = cfg.network.link_delay(w, w2v[w], net_rng)
            inbox_v[w2v[w]].append((tx, payload, arrival))

        # Validators: verify, dedupe per worker, broadcast to the other
        # validators.
        received: dict[DeviceId, dict[DeviceId, tuple[WorkerTransaction, float]]] = {
            v: {} for v in validators
        }

        def deliver_tx(v: DeviceId, tx: WorkerTransaction, payload: bytes, at: float):
            if tx.worker in received[v]:
                return  # duplicate from this worker this round
            if not verify_worker_tx(tx, self.signer, payload):
                return
            received[v][tx.worker] = (tx, at)

        for v in validators:
            for tx, payload, at in sorted(inbox_v[v], key=lambda p: p[0].worker):
                deliver_tx(v, tx, payload, at)
        # Each validator relays the transactions it received directly from
        # its associated workers to every other validator.
        for v in validators:
            for tx, payload, at in sorted(inbox_v[v], key=lambda p: p[0].worker):
                if received[v].get(tx.worker, (None, 0.0))[0] is not tx:
                    continue  # dropped at receipt
                for other in validators:
                    if other != v:
                        deliver_tx(
                            other, tx, payload, at + cfg.network.link_delay(v, other, net_rng)
                        )

        # Validators: reference accuracy, then one vote per verified update.
        # Validators sharing a test buffer see the same accuracy for the
        # same update, so each (update, buffer) pair is evaluated once.
        vad_records: list[VadRecord] = []
        accuracy: dict[tuple[int, int], float] = {}
        inbox_m: dict[DeviceId, list[tuple[ValidatorTransaction, bytes, float]]] = {
            m: [] for m in miners
        }
        txs_by_validator: dict[DeviceId, tuple[WorkerTransaction, ...]] = {}
        for v in validators:
            st = self.state[v]
            vstate = ValidatorState(
                validator=v, threshold=self._threshold_for(v), train=st.train, test=st.test
            )
            if cfg.validation_scheme == SCHEME_LEGACY:
                vstate = reference_from_global(st.g, vstate)
            else:
                vstate = pretrain_one_epoch(
                    st.g, vstate, cfg.train, substream(cfg.master_seed, "batches", v, j)
                )
            ready = max((at for _, at in received[v].values()), default=0.0)
            txs_by_validator[v] = tuple(tx for _, (tx, _) in sorted(received[v].items()))
            for w, (tx, _) in sorted(received[v].items()):
                pair = (id(tx.update), st.test.buffer_id)
                if pair not in accuracy:
                    accuracy[pair] = evaluate(tx.update, st.test)
                vali_reward, vote, vad = validate_by_voting(
                    tx.update, vstate, cfg.unit_reward, accuracy[pair]
                )
                if self._behaves(v, BEHAVIOR_VALIDATOR_FLIP):
                    vote = malicious_flip(vote)
                vad_records.append(
                    VadRecord(
                        round=j,
                        validator=v,
                        worker=w,
                        vad=vad,
                        vote=vote,
                        worker_malicious=w in self.malicious_ids,
                    )
                )
                vtx = ValidatorTransaction(
                    round=j,
                    validator=v,
                    inner=tx,
                    vote=vote,
                    verify_reward=cfg.unit_reward,
                    vali_reward=vali_reward,
                    signature=b"",
                )
                payload = protocol_mod.validator_tx_signing_bytes(vtx)
                vtx = sign_validator_tx(vtx, self.signer, payload)
                arrival = ready + cfg.network.link_delay(v, v2m[v], net_rng)
                inbox_m[v2m[v]].append((vtx, payload, arrival))

        # Miners: verify, dedupe per (validator, worker), broadcast among
        # miners, aggregate, build candidates.
        received_vtx: dict[DeviceId, dict[tuple[DeviceId, DeviceId], tuple[ValidatorTransaction, float]]]
        received_vtx = {m: {} for m in miners}

        def deliver_vtx(m: DeviceId, vtx: ValidatorTransaction, payload: bytes, at: float):
            key = (vtx.validator, vtx.inner.worker)
            if key in received_vtx[m]:
                return
            if not verify_validator_tx(vtx, self.signer, payload):
                return
            received_vtx[m][key] = (vtx, at)

        for m in miners:
            for vtx, payload, at in sorted(inbox_m[m], key=lambda p: (p[0].validator, p[0].inner.worker)):
                deliver_vtx(m, vtx, payload, at)
        # Each miner relays what its associated validators sent it directly.
        for m in miners:
            for vtx, payload, at in sorted(inbox_m[m], key=lambda p: (p[0].validator, p[0].inner.worker)):
                key = (vtx.validator, vtx.inner.worker)
                if received_vtx[m].get(key, (None, 0.0))[0] is not vtx:
                    continue  # dropped at receipt
                for other in miners:
                    if other != m:
                        deliver_vtx(
                            other, vtx, payload, at + cfg.network.link_delay(m, other, net_rng)
                        )

        candidates: dict[DeviceId, Block] = {}
        vtxs_by_miner: dict[DeviceId, tuple[ValidatorTransaction, ...]] = {}
        ready_at: dict[DeviceId, float] = {}
        for m in miners:
            entries = sorted(received_vtx[m].items())
            vtxs = [vtx for _, (vtx, _) in entries]
            vtxs_by_miner[m] = tuple(vtxs)
            ready_at[m] = max((at for _, (_, at) in entries), default=0.0)
            tallies = consensus_mod.aggregate_votes(vtxs)
            validator_rewards: dict[DeviceId, int] = {}
            for vtx in vtxs:
                validator_rewards[vtx.validator] = (
                    validator_rewards.get(vtx.validator, 0)
                    + vtx.verify_reward
                    + vtx.vali_reward
                )
            candidates[m] = consensus_mod.build_candidate(
                miner=m,
                tallies=tallies,
                miner_reward=rewards_mod.miner_reward(len(vtxs), cfg.unit_reward),
                validator_rewards=validator_rewards,
                prev_hash=self.state[m].chain.tip_hash,
                round=j,
                signer=self.signer,
            )
            self._seen_block_hashes_add(candidates[m])

        # Legitimate-block selection.
        choice: dict[DeviceId, Block] = {}
        if cfg.consensus == "pow":
            params = consensus_mod.PowParams(
                difficulty=cfg.pow_difficulty,
                hash_rate={m: self._hash_rate_for(m) for m in miners},
            )
            if cfg.pow_mode == "nonce":
                times = {}
                for m in miners:
                    _, attempts = consensus_mod.mine_nonce(
                        candidates[m].content_hash, cfg.pow_difficulty
                    )
                    times[m] = attempts / self._hash_rate_for(m)
                winner = min(miners, key=lambda m: (times[m], m))
            else:
                winner, _ = consensus_mod.pow_race(
                    params, miners, substream(cfg.master_seed, "pow", cfg.pow_difficulty, j)
                )
            # Losers stop mining and adopt the winner's block on receipt.
            for m in miners:
                choice[m] = candidates[winner]
        else:
            for m in miners:
                propagated = [
                    (
                        candidates[other],
                        ready_at[other] + cfg.network.link_delay(other, m, net_rng),
                    )
                    for other in miners
                    if other != m
                ]
                collected = consensus_mod.collect_blocks(
                    candidates[m],
                    propagated,
                    ready_at[m] + cfg.network.propagated_block_wait,
                    blacklist=self.state[m].ledger.blacklist,
                )
                try:
                    choice[m] = consensus_mod.pos_select(collected, self.state[m].ledger)
                except consensus_mod.NoEligibleBlock:
                    pass
        if not choice:
            return skip("no eligible legitimate block")
        forked = len({b.content_hash for b in choice.values()}) > 1

        # Every device adopts its partition's block, settles rewards and
        # recomputes the global model, averaged once per distinct block.
        def miner_of(d: DeviceId) -> DeviceId:
            role = roles[d]
            if role is Role.MINER:
                return d
            if role is Role.VALIDATOR:
                return v2m[d]
            return v2m[w2v[d]]

        served_as_worker = {d: (roles.get(d) is Role.WORKER) for d in self.state}
        prev_ref_ledger = self.state[ref].ledger
        events: list[tuple[DeviceId, str]] = []
        qualified: tuple[DeviceId, ...] = ()
        legit_ref: Block | None = None
        averaged: dict[bytes, ModelParams] = {}
        for d in self._active_ids(blacklist):
            st = self.state[d]
            block = choice.get(miner_of(d))
            if block is None:
                continue
            try:
                st.chain = append_block(st.chain, block, self.signer, st.ledger.blacklist)
            except BlockRejected as exc:
                logger.warning("round %d: device %s rejected block: %s", j, d.hex()[:8], exc)
                continue
            new_ledger, flagged, newly_blacklisted = apply_block(
                st.ledger, block, served_as_worker
            )
            if d == ref:
                for dev in sorted(flagged):
                    events.append((dev, EVENT_FLAGGED))
                for dev in sorted(self.state):
                    if (
                        served_as_worker.get(dev)
                        and dev not in flagged
                        and prev_ref_ledger.streak_of(dev) > 0
                    ):
                        events.append((dev, EVENT_STREAK_RESET))
                for dev in sorted(newly_blacklisted):
                    events.append((dev, EVENT_BLACKLISTED))
                legit_ref = block
            st.ledger = new_ledger
            good = [t for t in block.tallies if t.positives >= t.negatives]
            if good:
                if block.content_hash not in averaged:
                    averaged[block.content_hash] = fedavg(
                        [(t.update, float(t.tx.train_size)) for t in good]
                    )
                st.g = averaged[block.content_hash]
            if d == ref:
                qualified = tuple(t.worker for t in good)

        ref_state = self.state[ref]
        breakdown = {
            d: {
                src: ref_state.ledger.earned_as(d, src) - prev_ref_ledger.earned_as(d, src)
                for src in rewards_mod.ROLE_SOURCES
            }
            for d in self.state
        }
        metrics = RoundMetrics(
            round=j,
            consensus=cfg.consensus.upper(),
            global_accuracy=evaluate(ref_state.g, self.full_test),
            winner=legit_ref.miner if legit_ref else None,
            winner_malicious=bool(legit_ref and legit_ref.miner in self.malicious_ids),
            forked=forked,
            stakes={d: ref_state.ledger.stake_of(d) for d in self.state},
            vad_records=tuple(vad_records),
            events=tuple(events),
            reward_breakdown=breakdown,
            qualified_workers=qualified,
            roles=roles,
            worker_txs=tuple(worker_txs),
            txs_by_validator=txs_by_validator,
            vtxs_by_miner=vtxs_by_miner,
            worker_updates=worker_updates,
            legitimate_block=legit_ref,
        )
        self.metrics.append(metrics)
        self._check_round_invariants(metrics, prev_ref_ledger, blacklist)
        return metrics

    def _seen_block_hashes_add(self, block: Block):
        if block.content_hash in self._seen_block_hashes:
            raise InvariantViolation(f"duplicate block hash {block.content_hash.hex()}")
        self._seen_block_hashes.add(block.content_hash)

    def _check_round_invariants(
        self,
        metrics: RoundMetrics,
        prev_ref_ledger: StakeLedger,
        blacklist_at_start: frozenset[DeviceId],
    ):
        if metrics.skipped:
            return
        ref_state = self.state[self._reference_id(blacklist_at_start)]
        # Stake never decreases, and this round's total increase matches the
        # block's qualified rewards exactly.
        increase = 0
        for d in self.state:
            delta = ref_state.ledger.stake_of(d) - prev_ref_ledger.stake_of(d)
            if delta < 0:
                raise InvariantViolation(f"stake of {d.hex()[:8]} decreased")
            increase += delta
        if metrics.legitimate_block is not None:
            due = rewards_mod.block_reward_total(
                metrics.legitimate_block, self.config.unit_reward
            )
            if due != increase:
                raise InvariantViolation(
                    f"round {metrics.round}: stake increase {increase} != block rewards {due}"
                )
        if not self.config.network.is_benign:
            return
        # Benign network: every active device must agree bit for bit.
        actives = self._active_ids(blacklist_at_start)
        first = self.state[actives[0]]
        for d in actives[1:]:
            st = self.state[d]
            if st.chain.tip_hash != first.chain.tip_hash:
                raise InvariantViolation(f"round {metrics.round}: chain divergence at {d.hex()[:8]}")
            if (
                st.ledger.stake != first.ledger.stake
                or st.ledger.flag_streak != first.ledger.flag_streak
                or st.ledger.blacklist != first.ledger.blacklist
            ):
                raise InvariantViolation(f"round {metrics.round}: ledger divergence at {d.hex()[:8]}")
            if not np.array_equal(st.g.values, first.g.values):
                raise InvariantViolation(f"round {metrics.round}: model divergence at {d.hex()[:8]}")
        if metrics.forked:
            raise InvariantViolation(
                f"round {metrics.round}: fork under a benign network"
            )

    def run(self, progress: Callable[[RoundMetrics], None] | None = None) -> list[RoundMetrics]:
        for _ in range(self.config.rounds):
            m = self.run_round()
            if progress:
                progress(m)
        for st in self.state.values():
            if not st.chain.verify_links():
                raise InvariantViolation(
                    f"final chain of {st.device.id.hex()[:8]} fails hash-link verification"
                )
        return self.metrics

    @property
    def vad_records(self) -> list[VadRecord]:
        return [rec for m in self.metrics for rec in m.vad_records]


class VanillaRun:
    """Plain federated learning: everyone trains, everything averages in."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.devices = make_devices(config.n_devices)
        self.task = _build_task(config)
        if config.arch == "mlp":
            self.arch_id = mlp_arch(self.task.dim, config.mlp_hidden, self.task.num_classes)
        else:
            self.arch_id = softmax_arch(self.task.dim, self.task.num_classes)
        shards = shard_dataset(
            self.task,
            [d.id for d in self.devices],
            substream(config.master_seed, "shard"),
            sharding=config.sharding,
            validator_test=config.validator_test,
        )
        self.train_shards = {d.id: shards[d.id][0] for d in self.devices}
        self.g = init_global_model(self.arch_id, derive_seed(config.master_seed, "init"))
        self.malicious_ids = frozenset(self.devices[i].id for i in config.malicious)
        self.full_test = DataShard(self.task.test_x, self.task.test_y, shard_of=b"")
        self.round_no = 0
        self.metrics: list[RoundMetrics] = []

    def run_round(self) -> RoundMetrics:
        cfg = self.config
        j = self.round_no + 1
        self.round_no = j
        updates = []
        worker_updates = {}
        for dev in self.devices:
            d = dev.id
            shard = self.train_shards[d]
            clean = local_train(
                self.g, shard, cfg.train, substream(cfg.master_seed, "batches", d, j)
            )
            sent = clean
            if d in self.malicious_ids and BEHAVIOR_WORKER_NOISE in cfg.malicious_behaviors:
                sent = inject_gaussian_noise(
                    clean, cfg.noise_variance, substream(cfg.master_seed, "noise", d, j)
                )
            updates.append((sent, float(len(shard))))
            worker_updates[d] = (clean, sent)
        self.g = fedavg(updates)
        metrics = RoundMetrics(
            round=j,
            consensus="VFL",
            global_accuracy=evaluate(self.g, self.full_test),
            worker_updates=worker_updates,
            roles={d.id: Role.WORKER for d in self.devices},
        )
        self.metrics.append(metrics)
        return metrics

    def run(self, progress: Callable[[RoundMetrics], None] | None = None) -> list[RoundMetrics]:
        for _ in range(self.config.rounds):
            m = self.run_round()
            if progress:
                progress(m)
        return self.metrics

    @property
    def vad_records(self) -> list[VadRecord]:
        return []


# --- output files -------------------------------------------------------------


@dataclass
class RunResult:
    config: SimConfig
    metrics: list[RoundMetrics]
    driver: Simulation | VanillaRun
    out_dir: Path | None

    @property
    def final_accuracy(self) -> float:
        return self.metrics[-1].global_accuracy if self.metrics else float("nan")


def _fmt_float(x: float) -> str:
    return repr(float(x))


def write_rounds_csv(metrics: Sequence[RoundMetrics], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUNDS_CSV_FIELDS)
        for m in metrics:
            writer.writerow(
                (
                    m.round,
                    m.consensus,
                    m.winner.hex() if m.winner else "",
                    int(m.winner_malicious),
                    int(m.forked),
                    _fmt_float(m.global_accuracy),
                )
            )


def write_stake_csv(
    metrics: Sequence[RoundMetrics], malicious_ids: frozenset[DeviceId], path
) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STAKE_CSV_FIELDS)
        for m in metrics:
            for d in sorted(m.stakes):
                writer.writerow((m.round, d.hex(), m.stakes[d], int(d in malicious_ids)))


def write_events_csv(metrics: Sequence[RoundMetrics], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENTS_CSV_FIELDS)
        for m in metrics:
            for device, event in m.events:
                writer.writerow((m.round, device.hex(), event))


def code_fingerprint() -> str:
    """SHA-256 over the package's source files, for the run manifest."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(
    config: SimConfig,
    mode: str,
    out_dir: Path,
    preset: str | None = None,
) -> None:
    devices = make_devices(config.n_devices)
    manifest = {
        "mode": mode,
        "preset": preset,
        "config": config.to_dict(),
        "hash_algo": HASH_NAME,
        "code_sha256": code_fingerprint(),
        "device_ids": [d.id.hex() for d in devices],
        "malicious_ids": [devices[i].id.hex() for i in sorted(config.malicious)],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def write_outputs(result: RunResult, out_dir, preset: str | None = None) -> Path:
    """Emit rounds/stake/vad/events CSVs, the chain dump and the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    is_vanilla = isinstance(result.driver, VanillaRun)
    write_rounds_csv(result.metrics, out_dir / "rounds.csv")
    write_stake_csv(result.metrics, frozenset(result.driver.malicious_ids), out_dir / "stake.csv")
    write_events_csv(result.metrics, out_dir / "events.csv")
    write_vad_csv(result.driver.vad_records, out_dir / "vad.csv")
    if not is_vanilla:
        ref = result.driver._reference_id(result.driver._unanimous_blacklist())
        (out_dir / "chain.jsonl").write_text(
            chain_to_jsonl(result.driver.state[ref].chain)
        )
    write_manifest(result.config, "vanilla" if is_vanilla else "vbfl", out_dir, preset)
    return out_dir


def run_simulation(
    config: SimConfig,
    out_dir=None,
    preset: str | None = None,
    progress: Callable[[RoundMetrics], None] | None = None,
) -> RunResult:
    """Run the full protocol for config.rounds rounds and emit metric files."""
    sim = Simulation(config)
    metrics = sim.run(progress)
    result = RunResult(config=config, metrics=metrics, driver=sim, out_dir=None)
    if out_dir is not None:
        result.out_dir = write_outputs(result, out_dir, preset)
    return result


def run_vanilla_fl(
    config: SimConfig,
    out_dir=None,
    preset: str | None = None,
    progress: Callable[[RoundMetrics], None] | None = None,
) -> RunResult:
    """Run the no-validation baseline with every device training each round."""
    run = VanillaRun(config)
    metrics = run.run(progress)
    result = RunResult(config=config, metrics=metrics, driver=run, out_dir=None)
    if out_dir is not None:
        result.out_dir = write_outputs(result, out_dir, preset)
    return result
