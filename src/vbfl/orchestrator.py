"""Round-by-round protocol driver, role rotation and the plain-FL baseline.

A config names its driver: ``consensus="vfl"`` runs plain FL
(:class:`VanillaRun`), ``"pos"`` and ``"pow"`` the protocol
(:class:`Simulation`). :func:`run_simulation` is the one entry point that
maps a config to its driver.

One communication round of :class:`Simulation` runs these phases in order,
each handing the next its data explicitly:

1. roles and association: role assignment among non-blacklisted devices,
   worker->validator and validator->miner links;
2. train: local training (noise injection for malicious workers), signed
   worker transactions, gossip among validators;
3. validate: a reference model per validator, one vote per verified update
   (vote flipping for malicious validators), signed validator transactions,
   gossip among miners;
4. mine: vote aggregation once per distinct stored vote set, and one
   candidate block per miner;
5. select: the legitimate block by stake rank or mining race;
6. settle: chain append, reward/flag bookkeeping and the new global model,
   once per distinct (replica, block) pair, shared by its devices;
7. metrics: the round's observables and the invariant checks.

Everything is driven by named substreams of the master seed, so runs are
bit-reproducible and changing one noise source never shifts another.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field, fields, is_dataclass
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
    local_train,  # unused here, but perfbench/tracer.py wraps this module's name
    local_train_many,
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
    pretrain_many,
    pretrain_one_epoch,  # unused here, but perfbench/tracer.py wraps this module's name
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
    kick_r: int = 6
    unit_reward: int = 1
    train: TrainSpec = TrainSpec()
    consensus: str = "pos"
    pow_difficulty: int = 1
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
        if self.kick_r < 1:
            fail("kick_r", "must be >= 1")
        if self.unit_reward < 1:
            fail("unit_reward", "must be >= 1")
        if self.consensus not in ("pos", "pow", "vfl"):
            fail("consensus", "must be 'pos', 'pow' or 'vfl'")
        if self.pow_difficulty < 0:
            fail("pow_difficulty", "must be >= 0")
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
            classes = self.dataset.classes
            _check_rows(
                self, classes * self.dataset.train_per_class, classes * self.dataset.test_per_class
            )
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
        return _to_dict(self)

    @staticmethod
    def from_dict(data: Mapping) -> "SimConfig":
        cfg = _from_dict(SimConfig, data)
        cfg.validate()
        return cfg


def _check_rows(config: SimConfig, train_rows: int, test_rows: int) -> None:
    """Every device needs a training row, and a test row of its own under
    ``validator_test="shard"``."""
    n = config.n_devices
    if train_rows < n:
        raise ConfigError(f"dataset: {train_rows} training rows for {n} devices")
    if config.validator_test == "shard" and test_rows < n:
        raise ConfigError(
            f"dataset: {test_rows} test rows for {n} devices under validator_test='shard'"
        )


# The (de)serialisers walk the dataclass fields, so a new knob needs no
# serialiser change. JSON form: nested sections as objects, tuples as lists,
# an unlimited propagated_block_wait as "unlimited".


def _to_dict(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif f.name == "propagated_block_wait" and math.isinf(value):
            value = "unlimited"
        out[f.name] = value
    return out


def _from_dict(cls, data: Mapping, section: str = ""):
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(data) - set(defaults))
    if unknown:
        prefix = section + "." if section else ""
        raise ConfigError(f"{prefix}{unknown[0]}: unknown key")
    kwargs = {}
    for key, value in data.items():
        default = defaults[key]
        if is_dataclass(default):
            value = _from_dict(type(default), value, key)
        elif isinstance(default, tuple):
            value = tuple(value)
        elif key == "propagated_block_wait":
            value = math.inf if value in ("unlimited", None) else float(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:  # TrainSpec checks its own values
        raise ConfigError(f"{section}: {exc}") from None


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

    def split(x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> list[DataShard]:
        return [DataShard(x[r], y[r], shard_of=d) for d, r in zip(ids, _chunks(rows, n))]

    train = split(task.train_x, task.train_y, order)
    if validator_test == "shard":
        test = split(task.test_x, task.test_y, rng.permutation(task.test_x.shape[0]))
    else:
        shared_test = DataShard(task.test_x, task.test_y)
        test = [shared_test.view(d) for d in ids]
    return dict(zip(ids, zip(train, test)))


def _chunks(order: np.ndarray, n: int) -> list[np.ndarray]:
    """n contiguous slices of order; the remainder adds one row each to the first."""
    base, rem = divmod(len(order), n)
    bounds = np.cumsum([0] + [base + (k < rem) for k in range(n)])
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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
    """What one round produced, as seen by the lowest-id active replica.

    The CSVs take subsets of this. The round's block is the record of its
    traffic: every tallied worker transaction with its votes, and the duty
    rewards. The messages themselves live only in the round's inboxes.
    """

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
    roles: dict[DeviceId, Role] = field(default_factory=dict)
    legitimate_block: Block | None = None


@dataclass(frozen=True)
class Replica:
    """A chain with the ledger and global model it means (see :func:`replay`).
    Devices on the same tip share one; nothing edits it in place."""

    chain: Blockchain
    ledger: StakeLedger
    g: ModelParams


@dataclass
class DeviceState:
    """One device's data and the shared replica of the chain tip it is on."""

    train: DataShard
    test: DataShard
    replica: Replica


def extend(
    replica: Replica, block: Block, workers: Sequence[DeviceId], signer: Signer
) -> tuple[Replica, list[tuple[DeviceId, str]]]:
    """The replica after a block of the round with these sorted workers, and
    its flags, streak resets and blacklistings; the model averages the
    qualified tallies, if any. Raises BlockRejected if the block may not append."""
    chain = append_block(replica.chain, block, signer, replica.ledger.blacklist)
    ledger, flagged, newly_blacklisted = apply_block(replica.ledger, block, workers)
    good = [t for t in block.tallies if t.positives >= t.negatives]
    g = fedavg([(t.update, float(t.tx.train_size)) for t in good]) if good else replica.g
    events = [(dev, EVENT_FLAGGED) for dev in sorted(flagged)]
    events += [
        (dev, EVENT_STREAK_RESET) for dev in workers
        if dev not in flagged and replica.ledger.streak_of(dev) > 0
    ]
    events += [(dev, EVENT_BLACKLISTED) for dev in sorted(newly_blacklisted)]
    return Replica(chain, ledger, g), events


def replay(
    genesis: Replica,
    blocks: Sequence[Block],
    workers_by_round: Mapping[int, Sequence[DeviceId]],
    signer: Signer,
) -> Replica:
    """genesis extended by each block in turn, with its round's sorted workers."""
    replica = genesis
    for block in blocks:
        replica, _ = extend(replica, block, workers_by_round[block.round], signer)
    return replica


@dataclass(frozen=True)
class _Plan:
    """Who does what in one round, fixed before any message moves."""

    round: int
    roles: dict[DeviceId, Role]
    workers: list[DeviceId]
    validators: list[DeviceId]
    miners: list[DeviceId]
    w2v: dict[DeviceId, DeviceId]
    v2m: dict[DeviceId, DeviceId]

    def miner_of(self, d: DeviceId) -> DeviceId:
        """The miner whose block d's partition adopts."""
        role = self.roles[d]
        if role is Role.MINER:
            return d
        if role is Role.VALIDATOR:
            return self.v2m[d]
        return self.v2m[self.w2v[d]]


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
    params = {f.name: getattr(ds, f.name) for f in fields(ds)}
    for key in ("kind", "seed", "idx_dir"):
        del params[key]
    return make_blobs_task(seed=seed, **params)


def _make_signer(config: SimConfig, devices: Sequence[Device]) -> Signer:
    signer = HmacSigner() if config.signature_scheme == "hmac" else StubSigner()
    for dev in devices:
        signer.register(dev.id, dev.secret)
    return signer


class _World:
    """What both drivers build from a config: devices, data shards and g0.

    ``full_test`` is the whole test set, read for the global accuracy. Under
    ``validator_test="full"`` it views the one buffer every device's test
    shard views, so the test set is held once.
    """

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.devices = make_devices(config.n_devices)
        task = _build_task(config)
        _check_rows(config, task.train_size, task.test_x.shape[0])
        if config.arch == "mlp":
            arch_id = mlp_arch(task.dim, config.mlp_hidden, task.num_classes)
        else:
            arch_id = softmax_arch(task.dim, task.num_classes)
        self.shards = shard_dataset(
            task,
            [d.id for d in self.devices],
            substream(config.master_seed, "shard"),
            sharding=config.sharding,
            validator_test=config.validator_test,
        )
        self.g0 = init_global_model(arch_id, derive_seed(config.master_seed, "init"))
        self.malicious_ids = frozenset(self.devices[i].id for i in config.malicious)
        if config.validator_test == "full":
            self.full_test = self.shards[self.devices[0].id][1].view(b"")
        else:
            self.full_test = DataShard(task.test_x, task.test_y, shard_of=b"")
        self.round_no = 0
        self.metrics: list[RoundMetrics] = []

    def _behaves(self, device: DeviceId, behavior: str) -> bool:
        return (
            device in self.malicious_ids
            and behavior in self.config.malicious_behaviors
        )

    def _local_updates(
        self, jobs: Sequence[tuple[DeviceId, ModelParams, DataShard]], round_no: int
    ) -> list[ModelParams]:
        """The update each (device, start, shard) sends: its trained model,
        noise-distorted when the device is a malicious worker. All train in
        one ``local_train_many`` call."""
        cfg = self.config
        updates = local_train_many(
            [g for _, g, _ in jobs],
            [train for _, _, train in jobs],
            cfg.train,
            [substream(cfg.master_seed, "batches", d, round_no) for d, _, _ in jobs],
        )
        for k, (d, _, _) in enumerate(jobs):
            if self._behaves(d, BEHAVIOR_WORKER_NOISE):
                noise = substream(cfg.master_seed, "noise", d, round_no)
                updates[k] = inject_gaussian_noise(updates[k], cfg.noise_variance, noise)
        return updates

    def run(self, progress: Callable[[RoundMetrics], None] | None = None) -> list[RoundMetrics]:
        for _ in range(self.config.rounds):
            m = self.run_round()
            if progress:
                progress(m)
        return self.metrics

    @property
    def vad_records(self) -> list[VadRecord]:
        return [rec for m in self.metrics for rec in m.vad_records]


# A gossip message: the message, the signing bytes its sender encoded once
# (receivers verify the signature over the bytes they received), and its
# arrival time.
_Message = tuple[object, bytes, float]


class Simulation(_World):
    """Mutable state of one run plus the round step."""

    def __init__(self, config: SimConfig):
        if config.consensus == "vfl":
            raise ConfigError("consensus: 'vfl' names plain FL, not the protocol")
        super().__init__(config)
        self.signer = _make_signer(config, self.devices)
        ledger = StakeLedger(unit_reward=config.unit_reward, kick_r=config.kick_r)
        self.genesis = Replica(Blockchain((make_genesis(self.g0),)), ledger, self.g0)
        self.state: dict[DeviceId, DeviceState] = {
            dev.id: DeviceState(*self.shards[dev.id], self.genesis) for dev in self.devices
        }
        self._seen_block_hashes = {self.genesis.chain.tip_hash}

    # -- helpers ------------------------------------------------------------

    def _unanimous_blacklist(self) -> frozenset[DeviceId]:
        """Devices every still-participating replica has blacklisted.

        Blacklisted devices stop adopting blocks, so their replicas go
        stale and must not weigh in; iterate to the fixed point.
        """
        out: frozenset[DeviceId] = frozenset()
        while True:
            views = [st.replica.ledger.blacklist for d, st in self.state.items() if d not in out]
            agreed = frozenset.intersection(*map(frozenset, views)) if views else out
            if agreed == out:
                return out
            out = agreed

    def _active_ids(self, blacklist: frozenset[DeviceId]) -> list[DeviceId]:
        return [d.id for d in self.devices if d.id not in blacklist]

    def _gossip(
        self,
        inbox: dict[DeviceId, list[_Message]],
        key: Callable[[object], object],
        verify: Callable[[object, Signer, bytes], bool],
        peers: Sequence[DeviceId],
        net_rng: np.random.Generator,
    ) -> dict[DeviceId, list[_Message]]:
        """One hop of signed messages among peers: deliver, dedupe, relay.

        Every peer first takes its direct messages in key order, storing the
        first copy per key that verifies. Then every peer relays each copy it
        stored to every other peer, each relay drawing a link delay from
        net_rng in peer order, and a receiver stores the first copy per key
        that verifies. Returns each peer's stored (message, signing bytes,
        arrival) in key order.

        Each message's key is computed once. A verdict is a pure function of
        the (message, signing bytes) pair, so each pair is verified once per
        hop: a relayed copy is one its sender stored, so already verified.
        """
        verdicts: dict[tuple[int, int], bool] = {}  # keys: ids of the inboxes' objects

        def verified(msg, payload: bytes) -> bool:
            pair = (id(msg), id(payload))
            if pair not in verdicts:
                verdicts[pair] = verify(msg, self.signer, payload)
            return verdicts[pair]

        stored: dict[DeviceId, dict] = {p: {} for p in peers}
        direct = {
            p: sorted(((key(msg), msg, payload, at) for msg, payload, at in inbox[p]),
                      key=lambda item: item[0])
            for p in peers
        }
        for p in peers:
            for k, msg, payload, at in direct[p]:
                if k not in stored[p] and verified(msg, payload):
                    stored[p][k] = (msg, payload, at)
        link_delay = self.config.network.link_delay
        for p in peers:
            others = [o for o in peers if o != p]
            for k, msg, payload, at in direct[p]:
                if stored[p].get(k, (None,))[0] is not msg:
                    continue  # dropped at receipt
                arrivals = [at + link_delay(p, o, net_rng) for o in others]
                if verified(msg, payload):
                    for o, arrival in zip(others, arrivals):
                        if k not in stored[o]:
                            stored[o][k] = (msg, payload, arrival)
        return {p: [stored[p][k] for k in sorted(stored[p])] for p in peers}

    # -- the round ------------------------------------------------------------

    def run_round(self) -> RoundMetrics:
        cfg = self.config
        j = self.round_no = self.round_no + 1
        blacklist = self._unanimous_blacklist()
        actives = self._active_ids(blacklist)
        ref = actives[0] if actives else sorted(self.state)[0]
        if not actives:
            return self._skip(j, ref, "all devices blacklisted")
        plan = self._plan(j, blacklist)
        if plan is None:
            return self._skip(j, ref, "no validators or miners available")
        net_rng = substream(cfg.master_seed, "net", j)

        inbox_v = self._train(plan, net_rng)
        received = self._gossip(
            inbox_v, lambda tx: tx.worker, verify_worker_tx, plan.validators, net_rng
        )
        vad_records, inbox_m = self._validate(plan, received, net_rng)
        received_vtx = self._gossip(
            inbox_m, lambda vtx: (vtx.validator, vtx.inner.worker), verify_validator_tx,
            plan.miners, net_rng,
        )
        candidates, ready_at = self._mine(plan, received, received_vtx)
        choice = self._select(plan, candidates, ready_at, net_rng)
        if not choice:
            return self._skip(j, ref, "no eligible legitimate block")

        prev_ref_ledger = self.state[ref].replica.ledger
        events, legit_ref = self._settle(plan, choice, actives, ref)
        ref_ledger = self.state[ref].replica.ledger
        metrics = RoundMetrics(
            round=j,
            consensus=cfg.consensus.upper(),
            global_accuracy=evaluate(self.state[ref].replica.g, self.full_test),
            winner=legit_ref.miner if legit_ref else None,
            winner_malicious=bool(legit_ref and legit_ref.miner in self.malicious_ids),
            forked=len({b.content_hash for b in choice.values()}) > 1,
            stakes={d: ref_ledger.stake_of(d) for d in self.state},
            vad_records=tuple(vad_records),
            events=tuple(events),
            reward_breakdown={
                d: {
                    src: ref_ledger.earned_as(d, src) - prev_ref_ledger.earned_as(d, src)
                    for src in rewards_mod.ROLE_SOURCES
                }
                for d in self.state
            },
            roles=plan.roles,
            legitimate_block=legit_ref,
        )
        self.metrics.append(metrics)
        self._check_round_invariants(metrics, prev_ref_ledger, actives)
        return metrics

    def _skip(self, j: int, ref: DeviceId, reason: str) -> RoundMetrics:
        logger.warning("round %d skipped: %s", j, reason)
        metrics = RoundMetrics(
            round=j,
            consensus=self.config.consensus.upper(),
            global_accuracy=evaluate(self.state[ref].replica.g, self.full_test),
            skipped=True,
            skip_reason=reason,
            stakes={d: self.state[ref].replica.ledger.stake_of(d) for d in self.state},
        )
        self.metrics.append(metrics)
        return metrics

    def _plan(self, j: int, blacklist: frozenset[DeviceId]) -> _Plan | None:
        """Roles and association; None when no validator or miner is left."""
        cfg = self.config
        roles = assign_roles(
            j, list(self.state), cfg, substream(cfg.master_seed, "roles", j), excluded=blacklist
        )
        workers, validators, miners = (
            sorted(d for d, r in roles.items() if r is role) for role in Role
        )
        if not validators or not miners:
            return None
        w2v, v2m = associate(workers, validators, miners, substream(cfg.master_seed, "assoc", j))
        return _Plan(j, roles, workers, validators, miners, w2v, v2m)

    def _train(self, plan: _Plan, net_rng: np.random.Generator):
        """Workers train, distort if malicious, sign and send to their
        validator; returns the validators' inbox."""
        cfg = self.config
        inbox: dict[DeviceId, list[_Message]] = {v: [] for v in plan.validators}
        jobs = [(w, self.state[w].replica.g, self.state[w].train) for w in plan.workers]
        for (w, _, train), update in zip(jobs, self._local_updates(jobs, plan.round)):
            tx = WorkerTransaction(
                round=plan.round,
                worker=w,
                update=update,
                expected_reward=cfg.train.epochs * len(train) * cfg.unit_reward,
                epochs=cfg.train.epochs,
                train_size=len(train),
                signature=b"",
            )
            payload = protocol_mod.worker_tx_signing_bytes(tx)
            tx = sign_worker_tx(tx, self.signer, payload)
            v = plan.w2v[w]
            inbox[v].append((tx, payload, cfg.network.link_delay(w, v, net_rng)))
        return inbox

    def _validate(self, plan: _Plan, received, net_rng: np.random.Generator):
        """Each validator votes on every update it stored and sends the
        votes to its miner, signed over the worker bytes it received.

        Validators sharing a test buffer see the same accuracy for the same
        update, so each (update, buffer) pair is evaluated once.
        """
        cfg = self.config
        vad_records: list[VadRecord] = []
        accuracy: dict[tuple[int, int], float] = {}
        inbox: dict[DeviceId, list[_Message]] = {m: [] for m in plan.miners}
        references = self._references(plan)
        for v in plan.validators:
            st = self.state[v]
            vstate = references[v]
            ready = max((at for _, _, at in received[v]), default=0.0)
            for tx, tx_bytes, _ in received[v]:
                pair = (id(tx.update), st.test.buffer_id)
                if pair not in accuracy:
                    accuracy[pair] = evaluate(tx.update, st.test)
                vote, vad = validate_by_voting(tx.update, vstate, accuracy[pair])
                if self._behaves(v, BEHAVIOR_VALIDATOR_FLIP):
                    vote = malicious_flip(vote)
                vad_records.append(
                    VadRecord(
                        round=plan.round,
                        validator=v,
                        worker=tx.worker,
                        vad=vad,
                        vote=vote,
                        worker_malicious=tx.worker in self.malicious_ids,
                    )
                )
                vtx = ValidatorTransaction(
                    round=plan.round,
                    validator=v,
                    inner=tx,
                    vote=vote,
                    verify_reward=cfg.unit_reward,
                    vali_reward=cfg.unit_reward,
                    signature=b"",
                )
                payload = protocol_mod.validator_tx_signing_bytes(vtx, tx_bytes)
                vtx = sign_validator_tx(vtx, self.signer, payload)
                m = plan.v2m[v]
                inbox[m].append((vtx, payload, ready + cfg.network.link_delay(v, m, net_rng)))
        return vad_records, inbox

    def _references(self, plan: _Plan) -> dict[DeviceId, ValidatorState]:
        """Every validator's reference model for its votes this round; under
        the voting scheme all train in one stacked call."""
        cfg = self.config
        starts = [self.state[v].replica.g for v in plan.validators]
        states = [
            ValidatorState(v, cfg.vh, train=self.state[v].train, test=self.state[v].test)
            for v in plan.validators
        ]
        if cfg.validation_scheme == SCHEME_LEGACY:
            refs = [reference_from_global(g, vstate) for g, vstate in zip(starts, states)]
        else:
            rngs = [substream(cfg.master_seed, "batches", v, plan.round) for v in plan.validators]
            refs = pretrain_many(starts, states, cfg.train, rngs)
        return dict(zip(plan.validators, refs))

    def _mine(self, plan: _Plan, received, received_vtx):
        """Every miner aggregates the votes it stored into a candidate block.

        Miners that stored the same votes build on one tally set, one
        validator-reward sum and one encoding of the tally section. That
        encoding reuses the worker bytes the validators received, and lives
        only for the round.
        """
        tx_bytes = {id(tx): b for v in plan.validators for tx, b, _ in received[v]}
        shared: dict[tuple[int, ...], tuple] = {}  # keys: ids of the stored votes
        candidates: dict[DeviceId, Block] = {}
        ready_at: dict[DeviceId, float] = {}
        for m in plan.miners:
            ready_at[m] = max((at for _, _, at in received_vtx[m]), default=0.0)
            votes = tuple(id(vtx) for vtx, _, _ in received_vtx[m])
            if votes not in shared:
                vtxs = [vtx for vtx, _, _ in received_vtx[m]]
                tallies = consensus_mod.aggregate_votes(vtxs)
                validator_rewards: dict[DeviceId, int] = {}
                for vtx in vtxs:
                    validator_rewards[vtx.validator] = (
                        validator_rewards.get(vtx.validator, 0)
                        + vtx.verify_reward
                        + vtx.vali_reward
                    )
                section = protocol_mod.encode_tallies(
                    tallies, [tx_bytes[id(t.tx)] for t in tallies]
                )
                shared[votes] = (tallies, validator_rewards, len(vtxs), section)
            tallies, validator_rewards, n_votes, section = shared[votes]
            candidates[m] = consensus_mod.build_candidate(
                miner=m,
                tallies=tallies,
                miner_reward=rewards_mod.miner_reward(n_votes, self.config.unit_reward),
                validator_rewards=validator_rewards,
                prev_hash=self.state[m].replica.chain.tip_hash,
                round=plan.round,
                signer=self.signer,
                tally_section=section,
            )
            self._seen_block_hashes_add(candidates[m])
        return candidates, ready_at

    def _select(
        self,
        plan: _Plan,
        candidates: dict[DeviceId, Block],
        ready_at: dict[DeviceId, float],
        net_rng: np.random.Generator,
    ) -> dict[DeviceId, Block]:
        """The legitimate block each miner adopts; a miner may adopt none."""
        cfg = self.config
        if cfg.consensus == "pow":
            winner, _ = consensus_mod.pow_race(
                cfg.pow_difficulty,
                plan.miners,
                substream(cfg.master_seed, "pow", cfg.pow_difficulty, plan.round),
            )
            # Losers stop mining and adopt the winner's block on receipt.
            return {m: candidates[winner] for m in plan.miners}
        choice: dict[DeviceId, Block] = {}
        for m in plan.miners:
            propagated = [
                (candidates[other], ready_at[other] + cfg.network.link_delay(other, m, net_rng))
                for other in plan.miners
                if other != m
            ]
            collected = consensus_mod.collect_blocks(
                candidates[m],
                propagated,
                ready_at[m] + cfg.network.propagated_block_wait,
                blacklist=self.state[m].replica.ledger.blacklist,
            )
            try:
                choice[m] = consensus_mod.pos_select(collected, self.state[m].replica.ledger)
            except consensus_mod.NoEligibleBlock:
                pass
        return choice

    def _settle(
        self,
        plan: _Plan,
        choice: dict[DeviceId, Block],
        actives: Sequence[DeviceId],
        ref: DeviceId,
    ) -> tuple[list[tuple[DeviceId, str]], Block | None]:
        """Every active device adopts its partition's block. Each distinct
        (replica, block) pair is settled once, a rejection included, and its
        devices move to the result. Returns the reference device's events and block.
        """
        # Keys are looked up only for replicas that predate the loop: ids cannot clash.
        settled: dict[tuple[int, bytes], tuple[Replica, list] | BlockRejected] = {}
        events: list[tuple[DeviceId, str]] = []
        legit_ref: Block | None = None
        for d in actives:
            st = self.state[d]
            block = choice.get(plan.miner_of(d))
            if block is None:
                continue
            key = (id(st.replica), block.content_hash)
            if key not in settled:
                try:
                    settled[key] = extend(st.replica, block, plan.workers, self.signer)
                except BlockRejected as exc:
                    settled[key] = exc
            if isinstance(settled[key], BlockRejected):
                logger.warning(
                    "round %d: device %s rejected block: %s", plan.round, d.hex()[:8], settled[key]
                )
                continue
            st.replica, block_events = settled[key]
            if d == ref:
                events, legit_ref = block_events, block
        return events, legit_ref

    def _seen_block_hashes_add(self, block: Block):
        if block.content_hash in self._seen_block_hashes:
            raise InvariantViolation(f"duplicate block hash {block.content_hash.hex()}")
        self._seen_block_hashes.add(block.content_hash)

    def _check_round_invariants(
        self,
        metrics: RoundMetrics,
        prev_ref_ledger: StakeLedger,
        actives: Sequence[DeviceId],
    ):
        ref_ledger = self.state[actives[0]].replica.ledger
        # Stake never decreases, and this round's total increase matches the
        # block's qualified rewards exactly.
        increase = 0
        for d in self.state:
            delta = ref_ledger.stake_of(d) - prev_ref_ledger.stake_of(d)
            if delta < 0:
                raise InvariantViolation(f"stake of {d.hex()[:8]} decreased")
            increase += delta
        if metrics.legitimate_block is not None:
            due = rewards_mod.block_reward_total(
                metrics.legitimate_block, self.config.unit_reward, prev_ref_ledger.blacklist
            )
            if due != increase:
                raise InvariantViolation(
                    f"round {metrics.round}: stake increase {increase} != block rewards {due}"
                )
        if not self.config.network.is_benign:
            return
        # Benign network: every active device is on one tip, so on one replica.
        replicas = len({id(self.state[d].replica) for d in actives})
        if replicas != 1:
            raise InvariantViolation(f"round {metrics.round}: {replicas} replicas among actives")
        if metrics.forked:
            raise InvariantViolation(f"round {metrics.round}: fork under a benign network")

    def run(self, progress: Callable[[RoundMetrics], None] | None = None) -> list[RoundMetrics]:
        """All rounds; then each distinct replica must equal its chain's replay."""
        super().run(progress)
        workers = {
            m.round: sorted(d for d, r in m.roles.items() if r is Role.WORKER)
            for m in self.metrics
        }
        for replica in {id(st.replica): st.replica for st in self.state.values()}.values():
            blocks = replica.chain.blocks[1:]
            try:
                same = replay(self.genesis, blocks, workers, self.signer) == replica
            except BlockRejected:
                same = False
            if not same:
                raise InvariantViolation(f"replica {replica.chain.tip_hash.hex()[:8]} != replay")
        return self.metrics


class VanillaRun(_World):
    """Plain federated learning: everyone trains, everything averages in."""

    def __init__(self, config: SimConfig):
        if config.consensus != "vfl":
            raise ConfigError(f"consensus: {config.consensus!r} names the protocol, not plain FL")
        super().__init__(config)
        self.g = self.g0

    def run_round(self) -> RoundMetrics:
        j = self.round_no = self.round_no + 1
        jobs = [(d.id, self.g, self.shards[d.id][0]) for d in self.devices]
        updates = self._local_updates(jobs, j)
        self.g = fedavg([(u, float(len(train))) for u, (_, _, train) in zip(updates, jobs)])
        metrics = RoundMetrics(
            round=j,
            consensus=self.config.consensus.upper(),
            global_accuracy=evaluate(self.g, self.full_test),
            roles={d.id: Role.WORKER for d in self.devices},
        )
        self.metrics.append(metrics)
        return metrics


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


def _write_csv(path, header: Sequence[str], rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_rounds_csv(metrics: Sequence[RoundMetrics], path) -> None:
    _write_csv(path, ROUNDS_CSV_FIELDS, (
        (
            m.round,
            m.consensus,
            m.winner.hex() if m.winner else "",
            int(m.winner_malicious),
            int(m.forked),
            repr(float(m.global_accuracy)),
        )
        for m in metrics
    ))


def write_stake_csv(
    metrics: Sequence[RoundMetrics], malicious_ids: frozenset[DeviceId], path
) -> None:
    _write_csv(path, STAKE_CSV_FIELDS, (
        (m.round, d.hex(), m.stakes[d], int(d in malicious_ids))
        for m in metrics
        for d in sorted(m.stakes)
    ))


def write_events_csv(metrics: Sequence[RoundMetrics], path) -> None:
    _write_csv(path, EVENTS_CSV_FIELDS, (
        (m.round, device.hex(), event) for m in metrics for device, event in m.events
    ))


def code_fingerprint() -> str:
    """SHA-256 over the package's source files, for the run manifest."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(config: SimConfig, out_dir: Path, preset: str | None = None) -> None:
    devices = make_devices(config.n_devices)
    manifest = {
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
    write_rounds_csv(result.metrics, out_dir / "rounds.csv")
    write_stake_csv(result.metrics, frozenset(result.driver.malicious_ids), out_dir / "stake.csv")
    write_events_csv(result.metrics, out_dir / "events.csv")
    write_vad_csv(result.driver.vad_records, out_dir / "vad.csv")
    if isinstance(result.driver, Simulation):
        ref = result.driver._active_ids(result.driver._unanimous_blacklist())[0]
        (out_dir / "chain.jsonl").write_text(
            chain_to_jsonl(result.driver.state[ref].replica.chain)
        )
    write_manifest(result.config, out_dir, preset)
    return out_dir


def run_simulation(
    config: SimConfig,
    out_dir=None,
    preset: str | None = None,
    progress: Callable[[RoundMetrics], None] | None = None,
) -> RunResult:
    """Run the driver the config names for config.rounds rounds; emit metric files."""
    driver = (VanillaRun if config.consensus == "vfl" else Simulation)(config)
    result = RunResult(config, driver.run(progress), driver, None)
    if out_dir is not None:
        result.out_dir = write_outputs(result, out_dir, preset)
    return result
