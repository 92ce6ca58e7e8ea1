"""Round-by-round protocol driver, role rotation and the plain-FL baseline.

A config names its driver: ``consensus="vfl"`` runs plain FL
(:class:`VanillaRun`), ``"pos"`` and ``"pow"`` the protocol
(:class:`Simulation`). :func:`run_simulation` is the one entry point that
maps a config to its driver.

One communication round of :class:`Simulation` runs these phases in order,
each handing the next its data explicitly:

1. roles and association: the workers, validators and miners drawn among
   non-blacklisted devices, worker->validator and validator->miner links;
2. train: one stacked training call for the workers' local training (noise
   injection for malicious workers) and every validator's one-epoch
   reference model (never noised), signed worker transactions, gossip among
   validators;
3. validate: the round's vote table, a row per validator and a column per
   verified update, from one ``evaluate`` per reference and per distinct
   (update, test set) pair; flipping validators invert their row. Then the
   votes' signing bytes as one table, a row per vote, each row signed and
   sent as a light (validator, column, signature) message, gossip among
   miners;
4. mine: the verified votes as a mask over the table and the vote each row
   signs; tallies as column sums and validator rewards from row sums, once
   per round, and one unsealed candidate block per miner;
5. select: the legitimate block by stake rank or mining race; each distinct
   adopted block is then hashed and signed once;
6. settle: chain append, reward/flag bookkeeping and the new global model,
   once per distinct (replica, block) pair; its devices move to the result;
7. metrics: the reporting replica is the round's record; the invariant checks.

Everything is driven by named substreams of the master seed, so runs are
bit-reproducible and changing one noise source never shifts another. The
config a run reads, and its rules, live in :mod:`vbfl.config`.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import consensus as consensus_mod
from . import protocol as protocol_mod
from . import rewards as rewards_mod
from .config import BEHAVIOR_VALIDATOR_FLIP, BEHAVIOR_WORKER_NOISE, SimConfig, check_rows
from .datasets import Task, load_idx_task, make_blobs_task
from .errors import ConfigError, InvariantViolation
from .learning import (
    DataShard,
    ModelParams,
    TrainingDiverged,
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
    VoteMessage,
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
    ValidatorState,
    VoteTable,
    pretrain_one_epoch,  # unused here, but perfbench/tracer.py wraps this module's name
    validate_by_voting,
)

logger = logging.getLogger("vbfl")

ROUNDS_CSV_FIELDS = ("round", "consensus", "winner", "winner_malicious", "forked", "global_accuracy")
STAKE_CSV_FIELDS = ("round", "device", "stake", "is_malicious")
EVENTS_CSV_FIELDS = ("round", "device", "event")
VAD_CSV_FIELDS = ("round", "validator", "worker", "vad", "vote", "worker_malicious")


# --- devices and sharding ---------------------------------------------------


@dataclass(frozen=True)
class Device:
    """A participant: its public id and signing secret."""

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
    return [Device(dev_id, secret) for dev_id, secret in raw]


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
    of a random split. A shared test set is one read-only shard object that
    every device holds.
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
        return [DataShard(x[r], y[r]) for r in np.array_split(rows, n)]

    train = split(task.train_x, task.train_y, order)
    if validator_test == "shard":
        test = split(task.test_x, task.test_y, rng.permutation(task.test_x.shape[0]))
    else:
        test = [DataShard(task.test_x, task.test_y)] * n
    return dict(zip(ids, zip(train, test)))


def assign_roles(
    j: int,
    device_ids: Sequence[DeviceId],
    config: SimConfig,
    rng: np.random.Generator,
    excluded: frozenset[DeviceId] = frozenset(),
) -> tuple[list[DeviceId], list[DeviceId], list[DeviceId]]:
    """The round's workers, validators and miners, each sorted by id;
    blacklisted devices receive no role.

    A uniform shuffle filled worker-first. When exclusions leave fewer
    devices than the configured counts, the deficit shrinks the worker
    count first, then validators, then miners.
    """
    active = [d for d in sorted(device_ids) if d not in excluded]
    counts = [config.n_workers, config.n_validators, config.n_miners]
    deficit = sum(counts) - len(active)
    for slot in range(3):  # shrink worker-first
        if deficit <= 0:
            break
        cut = min(counts[slot], deficit)
        counts[slot] -= cut
        deficit -= cut
    if counts != [config.n_workers, config.n_validators, config.n_miners]:
        logger.warning("round %d: role counts shrank to %s after blacklisting", j, counts)
    order = [active[i] for i in rng.permutation(len(active))]
    w, v = counts[0], counts[0] + counts[1]
    return sorted(order[:w]), sorted(order[w:v]), sorted(order[v:])


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
    """What one round produced. ``replica`` is the reporting device's replica
    after it, None under plain FL, and is shared with later rounds and the
    devices on its tip, so nothing may edit it. The round's block is the
    record of its traffic: its tallies with their votes, and the duty rewards."""

    round: int
    global_accuracy: float
    winner_malicious: bool = False
    forked: bool = False
    skip_reason: str = ""
    replica: Replica | None = None
    votes: VoteTable | None = None

    @property
    def legitimate_block(self) -> Block | None:
        """The replica's tip when it is of this round, else None: only a later
        round's block appends, so an older tip means none was adopted."""
        tip = self.replica.chain.blocks[-1] if self.replica else None
        return tip if tip and tip.round == self.round else None


@dataclass(frozen=True)
class Replica:
    """A chain with its ledger, global model and tip block's events (see
    :func:`replay`). Devices on one tip share one; nothing edits it in place."""

    chain: Blockchain
    ledger: StakeLedger
    g: ModelParams
    events: tuple[tuple[DeviceId, str], ...] = ()


@dataclass
class DeviceState:
    """One device's data and the shared replica of the chain tip it is on."""

    train: DataShard
    test: DataShard
    replica: Replica


def extend(replica: Replica, block: Block, signer: Signer) -> Replica:
    """The replica after a block, with the block's events
    (:func:`apply_block`); the model averages the qualified tallies, if
    any. Raises BlockRejected if it may not append."""
    chain = append_block(replica.chain, block, signer, replica.ledger.blacklist)
    ledger, events = apply_block(replica.ledger, block)
    good = [t for t in block.tallies if rewards_mod.qualified(t.positives, t.negatives)]
    g = fedavg([(t.update, float(t.tx.train_size)) for t in good]) if good else replica.g
    return Replica(chain, ledger, g, events)


def replay(genesis: Replica, blocks: Sequence[Block], signer: Signer) -> Replica:
    """genesis extended by each block in turn: the blocks alone make the
    ledger and the model."""
    replica = genesis
    for block in blocks:
        replica = extend(replica, block, signer)
    return replica


@dataclass(frozen=True)
class _Plan:
    """Who does what in one round, fixed before any message moves."""

    round: int
    workers: list[DeviceId]
    validators: list[DeviceId]
    miners: list[DeviceId]
    w2v: dict[DeviceId, DeviceId]
    v2m: dict[DeviceId, DeviceId]

    def miner_of(self, d: DeviceId) -> DeviceId:
        """The miner whose block d's partition adopts: a worker's validator's
        miner, a validator's miner, or a miner itself."""
        v = self.w2v.get(d, d)
        return self.v2m.get(v, v)


def _build_task(config: SimConfig) -> Task:
    ds = config.dataset
    if ds.idx_dir is not None:
        try:
            return load_idx_task(ds.idx_dir)
        except ValueError as exc:  # missing, unreadable or malformed
            raise ConfigError(f"dataset.idx_dir: {exc}") from None
    params = {f.name: getattr(ds, f.name) for f in fields(ds) if f.name != "idx_dir"}
    return make_blobs_task(seed=derive_seed(config.master_seed, "shard", "task"), **params)


def _make_signer(config: SimConfig, devices: Sequence[Device]) -> Signer:
    signer = HmacSigner() if config.signature_scheme == "hmac" else StubSigner()
    for dev in devices:
        signer.register(dev.id, dev.secret)
    return signer


class _World:
    """What both drivers build from a config: devices, data shards and g0.

    ``full_test`` is the whole test set, read for the global accuracy. Under
    ``validator_test="full"`` it is the one test shard every device holds,
    so the test set is held once.
    """

    def __init__(self, config: SimConfig):
        self.config = config
        self.devices = make_devices(config.n_devices)
        task = _build_task(config)
        check_rows(config, task.train_size, task.test_x.shape[0])
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
            self.full_test = self.shards[self.devices[0].id][1]
        else:
            self.full_test = DataShard(task.test_x, task.test_y)
        self.metrics: list[RoundMetrics] = []

    def _behaves(self, device: DeviceId, behavior: str) -> bool:
        return (
            device in self.malicious_ids
            and behavior in self.config.malicious_behaviors
        )

    def _local_updates(
        self,
        jobs: Sequence[tuple[DeviceId, ModelParams, DataShard]],
        j: int,
        references: Sequence[tuple[DeviceId, ModelParams, DataShard]] = (),
    ) -> tuple[list[ModelParams], list[ModelParams]]:
        """The update each (device, start, shard) job sends: its trained
        model, noise-distorted when the device is a malicious worker; and the
        model one epoch makes for each reference (device, start, shard),
        never distorted. All train in one ``local_train_many`` call; a
        diverged one raises ConfigError, named ``train``, for round j."""
        cfg = self.config
        both = [*jobs, *references]
        try:
            trained = local_train_many(
                [g for _, g, _ in both],
                [train for _, _, train in both],
                cfg.train,
                [substream(cfg.master_seed, "batches", d, j) for d, _, _ in both],
                [cfg.train.epochs] * len(jobs) + [1] * len(references),
            )
        except TrainingDiverged as exc:
            raise ConfigError(f"train: round {j}: {exc}") from None
        updates = trained[: len(jobs)]
        for k, (d, _, _) in enumerate(jobs):
            if self._behaves(d, BEHAVIOR_WORKER_NOISE):
                noise = substream(cfg.master_seed, "noise", d, j)
                updates[k] = inject_gaussian_noise(updates[k], cfg.noise_variance, noise)
        return updates, trained[len(jobs) :]

    def _record(self, g: ModelParams, **observed) -> RoundMetrics:
        """This round's metrics, with g's accuracy on the full test set."""
        metrics = RoundMetrics(
            round=len(self.metrics) + 1,
            global_accuracy=evaluate(g, self.full_test),
            **observed,
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
    def vote_tables(self) -> list[VoteTable]:
        return [m.votes for m in self.metrics if m.votes is not None]


# A gossip message as sent: the message, the signing bytes its sender
# encoded once (receivers verify the signature over the bytes they
# received), and when it arrives at the peer whose inbox lists it.
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

    def _roster(self) -> tuple[frozenset[DeviceId], list[DeviceId], DeviceId]:
        """The devices every still-participating replica has blacklisted,
        the other (active) devices in id order, and the reporting device:
        the first active one, or the lowest id when none is. The reporting
        device's replica is the round's record.

        Blacklisted devices stop adopting blocks, so their replicas go
        stale and must not weigh in; iterate to the fixed point.
        """
        out: frozenset[DeviceId] = frozenset()
        while True:
            views = [st.replica.ledger.blacklist for d, st in self.state.items() if d not in out]
            agreed = frozenset.intersection(*map(frozenset, views)) if views else out
            if agreed == out:
                break
            out = agreed
        actives = [d.id for d in self.devices if d.id not in out]
        return out, actives, (actives or [self.devices[0].id])[0]

    def _gossip(
        self,
        inbox: dict[DeviceId, list[_Message]],
        key: Callable[[object], object],
        verify: Callable[[object, Signer, bytes], bool],
        peers: Sequence[DeviceId],
        net_rng: np.random.Generator,
    ) -> tuple[list[tuple[object, bytes]], dict[DeviceId, float]]:
        """One hop of signed messages among peers: deliver, verify, relay.

        Each key reaches one peer, so raises InvariantViolation if the
        inboxes carry any key twice. In peer order, a peer takes its direct
        messages in key order, verifies each and keeps those that
        verify; it then draws one row of link delays to the other peers per
        kept message, in one ``link_delay`` call, and every other peer
        receives that message at its arrival plus the drawn delay. So every
        peer ends up holding every verified message. Returns those as
        (message, signing bytes) in key order, and when each peer's last
        message arrived (0.0 when it holds none).
        """
        n = len(peers)
        kept: dict = {}  # keys: the messages' keys
        seen: set = set()
        ready = np.zeros(n)
        for r, p in enumerate(peers):
            arrivals = []
            for k, msg, payload, at in sorted(
                ((key(msg), msg, payload, at) for msg, payload, at in inbox[p]),
                key=itemgetter(0),
            ):
                if k in seen:
                    raise InvariantViolation(f"gossip key {k!r} sent twice in one hop")
                seen.add(k)
                if verify(msg, self.signer, payload):
                    kept[k] = (msg, payload)
                    arrivals.append(at)
            at = np.array(arrivals).reshape(-1, 1)
            delays = self.config.network.link_delay(net_rng, (len(at), n - 1))
            # Column q: when peer q holds each message p kept; p from its arrival.
            arrive = np.hstack([at + delays[:, :r], at, at + delays[:, r:]])
            ready = np.maximum(ready, arrive.max(axis=0, initial=0.0))
        return [kept[k] for k in sorted(kept)], dict(zip(peers, ready.tolist()))

    # -- the round ------------------------------------------------------------

    def run_round(self) -> RoundMetrics:
        cfg = self.config
        j = len(self.metrics) + 1
        blacklist, actives, ref = self._roster()
        if not actives:
            return self._skip(j, ref, "all devices blacklisted")
        plan = self._plan(j, blacklist)
        if plan is None:
            return self._skip(j, ref, "no validators or miners available")
        net_rng = substream(cfg.master_seed, "net", j)

        inbox_v, references = self._train(plan, net_rng)
        received, ready_v = self._gossip(
            inbox_v, lambda tx: tx.worker, verify_worker_tx, plan.validators, net_rng
        )
        votes, inbox_m = self._validate(plan, received, ready_v, references, net_rng)
        # A vote's key (validator, column) sorts as (validator, worker) would.
        kept, ready_m = self._gossip(
            inbox_m, itemgetter(0, 1), verify_validator_tx, plan.miners, net_rng
        )
        candidates, section = self._mine(plan, received, kept)
        choice = self._seal(self._select(plan, candidates, ready_m, net_rng), section)
        if not choice:
            return self._skip(j, ref, "no eligible legitimate block")

        prev_ref_ledger = self.state[ref].replica.ledger
        self._settle(plan, choice, actives)
        forked = len({b.content_hash for b in choice.values()}) > 1
        metrics = self._report(ref, forked=forked, votes=votes)
        self._check_round_invariants(metrics, prev_ref_ledger, actives)
        return metrics

    def _skip(self, j: int, ref: DeviceId, reason: str) -> RoundMetrics:
        logger.warning("round %d skipped: %s", j, reason)
        return self._report(ref, skip_reason=reason)

    def _report(self, ref: DeviceId, **observed) -> RoundMetrics:
        """This round's metrics: the reporting device ref's replica."""
        replica = self.state[ref].replica
        metrics = self._record(replica.g, replica=replica, **observed)
        block = metrics.legitimate_block
        metrics.winner_malicious = bool(block and block.miner in self.malicious_ids)
        return metrics

    def _plan(self, j: int, blacklist: frozenset[DeviceId]) -> _Plan | None:
        """Roles and association; None when no validator or miner is left."""
        cfg = self.config
        workers, validators, miners = assign_roles(
            j, list(self.state), cfg, substream(cfg.master_seed, "roles", j), excluded=blacklist
        )
        if not validators or not miners:
            return None
        w2v, v2m = associate(workers, validators, miners, substream(cfg.master_seed, "assoc", j))
        return _Plan(j, workers, validators, miners, w2v, v2m)

    def _train(self, plan: _Plan, net_rng: np.random.Generator):
        """Workers train, distort if malicious, sign and send to their
        validator; returns the validators' inbox and their reference models.

        A validator's reference is one epoch from its global model on its
        own shard; it trains in the same stacked call as the workers.
        """
        cfg, unit = self.config, self.config.unit_reward
        inbox: dict[DeviceId, list[_Message]] = {v: [] for v in plan.validators}
        jobs, refs = (
            [(d, self.state[d].replica.g, self.state[d].train) for d in devices]
            for devices in (plan.workers, plan.validators)
        )
        updates, references = self._local_updates(jobs, plan.round, refs)
        delays = cfg.network.link_delay(net_rng, len(jobs)).tolist()
        for (w, _, train), update, delay in zip(jobs, updates, delays):
            tx = WorkerTransaction(
                round=plan.round,
                worker=w,
                update=update,
                expected_reward=rewards_mod.training_reward(cfg.train.epochs, len(train), unit),
                epochs=cfg.train.epochs,
                train_size=len(train),
                signature=b"",
            )
            payload = protocol_mod.worker_tx_signing_bytes(tx)
            tx = sign_worker_tx(tx, self.signer, payload)
            v = plan.w2v[w]
            inbox[v].append((tx, payload, delay))
        return inbox, dict(zip(plan.validators, references))

    def _validate(
        self,
        plan: _Plan,
        received: list[tuple[WorkerTransaction, bytes]],
        ready: dict[DeviceId, float],
        references: dict[DeviceId, ModelParams],
        net_rng: np.random.Generator,
    ) -> tuple[VoteTable, dict[DeviceId, list[_Message]]]:
        """Each validator votes on every received update, against the
        accuracy of its reference model, and sends the votes to its miner; a
        vote leaves once its validator is ready. Returns the round's vote
        table and the miners' inbox.

        Validators sharing a test set form one group, which evaluates each
        update once and votes on it in one call; every validator received
        the same worker bytes, so each is digested once. The votes' signing
        bytes are built as one table, a row per vote, each committing to the
        digest of the worker bytes; a message carries its row.
        """
        cfg = self.config
        validators = plan.validators
        shape = (len(validators), len(received))
        vad, negative = np.empty(shape), np.empty(shape, dtype=bool)
        groups: dict[int, list[int]] = {}  # keys: ids of the test sets; values: rows
        for i, v in enumerate(validators):
            groups.setdefault(id(self.state[v].test), []).append(i)
        for rows in groups.values():
            test = self.state[validators[rows[0]]].test
            refs = np.array([evaluate(references[validators[i]], test) for i in rows])
            group = ValidatorState(cfg.vh, test, refs)
            for j, (tx, _) in enumerate(received):
                accuracy = evaluate(tx.update, test)
                negative[rows, j], vad[rows, j] = validate_by_voting(tx.update, group, accuracy)
        negative ^= np.array([[self._behaves(v, BEHAVIOR_VALIDATOR_FLIP)] for v in validators])
        txs = [tx for tx, _ in received]
        table = protocol_mod.validator_tx_signing_bytes(
            plan.round, validators, [protocol_mod.payload_hash(b) for _, b in received],
            [tx.signature for tx in txs], negative,
        )
        width = len(table) // max(negative.size, 1)
        ready_at = np.array([[ready[v]] for v in validators])
        arrivals = (ready_at + cfg.network.link_delay(net_rng, shape)).tolist()
        inbox: dict[DeviceId, list[_Message]] = {m: [] for m in plan.miners}
        at = 0  # offset of the next row in the table
        for v, row_at in zip(validators, arrivals):
            sent = inbox[plan.v2m[v]]
            for j, arrival in enumerate(row_at):
                payload = table[at : at + width]
                at += width
                signature = sign_validator_tx(v, self.signer, payload)
                sent.append((VoteMessage(v, j, signature), payload, arrival))
        workers = tuple(tx.worker for tx in txs)
        malicious = np.array([w in self.malicious_ids for w in workers], dtype=bool)
        return VoteTable(plan.round, tuple(validators), workers, malicious, vad, negative), inbox

    def _mine(
        self,
        plan: _Plan,
        received: list[tuple[WorkerTransaction, bytes]],
        votes: list[tuple[VoteMessage, bytes]],
    ) -> tuple[dict[DeviceId, Block], bytes]:
        """Every miner builds an unsealed candidate block on the round's
        verified votes, which every miner holds; returns the candidates and
        their one tally section.

        The votes become a (validators × updates) mask and the vote value
        each signed row carries, so the tallies are column sums and each
        validator's reward comes from its row sum. The tally set, the rewards
        and the tally section are computed once per round. The section's
        encoding reuses the worker bytes the validators received, and lives
        only for the round.
        """
        unit = self.config.unit_reward
        validators = plan.validators
        row = {v: i for i, v in enumerate(validators)}
        cells = ([row[msg.validator] for msg, _ in votes], [msg.column for msg, _ in votes])
        kept = np.zeros((len(validators), len(received)), dtype=bool)
        kept[cells] = True
        signed = np.zeros(kept.shape, dtype=np.uint8)
        signed[cells] = protocol_mod.signed_votes([payload for _, payload in votes])
        txs = [tx for tx, _ in received]
        tallies = consensus_mod.aggregate_votes(txs, validators, kept, signed)
        validator_rewards = tuple(
            (v, rewards_mod.validator_reward(n, unit))
            for v, n in zip(validators, kept.sum(axis=1).tolist()) if n
        )
        tx_bytes = {id(tx): b for tx, b in received}
        section = protocol_mod.encode_tallies(tallies, [tx_bytes[id(t.tx)] for t in tallies])
        miner_reward = rewards_mod.miner_reward(len(votes), unit)
        candidates = {
            m: consensus_mod.build_candidate(
                miner=m,
                tallies=tallies,
                miner_reward=miner_reward,
                validator_rewards=validator_rewards,
                prev_hash=self.state[m].replica.chain.tip_hash,
                round=plan.round,
            )
            for m in plan.miners
        }
        return candidates, section

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
            others = [other for other in plan.miners if other != m]
            delays = cfg.network.link_delay(net_rng, len(others)).tolist()
            propagated = [
                (candidates[other], ready_at[other] + delay)
                for other, delay in zip(others, delays)
            ]
            collected = consensus_mod.collect_blocks(
                candidates[m],
                propagated,
                ready_at[m] + cfg.network.propagated_block_wait,
            )
            try:
                choice[m] = consensus_mod.pos_select(collected, self.state[m].replica.ledger)
            except consensus_mod.NoEligibleBlock:
                pass
        return choice

    def _seal(self, choice: dict[DeviceId, Block], section: bytes) -> dict[DeviceId, Block]:
        """The choice with each distinct adopted block hashed and signed once,
        over the round's tally section; a candidate no miner adopts is never
        hashed."""
        sealed: dict[DeviceId, Block] = {}  # keys: the candidates' miners
        for block in choice.values():
            if block.miner not in sealed:
                sealed[block.miner] = protocol_mod.seal_block(block, self.signer, section)
                self._seen_block_hashes_add(sealed[block.miner])
        return {m: sealed[block.miner] for m, block in choice.items()}

    def _settle(
        self,
        plan: _Plan,
        choice: dict[DeviceId, Block],
        actives: Sequence[DeviceId],
    ) -> None:
        """Every active device adopts its partition's block. Each distinct
        (replica, block) pair is settled once, a rejection included, and its
        devices move to the result."""
        # Keys are looked up only for replicas that predate the loop: ids cannot clash.
        settled: dict[tuple[int, bytes], Replica | BlockRejected] = {}
        for d in actives:
            st = self.state[d]
            block = choice.get(plan.miner_of(d))
            if block is None:
                continue
            key = (id(st.replica), block.content_hash)
            if key not in settled:
                try:
                    settled[key] = extend(st.replica, block, self.signer)
                except BlockRejected as exc:
                    settled[key] = exc
            if isinstance(settled[key], BlockRejected):
                logger.warning(
                    "round %d: device %s rejected block: %s", plan.round, d.hex()[:8], settled[key]
                )
                continue
            st.replica = settled[key]

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
        # Stake never decreases, and this round's total increase matches the
        # block's qualified rewards exactly.
        increase = 0
        for d in self.state:
            delta = metrics.replica.ledger.stake_of(d) - prev_ref_ledger.stake_of(d)
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
        for replica in {id(st.replica): st.replica for st in self.state.values()}.values():
            try:
                same = replay(self.genesis, replica.chain.blocks[1:], self.signer) == replica
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
        j = len(self.metrics) + 1
        jobs = [(d.id, self.g, self.shards[d.id][0]) for d in self.devices]
        updates, _ = self._local_updates(jobs, j)
        self.g = fedavg([(u, float(len(train))) for u, (_, _, train) in zip(updates, jobs)])
        return self._record(self.g)


# --- output files -------------------------------------------------------------


@dataclass
class RunResult:
    config: SimConfig
    metrics: list[RoundMetrics]
    driver: Simulation | VanillaRun
    out_dir: Path | None


def _write_csv(path, header: Sequence[str], lines) -> None:
    """Write the header and the preformatted lines as csv.writer's default
    dialect would: comma-separated, each line ending in CRLF. No field can
    need quoting, since each is hex, a decimal int, a repr'd float or a
    fixed word."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def write_rounds_csv(metrics: Sequence[RoundMetrics], consensus: str, path) -> None:
    _write_csv(path, ROUNDS_CSV_FIELDS, (
        f"{m.round},{consensus},{m.legitimate_block.miner.hex() if m.legitimate_block else ''},"
        f"{int(m.winner_malicious)},{int(m.forked)},{float(m.global_accuracy)!r}\r\n"
        for m in metrics
    ))


def write_stake_csv(metrics: Sequence[RoundMetrics], driver: _World, path) -> None:
    _write_csv(path, STAKE_CSV_FIELDS, (
        f"{m.round},{d.id.hex()},{m.replica.ledger.stake_of(d.id)},"
        f"{int(d.id in driver.malicious_ids)}\r\n"
        for m in metrics if m.replica for d in driver.devices
    ))


def write_events_csv(metrics: Sequence[RoundMetrics], path) -> None:
    _write_csv(path, EVENTS_CSV_FIELDS, (
        f"{m.round},{device.hex()},{event}\r\n"
        for m in metrics if m.legitimate_block for device, event in m.replica.events
    ))


def write_vad_csv(tables: Sequence[VoteTable], path) -> None:
    """Calibration dataset: one row per vote, by round, validator, worker."""

    def lines():
        for t in tables:
            columns = [
                (f"{w.hex()},", f",{int(mal)}\r\n")
                for w, mal in zip(t.workers, t.worker_malicious.tolist())
            ]
            for v, vads, negs in zip(t.validators, t.vad.tolist(), t.negative.tolist()):
                head = f"{t.round},{v.hex()},"
                yield "".join(
                    f"{head}{worker}{vad!r},{'N' if neg else 'P'}{tail}"
                    for (worker, tail), vad, neg in zip(columns, vads, negs)
                )

    _write_csv(path, VAD_CSV_FIELDS, lines())


def code_fingerprint() -> str:
    """SHA-256 over the package's source files, for the run manifest."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(driver: _World, out_dir: Path, preset: str | None = None) -> None:
    manifest = {
        "preset": preset,
        "config": driver.config.to_dict(),
        "hash_algo": HASH_NAME,
        "code_sha256": code_fingerprint(),
        "device_ids": [d.id.hex() for d in driver.devices],
        "malicious_ids": [driver.devices[i].id.hex() for i in sorted(driver.config.malicious)],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _make_out_dir(out_dir) -> Path:
    """Create the output directory (and its parents) if missing. Raises
    ConfigError, named ``out``, when the path cannot be one."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"out: cannot use {out_dir} as the output directory: {exc.strerror}"
        ) from None
    return out_dir


def write_outputs(result: RunResult, out_dir, preset: str | None = None) -> Path:
    """Emit rounds/stake/vad/events CSVs, the last reported replica's chain
    and the manifest. A plain-FL run has no chain, so it removes an earlier
    run's dump; a protocol run of no round dumps genesis alone."""
    out_dir = _make_out_dir(out_dir)
    write_rounds_csv(result.metrics, result.config.consensus.upper(), out_dir / "rounds.csv")
    write_stake_csv(result.metrics, result.driver, out_dir / "stake.csv")
    write_events_csv(result.metrics, out_dir / "events.csv")
    write_vad_csv(result.driver.vote_tables, out_dir / "vad.csv")
    if isinstance(result.driver, Simulation):
        last = result.metrics[-1].replica if result.metrics else result.driver.genesis
        with open(out_dir / "chain.jsonl", "w", encoding="utf-8") as out:
            chain_to_jsonl(last.chain, out)
    else:
        (out_dir / "chain.jsonl").unlink(missing_ok=True)
    write_manifest(result.driver, out_dir, preset)
    return out_dir


def run_simulation(
    config: SimConfig,
    out_dir=None,
    preset: str | None = None,
    progress: Callable[[RoundMetrics], None] | None = None,
) -> RunResult:
    """Run the driver the config names for config.rounds rounds; emit metric
    files. The output directory is made once the driver is built, so a bad
    ``out_dir`` fails before round 1."""
    driver = (VanillaRun if config.consensus == "vfl" else Simulation)(config)
    if out_dir is not None:
        out_dir = _make_out_dir(out_dir)
    result = RunResult(config, driver.run(progress), driver, None)
    if out_dir is not None:
        result.out_dir = write_outputs(result, out_dir, preset)
    return result
