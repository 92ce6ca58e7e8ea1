"""Shared fixtures: tiny tasks and configs sized for fast unit tests."""

from __future__ import annotations

import csv
import dataclasses
import gzip
import io
import struct
import typing
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import pytest

from vbfl.datasets import make_blobs_task
from vbfl.config import DatasetConfig, SimConfig, TrainSpec
from vbfl.learning import DataShard
from vbfl.orchestrator import Simulation
from vbfl.protocol import DeviceId, Vote, WorkerTransaction, payload_hash


TINY_DATASET = DatasetConfig(
    dim=8,
    classes=4,
    train_per_class=60,
    test_per_class=30,
    spread=0.5,
    feature_scale=1.0,
)


def csv_writer_bytes(header, rows) -> bytes:
    """The header and rows as csv.writer writes them in its default dialect."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def round_events(m) -> tuple:
    """The events of the block a round adopted: its replica's tip events
    when the tip is the round's block, none otherwise."""
    return m.replica.events if m.legitimate_block else ()


def vad_rows(tables) -> list[tuple]:
    """vad.csv's rows, one per vote, each vad a float for csv.writer to format."""
    return [
        (t.round, v.hex(), w.hex(), vad, "N" if neg else "P", int(mal))
        for t in tables
        for v, vads, negs in zip(t.validators, t.vad.tolist(), t.negative.tolist())
        for w, vad, neg, mal in zip(t.workers, vads, negs, t.worker_malicious.tolist())
    ]


@pytest.fixture
def tiny_dataset() -> DatasetConfig:
    return TINY_DATASET


@pytest.fixture
def tiny_config(tiny_dataset) -> SimConfig:
    """20 devices on an easy task; a full round runs in well under a second."""
    return SimConfig(
        rounds=3,
        master_seed=11,
        dataset=tiny_dataset,
        arch="softmax",
        train=TrainSpec(epochs=2, learning_rate=0.05, batch_size=10),
    )


@pytest.fixture
def two_class_task():
    return make_blobs_task(
        dim=4,
        classes=2,
        train_per_class=30,
        test_per_class=30,
        spread=0.5,
        feature_scale=1.0,
        seed=42,
    )


@pytest.fixture
def two_class_shards(two_class_task):
    t = two_class_task
    return DataShard(t.train_x, t.train_y), DataShard(t.test_x, t.test_y)


@pytest.fixture
def shard_reads(monkeypatch) -> Counter:
    """The number of ``arrays()`` reads of each DataShard, keyed by the
    shard's id, from the moment the fixture is requested."""
    reads: Counter = Counter()
    arrays = DataShard.arrays

    def counted(shard):
        reads[id(shard)] += 1
        return arrays(shard)

    monkeypatch.setattr(DataShard, "arrays", counted)
    return reads


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def write_idx(path, arr: np.ndarray, dtype_code: int, compress=False):
    header = struct.pack(">HBB", 0, dtype_code, arr.ndim)
    header += struct.pack(f">{arr.ndim}I", *arr.shape)
    payload = header + arr.tobytes()
    if compress:
        path.write_bytes(gzip.compress(payload))
    else:
        path.write_bytes(payload)


def config_annotations(cls=SimConfig, prefix: str = ""):
    """(dotted key, type, Bound or None) of every leaf field of a config
    class, nested sections included, read from the annotations; the tests
    walk config leaves only through this."""
    hints = typing.get_type_hints(cls, include_extras=True)
    for f in dataclasses.fields(cls):
        hint, bound = hints[f.name], None
        if typing.get_origin(hint) is typing.Annotated:
            hint, bound = typing.get_args(hint)
        if dataclasses.is_dataclass(hint):
            yield from config_annotations(hint, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, hint, bound


def choices_of(hint) -> tuple:
    """The Literal values of a choice annotation, or of a tuple of choices."""
    if typing.get_origin(hint) is tuple:
        hint = typing.get_args(hint)[0]
    return typing.get_args(hint) if typing.get_origin(hint) is typing.Literal else ()


CHOICES = {key: choices_of(hint) for key, hint, _ in config_annotations() if choices_of(hint)}


def mistyped(hint) -> list:
    """Values that do not fit a leaf's type: a str or a bool for a number, a
    float for an int, a number for a choice or a str, and for a tuple a list,
    a bare element or a float element."""
    if typing.get_origin(hint) is tuple:
        element = (choices_of(hint) or (1,))[0]
        return [[element], element, (1.5,)]
    if hint is int:
        return ["3", 1.5, True]
    if hint is float:
        return ["0.1", True]
    return [5]


def leaf(cfg: SimConfig, key: str):
    for part in key.split("."):
        cfg = getattr(cfg, part)
    return cfg


def with_leaves(cfg: SimConfig, changes: dict) -> SimConfig:
    """cfg with the leaf at each dotted key of changes replaced, in one ``replace``."""
    top, sections = {}, {}
    for key, value in changes.items():
        section, _, name = key.rpartition(".")
        if section:
            sections.setdefault(section, {})[name] = value
        else:
            top[name] = value
    for section, values in sections.items():
        top[section] = dataclasses.replace(getattr(cfg, section), **values)
    return dataclasses.replace(cfg, **top)


@dataclass(frozen=True)
class RecordedVote:
    """A vote a miner verified, as the row it signed says."""

    validator: DeviceId
    worker: DeviceId
    vote: Vote


def decode_vote_row(row: bytes) -> tuple:
    """(round, validator, inner digest, inner signature, Vote) of a vote's
    signing bytes, parsed as docs/wire-format.md lays them out; raises
    AssertionError on any other layout."""
    tag, round_no = struct.unpack_from(">BQ", row)
    at, blobs = 9, []
    for _ in range(3):  # validator, inner digest, inner signature
        (n,) = struct.unpack_from(">I", row, at)
        blobs.append(row[at + 4 : at + 4 + n])
        at += 4 + n
    vote_tag, value = struct.unpack_from(">BB", row, at)
    assert (tag, vote_tag, len(row)) == (0x04, 0x03, at + 2)
    return (round_no, *blobs, Vote(value))


@dataclass
class RoundMessages:
    """One round's gossip, as the simulator's two hops moved it."""

    # hop-1 inbox: every signed worker transaction sent, in worker order
    worker_txs: tuple[WorkerTransaction, ...]
    # hop 1: the worker transactions each validator holds
    by_validator: dict[DeviceId, tuple[WorkerTransaction, ...]]
    # hop 2: the votes each miner holds, in (validator, worker) order
    by_miner: dict[DeviceId, tuple[RecordedVote, ...]] = field(default_factory=dict)


def record_messages(sim: Simulation) -> dict[int, RoundMessages]:
    """Wrap sim._gossip; the returned dict fills with each round's messages.

    A round calls _gossip twice, worker->validator first and
    validator->miner second; a round skipped before gossip has no entry.
    Each vote is decoded from the bytes its miner verified, and its worker
    found by the digest it signs; that worker must be its column's.
    """
    rounds: dict[int, RoundMessages] = {}
    gossip = sim._gossip
    received: list = []  # the round's hop-1 (tx, signing bytes), in column order

    def recording(inbox, key, verify, peers, net_rng):
        messages, ready = gossip(inbox, key, verify, peers, net_rng)
        j = len(sim.metrics) + 1  # the round running
        if j in rounds:
            worker_of = {payload_hash(b): tx.worker for tx, b in received}
            votes = []
            for msg, row in messages:
                round_no, validator, digest, _, vote = decode_vote_row(row)
                assert (round_no, validator) == (j, msg.validator)
                assert worker_of[digest] == received[msg.column][0].worker
                votes.append(RecordedVote(validator, worker_of[digest], vote))
            rounds[j].by_miner = {p: tuple(votes) for p in peers}
        else:
            received[:] = messages
            kept = tuple(msg for msg, _ in messages)
            sent = sorted((msg for p in peers for msg, _, _ in inbox[p]), key=lambda tx: tx.worker)
            rounds[j] = RoundMessages(tuple(sent), {p: kept for p in peers})
        return messages, ready

    sim._gossip = recording
    return rounds


def record_plans(sim: Simulation) -> dict:
    """Wrap sim._plan; the returned dict fills with each round's plan (its
    workers, validators, miners and associations), by round number. A round
    skipped before or at planning has no entry."""
    plans: dict = {}
    plan = sim._plan

    def recording(j, blacklist):
        planned = plan(j, blacklist)
        if planned is not None:
            plans[j] = planned
        return planned

    sim._plan = recording
    return plans
