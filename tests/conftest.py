"""Shared fixtures: tiny tasks and configs sized for fast unit tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from vbfl.datasets import make_blobs_task
from vbfl.learning import DataShard, TrainSpec
from vbfl.orchestrator import DatasetConfig, SimConfig, Simulation
from vbfl.protocol import DeviceId, ValidatorTransaction, WorkerTransaction


TINY_DATASET = DatasetConfig(
    dim=8,
    classes=4,
    train_per_class=60,
    test_per_class=30,
    spread=0.5,
    feature_scale=1.0,
)


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
    train = DataShard(t.train_x, t.train_y, shard_of=b"train")
    test = DataShard(t.test_x, t.test_y, shard_of=b"test")
    return train, test


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


@dataclass
class RoundMessages:
    """One round's gossip, as the simulator's two hops moved it."""

    # hop-1 inbox: every signed worker transaction sent, in worker order
    worker_txs: tuple[WorkerTransaction, ...]
    # hop 1: the worker transactions each validator stored
    by_validator: dict[DeviceId, tuple[WorkerTransaction, ...]]
    # hop 2: the validator transactions each miner stored
    by_miner: dict[DeviceId, tuple[ValidatorTransaction, ...]] = field(default_factory=dict)


def record_messages(sim: Simulation) -> dict[int, RoundMessages]:
    """Wrap sim._gossip; the returned dict fills with each round's messages.

    A round calls _gossip twice, worker->validator first and
    validator->miner second; a round skipped before gossip has no entry.
    """
    rounds: dict[int, RoundMessages] = {}
    gossip = sim._gossip

    def recording(inbox, key, verify, peers, net_rng):
        stored = gossip(inbox, key, verify, peers, net_rng)
        kept = {p: tuple(msg for msg, _, _ in stored[p]) for p in peers}
        if sim.round_no in rounds:
            rounds[sim.round_no].by_miner = kept
        else:
            sent = sorted((msg for p in peers for msg, _, _ in inbox[p]), key=lambda tx: tx.worker)
            rounds[sim.round_no] = RoundMessages(tuple(sent), kept)
        return stored

    sim._gossip = recording
    return rounds
