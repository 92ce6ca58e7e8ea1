"""Validator voting on worker updates via the one-epoch proxy accuracy gap.

A validator's reference model is the round's global model trained for one
epoch on its own shard, in the orchestrator's one stacked training call
(:func:`pretrain_one_epoch` is that model trained alone). The caller
evaluates each reference on its validator's test set and each update once
per distinct test set. The gap between the two accuracies (``vad``,
validation accuracy difference) drives the vote: a gap above the threshold
means the update looks distorted and draws a Negative vote. A round's votes
form one :class:`VoteTable`, a validator per row and an update per column,
and so do their signing bytes and the miners' tallies (see vbfl.protocol).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import TrainSpec
from .learning import DataShard, ModelParams, local_train
from .protocol import DeviceId


@dataclass(frozen=True)
class ValidatorState:
    """The validators of one round that share a test set: their threshold,
    that test set and each one's reference accuracy on it."""

    threshold: float
    test: DataShard
    pretrain_acc: np.ndarray  # (validators in the group,)


@dataclass(frozen=True)
class VoteTable:
    """One round's votes: row i is validators[i], column j the update of
    workers[j]. ``negative`` is the vote sent, flips included."""

    round: int
    validators: tuple[DeviceId, ...]
    workers: tuple[DeviceId, ...]
    worker_malicious: np.ndarray  # (workers,) bool
    vad: np.ndarray  # (validators, workers) float
    negative: np.ndarray  # (validators, workers) bool


def pretrain_one_epoch(
    global_params: ModelParams,
    train: DataShard,
    spec: TrainSpec,
    rng: np.random.Generator,
) -> ModelParams:
    """The reference model: one epoch of legitimate local training from
    ``global_params`` on ``train``, whatever ``spec.epochs`` says."""
    return local_train(global_params, train, replace(spec, epochs=1), rng)


def validate_by_voting(
    update: ModelParams, state: ValidatorState, accuracy: float
) -> tuple[np.ndarray, np.ndarray]:
    """A group's votes on one update; returns (negative, vad), one entry per
    validator of the group.

    ``accuracy`` is ``evaluate(update, state.test)``, measured by the caller
    once for the whole group. Negative iff vad exceeds the threshold. With
    a threshold of 1.0 every vote is Positive, since vad can never exceed 1.
    """
    vad = state.pretrain_acc - accuracy
    return vad > state.threshold, vad


def suggest_threshold(tables: Sequence[VoteTable]) -> dict:
    """Threshold suggestion from a calibration run's vad scatter.

    Midpoint between the 90th percentile of legitimate-worker vads and the
    10th percentile of malicious-worker vads; both populations must be
    present.
    """
    legit, malicious = (
        np.concatenate([np.empty(0)] + [t.vad[:, t.worker_malicious == m].ravel() for t in tables])
        for m in (False, True)
    )
    if not legit.size or not malicious.size:
        raise ValueError("need both legitimate-worker and malicious-worker vad records")
    legit_p90 = float(np.percentile(legit, 90))
    malicious_p10 = float(np.percentile(malicious, 10))
    return {
        "suggested_vh": (legit_p90 + malicious_p10) / 2.0,
        "legit_vad_p90": legit_p90,
        "malicious_vad_p10": malicious_p10,
        "n_legit": legit.size,
        "n_malicious": malicious.size,
    }
