"""Validator voting on worker updates via the one-epoch proxy accuracy gap.

Each round a validator's reference model is the incoming global model
trained for a single epoch on its own shard: the orchestrator trains every
reference in its one stacked training call with the workers' updates, and
:func:`pretrain_one_epoch` is that model trained alone. The caller measures
the reference's accuracy on the validator's test set with ``evaluate``. The gap
between this reference accuracy and the accuracy of a worker's update
(``vad``, validation accuracy difference) drives the vote: a gap above the
validator's threshold means the update looks distorted and draws a Negative
vote.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import TrainSpec
from .learning import DataShard, ModelParams, local_train
from .protocol import DeviceId, Vote

@dataclass(frozen=True)
class ValidatorState:
    """One validator's state for one round: its threshold, its test set and
    its reference accuracy on that test set."""

    threshold: float
    test: DataShard
    pretrain_acc: float


@dataclass(frozen=True)
class VadRecord:
    """One (validator, worker) measurement, for calibration and audit."""

    round: int
    validator: DeviceId
    worker: DeviceId
    vad: float
    vote: Vote
    worker_malicious: bool


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
) -> tuple[Vote, float]:
    """Vote on one update; returns (vote, vad).

    ``accuracy`` is ``evaluate(update, state.test)``, measured by the caller
    so that validators sharing a test set evaluate each update once.
    Negative iff vad exceeds the validator's threshold. With a threshold of
    1.0 every vote is Positive, since vad can never exceed 1.
    """
    vad = state.pretrain_acc - accuracy
    vote = Vote.NEGATIVE if vad > state.threshold else Vote.POSITIVE
    return vote, vad


def malicious_flip(vote: Vote) -> Vote:
    """What a compromised validator reports instead of its honest vote."""
    return Vote.NEGATIVE if vote is Vote.POSITIVE else Vote.POSITIVE


def suggest_threshold(records: Sequence[VadRecord]) -> dict:
    """Threshold suggestion from a calibration run's vad scatter.

    Midpoint between the 90th percentile of legitimate-worker vads and the
    10th percentile of malicious-worker vads; both populations must be
    present.
    """
    legit = [r.vad for r in records if not r.worker_malicious]
    malicious = [r.vad for r in records if r.worker_malicious]
    if not legit or not malicious:
        raise ValueError("need both legitimate-worker and malicious-worker vad records")
    legit_p90 = float(np.percentile(legit, 90))
    malicious_p10 = float(np.percentile(malicious, 10))
    return {
        "suggested_vh": (legit_p90 + malicious_p10) / 2.0,
        "legit_vad_p90": legit_p90,
        "malicious_vad_p10": malicious_p10,
        "n_legit": len(legit),
        "n_malicious": len(malicious),
    }
