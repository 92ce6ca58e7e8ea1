"""Validator voting on worker updates via the one-epoch proxy accuracy gap.

Each round a validator first trains the incoming global model for a single
epoch on its own shard and measures that model's accuracy on its test set.
The gap between this reference accuracy and the accuracy of a worker's
update (``vad``, validation accuracy difference) drives the vote: a gap
above the validator's threshold means the update looks distorted and draws
a Negative vote.

A discarded earlier scheme that compares against the previous global
model's accuracy instead of the one-epoch reference is kept behind the
``legacy`` switch for reproducing its behavior; it is not on the protocol
path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .learning import DataShard, ModelParams, TrainSpec, evaluate, local_train_many
from .protocol import DeviceId, Vote

VAD_CSV_FIELDS = ("round", "validator", "worker", "vad", "vote", "worker_malicious")

SCHEME_VOTING = "voting"
SCHEME_LEGACY = "legacy"


@dataclass(frozen=True)
class ValidatorState:
    """One validator's per-round working state.

    ``pretrain_acc`` is the reference accuracy and must be recomputed from
    the current global model before any vote is cast in a round.
    """

    validator: DeviceId
    threshold: float
    train: DataShard
    test: DataShard
    pretrain_acc: float | None = None


@dataclass(frozen=True)
class VadRecord:
    """One (validator, worker) measurement, for calibration and audit."""

    round: int
    validator: DeviceId
    worker: DeviceId
    vad: float
    vote: Vote
    worker_malicious: bool


def pretrain_many(
    global_params: Sequence[ModelParams],
    states: Sequence[ValidatorState],
    spec: TrainSpec,
    rngs: Sequence[np.random.Generator],
) -> list[ValidatorState]:
    """Set each validator's reference accuracy from one epoch of legitimate
    local training; all train in one ``local_train_many`` call, each from
    its own global model on its own shard with its own generator."""
    one_epoch = replace(spec, epochs=1)
    trained = local_train_many(global_params, [s.train for s in states], one_epoch, rngs)
    return [replace(s, pretrain_acc=evaluate(t, s.test)) for t, s in zip(trained, states)]


def pretrain_one_epoch(
    global_params: ModelParams,
    state: ValidatorState,
    spec: TrainSpec,
    rng: np.random.Generator,
) -> ValidatorState:
    """:func:`pretrain_many` of one validator."""
    return pretrain_many([global_params], [state], spec, [rng])[0]


def reference_from_global(
    global_params: ModelParams, state: ValidatorState
) -> ValidatorState:
    """Legacy reference: the previous global model's own accuracy."""
    return replace(state, pretrain_acc=evaluate(global_params, state.test))


def validate_by_voting(
    update: ModelParams, state: ValidatorState, accuracy: float
) -> tuple[Vote, float]:
    """Vote on one update; returns (vote, vad).

    ``accuracy`` is ``evaluate(update, state.test)``, measured by the caller
    so that validators sharing a test set evaluate each update once.
    Negative iff vad exceeds the validator's threshold. With a threshold of
    1.0 every vote is Positive, since vad can never exceed 1.
    """
    if state.pretrain_acc is None:
        raise RuntimeError("reference accuracy was not computed this round")
    vad = state.pretrain_acc - accuracy
    vote = Vote.NEGATIVE if vad > state.threshold else Vote.POSITIVE
    return vote, vad


def malicious_flip(vote: Vote) -> Vote:
    """What a compromised validator reports instead of its honest vote."""
    return Vote.NEGATIVE if vote is Vote.POSITIVE else Vote.POSITIVE


def write_vad_csv(records: Iterable[VadRecord], path) -> None:
    """Calibration dataset: one row per (round, validator, worker) vote."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VAD_CSV_FIELDS)
        for rec in records:
            writer.writerow(
                (
                    rec.round,
                    rec.validator.hex(),
                    rec.worker.hex(),
                    repr(rec.vad),
                    "P" if rec.vote is Vote.POSITIVE else "N",
                    int(rec.worker_malicious),
                )
            )


def suggest_threshold(records: Sequence[VadRecord]) -> dict:
    """Threshold suggestion from a calibration run's vad scatter.

    Midpoint between the 90th percentile of legitimate-worker vads and the
    10th percentile of malicious-worker vads; both populations must be
    present.
    """
    legit = [r.vad for r in records if not r.worker_malicious]
    malicious = [r.vad for r in records if r.worker_malicious]
    if not legit or not malicious:
        raise ValueError("calibration needs both legitimate and malicious records")
    legit_p90 = float(np.percentile(legit, 90))
    malicious_p10 = float(np.percentile(malicious, 10))
    return {
        "suggested_vh": (legit_p90 + malicious_p10) / 2.0,
        "legit_vad_p90": legit_p90,
        "malicious_vad_p10": malicious_p10,
        "n_legit": len(legit),
        "n_malicious": len(malicious),
    }
