"""Vote aggregation, candidate blocks, stake-based selection, mining races.

Stake-based selection picks the candidate whose miner holds the most
accumulated rewards; the mining race is the work-based baseline. The race
is simulated by drawing each miner's time-to-solution (an exponential with
mean ``16**difficulty``, the expected attempt count for a leading-zero-nibble
target at one attempt per unit of time) rather than literally grinding
nonces. Every miner hashes at the same rate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .protocol import Block, DeviceId, Vote, VoteTally, WorkerTransaction
from .rewards import StakeLedger


class NoEligibleBlock(Exception):
    """Every candidate block was ruled out (empty input or all blacklisted)."""


def aggregate_votes(
    txs: Sequence[WorkerTransaction],
    validators: Sequence[DeviceId],
    kept: np.ndarray,
    votes: np.ndarray,
) -> tuple[VoteTally, ...]:
    """One tally per worker transaction with a counted vote, ordered by id.

    ``kept`` (validators × txs, bool) marks the votes a miner verified, and
    ``votes`` holds the vote value each of those signed (``Vote.value``);
    entries outside ``kept`` are ignored. A value that is neither Positive
    nor Negative counts for nothing.
    """
    positive = kept & (votes == Vote.POSITIVE.value)
    negative = kept & (votes == Vote.NEGATIVE.value)
    pos, neg = positive.sum(axis=0).tolist(), negative.sum(axis=0).tolist()
    tallies = [
        VoteTally(tx, p, n, {v for v, c in zip(validators, column) if c})
        for tx, p, n, column in zip(txs, pos, neg, (positive | negative).T.tolist())
        if p + n
    ]
    return tuple(sorted(tallies, key=lambda t: t.worker))


def build_candidate(
    miner: DeviceId,
    tallies: Sequence[VoteTally],
    miner_reward: int,
    validator_rewards: dict[DeviceId, int],
    prev_hash: bytes,
    round: int,
) -> Block:
    """This miner's unsealed candidate block for the round.

    Selection reads only the miner and the round, so a candidate is hashed
    and signed (:func:`~vbfl.protocol.seal_block`) only once a miner adopts it.
    """
    return Block(
        round=round,
        miner=miner,
        prev_hash=prev_hash,
        tallies=tallies,
        miner_reward=miner_reward,
        validator_rewards=validator_rewards,
    )


def pos_select(blocks: Sequence[Block], ledger: StakeLedger) -> Block:
    """The block whose miner holds the most stake; ties go to the lowest id.

    Blocks from miners the selecting device has blacklisted are never
    chosen. Raises NoEligibleBlock when nothing remains.
    """
    if len(blocks) == 0:
        raise NoEligibleBlock("no candidate blocks to select from")
    if len({b.round for b in blocks}) != 1:
        raise ValueError("candidate blocks span multiple rounds")
    eligible = [b for b in blocks if b.miner not in ledger.blacklist]
    if not eligible:
        raise NoEligibleBlock("all candidate blocks came from blacklisted miners")
    return min(eligible, key=lambda b: (-ledger.stake_of(b.miner), b.miner))


def pow_race(
    difficulty: int,
    miners: Sequence[DeviceId],
    rng: np.random.Generator,
) -> tuple[DeviceId, dict[DeviceId, float]]:
    """Simulated mining race; returns the winner and every miner's time.

    ``difficulty`` counts leading zero nibbles. Times are drawn in
    ascending miner-id order so the draw is independent of caller
    ordering. Difficulty 0 is a free target: everyone solves at time zero
    and the lowest id wins.
    """
    if difficulty < 0 or difficulty > 64:
        raise ValueError("difficulty must be within the hash's nibble count")
    ordered = sorted(miners)
    if difficulty == 0:
        times = {m: 0.0 for m in ordered}
    else:
        scale = 16.0 ** difficulty
        times = {m: float(rng.exponential(scale)) for m in ordered}
    winner = min(ordered, key=lambda m: (times[m], m))
    return winner, times


def collect_blocks(
    own: Block,
    propagated: Sequence[tuple[Block, float]],
    deadline: float,
) -> list[Block]:
    """Own candidate plus propagated blocks that arrive in time, in the
    order given.

    An unlimited deadline (math.inf) collects everything; blocks from
    blacklisted miners are left to :func:`pos_select`, which ranks the
    distinct miners by (stake, miner id), so the order never matters.
    """
    return [own] + [b for b, arrival in propagated if arrival <= deadline]
