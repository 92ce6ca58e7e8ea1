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

from .protocol import (
    Block,
    DeviceId,
    Signer,
    ValidatorTransaction,
    Vote,
    VoteTally,
    seal_block,
)
from .rewards import StakeLedger


class NoEligibleBlock(Exception):
    """Every candidate block was ruled out (empty input or all blacklisted)."""


def aggregate_votes(vtxs: Sequence[ValidatorTransaction]) -> tuple[VoteTally, ...]:
    """Fold validator transactions into one tally per worker, ordered by id.

    A duplicate (validator, worker) vote counts once; the first occurrence
    wins.
    """
    seen: set[tuple[DeviceId, DeviceId]] = set()
    groups: dict[DeviceId, dict] = {}
    for vtx in vtxs:
        key = (vtx.validator, vtx.inner.worker)
        if key in seen:
            continue
        seen.add(key)
        g = groups.setdefault(
            vtx.inner.worker, {"tx": vtx.inner, "pos": 0, "neg": 0, "voters": set()}
        )
        if vtx.vote is Vote.POSITIVE:
            g["pos"] += 1
        else:
            g["neg"] += 1
        g["voters"].add(vtx.validator)
    return tuple(
        VoteTally(g["tx"], g["pos"], g["neg"], frozenset(g["voters"]))
        for _, g in sorted(groups.items())
    )


def build_candidate(
    miner: DeviceId,
    tallies: Sequence[VoteTally],
    miner_reward: int,
    validator_rewards: dict[DeviceId, int],
    prev_hash: bytes,
    round: int,
    signer: Signer,
    tally_section: bytes | None = None,
) -> Block:
    """Assemble, hash and sign this miner's candidate block for the round.

    ``tally_section``, when given, is ``encode_tallies(tallies)``, which
    candidates built on the same tallies encode once.
    """
    block = Block(
        round=round,
        miner=miner,
        prev_hash=prev_hash,
        tallies=tallies,
        miner_reward=miner_reward,
        validator_rewards=validator_rewards,
    )
    return seal_block(block, signer, tally_section)


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
    if len(miners) == 0:
        raise ValueError("the race needs at least one miner")
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
    blacklist: frozenset[DeviceId] = frozenset(),
) -> list[Block]:
    """Own candidate plus propagated blocks that arrive in time.

    Blocks from blacklisted miners are dropped at receipt. An unlimited
    deadline (math.inf) collects everything.
    """
    kept = [
        b
        for b, arrival in propagated
        if arrival <= deadline and b.miner not in blacklist
    ]
    return [own] + sorted(kept, key=lambda b: b.miner)
