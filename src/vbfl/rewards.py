"""Reward formulas, the stake ledger, worker flagging and blacklisting.

Rewards are integers (unit multiples) so stake comparisons in consensus are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .protocol import Block, DeviceId, GENESIS_MINER, VoteTally


def worker_reward(
    epochs: int, train_size: int, positives: int, negatives: int, unit: int
) -> int:
    """Training reward: epochs x shard size x unit, gated by the vote tally.

    A tie counts as qualified; a worker only loses its reward when Negative
    votes strictly outnumber Positive ones.
    """
    if min(epochs, train_size, unit) < 1:
        raise ValueError("epochs, train_size and unit must be positive")
    if min(positives, negatives) < 0:
        raise ValueError("vote counts must be non-negative")
    if positives >= negatives:
        return epochs * train_size * unit
    return 0


def tally_reward(tally: VoteTally, unit: int) -> int:
    """What a tally pays its worker: the :func:`worker_reward` of its
    transaction's epochs and shard size and its votes, when the worker's
    self-reported expected reward equals that; 0 otherwise."""
    tx = tally.tx
    due = worker_reward(tx.epochs, tx.train_size, tally.positives, tally.negatives, unit)
    return due if tx.expected_reward == due else 0


def miner_reward(n_verified_vtx: int, unit: int) -> int:
    """Duty reward: one unit per verified validator transaction."""
    if n_verified_vtx < 0:
        raise ValueError("count must be non-negative")
    return n_verified_vtx * unit


@dataclass
class StakeLedger:
    """Per-device accumulated rewards, flag streaks and the blacklist.

    Stake only ever grows. The flag streak counts consecutive *worker-serving*
    rounds in which the device was flagged; rounds spent as validator or
    miner neither extend nor reset it, since a device submits no model in
    those rounds and so can demonstrate neither malice nor legitimacy.
    Reaching ``kick_r`` puts the device on the blacklist, which freezes its
    stake and excludes it from all further participation.
    """

    unit_reward: int = 1
    kick_r: int = 6
    stake: dict[DeviceId, int] = field(default_factory=dict)
    flag_streak: dict[DeviceId, int] = field(default_factory=dict)
    blacklist: frozenset[DeviceId] = frozenset()

    def stake_of(self, device: DeviceId) -> int:
        return self.stake.get(device, 0)

    def streak_of(self, device: DeviceId) -> int:
        return self.flag_streak.get(device, 0)

    def clone(self) -> "StakeLedger":
        return replace(self, stake=dict(self.stake), flag_streak=dict(self.flag_streak))

    def _credit(self, device: DeviceId, amount: int):
        if amount == 0 or device in self.blacklist:
            return
        self.stake[device] = self.stake.get(device, 0) + amount


def apply_block(
    ledger: StakeLedger,
    block: Block,
    workers: Sequence[DeviceId],
) -> tuple[StakeLedger, frozenset[DeviceId], frozenset[DeviceId]]:
    """Process one legitimate block: credit rewards, update flags, blacklist.

    Worker rewards are recomputed from the epochs and shard size embedded in
    each tally's transaction; a self-reported expected reward that disagrees
    is treated as dishonest reporting (reward denied, worker flagged), as is
    a tally where Negative votes outnumber Positive ones. Returns the new
    ledger plus the flagged and newly blacklisted device sets. Of the round's
    sorted ``workers``, those not flagged have their streak reset.
    """
    new = ledger.clone()
    unit = new.unit_reward
    flagged: set[DeviceId] = set()

    for tally in block.tallies:
        due = tally_reward(tally, unit)
        if due > 0:
            new._credit(tally.worker, due)
        else:
            flagged.add(tally.worker)

    for validator, reward in block.validator_rewards:
        new._credit(validator, reward)
    if block.miner != GENESIS_MINER:
        new._credit(block.miner, block.miner_reward)

    newly_blacklisted: set[DeviceId] = set()
    for device in flagged:
        streak = new.flag_streak.get(device, 0) + 1
        new.flag_streak[device] = streak
        if streak >= new.kick_r and device not in new.blacklist:
            newly_blacklisted.add(device)
    for device in workers:
        if device not in flagged:
            new.flag_streak[device] = 0
    if newly_blacklisted:
        new.blacklist = new.blacklist | newly_blacklisted

    return new, frozenset(flagged), frozenset(newly_blacklisted)


def block_reward_total(
    block: Block, unit: int, blacklist: frozenset[DeviceId] = frozenset()
) -> int:
    """Sum of all qualified rewards a block grants; the conservation oracle.

    ``blacklist`` is the crediting ledger's blacklist before the block: like
    :meth:`StakeLedger._credit`, the oracle pays its members nothing.
    """
    total = sum(tally_reward(t, unit) for t in block.tallies if t.worker not in blacklist)
    total += sum(r for v, r in block.validator_rewards if v not in blacklist)
    if block.miner != GENESIS_MINER and block.miner not in blacklist:
        total += block.miner_reward
    return total
