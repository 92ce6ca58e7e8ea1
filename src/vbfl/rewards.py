"""Reward formulas, the stake ledger, worker flagging and blacklisting.

Rewards are integers (unit multiples) so stake comparisons in consensus are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .protocol import Block, DeviceId, GENESIS_MINER, VoteTally


EVENT_FLAGGED = "FLAGGED"
EVENT_STREAK_RESET = "STREAK_RESET"
EVENT_BLACKLISTED = "BLACKLISTED"


def qualified(positives: int, negatives: int) -> bool:
    """Whether a tally's votes qualify its update for reward and averaging:
    a tie does; only strictly more Negative than Positive votes do not."""
    return positives >= negatives


def training_reward(epochs: int, train_size: int, unit: int) -> int:
    """What a qualified worker earns, and so reports as its expected
    reward: epochs x shard size x unit."""
    if min(epochs, train_size, unit) < 1:
        raise ValueError("epochs, train_size and unit must be positive")
    return epochs * train_size * unit


def worker_reward(
    epochs: int, train_size: int, positives: int, negatives: int, unit: int
) -> int:
    """The :func:`training_reward`, gated by the vote tally: 0 unless
    :func:`qualified`."""
    if min(positives, negatives) < 0:
        raise ValueError("vote counts must be non-negative")
    due = training_reward(epochs, train_size, unit)
    return due if qualified(positives, negatives) else 0


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


def validator_reward(n_verified_votes: int, unit: int) -> int:
    """Duty reward: a verification and a validation reward of one unit
    each per verified vote."""
    return 2 * n_verified_votes * unit


@dataclass
class StakeLedger:
    """Per-device accumulated rewards, flag streaks and the blacklist.

    Stake only ever grows. The flag streak counts the device's consecutive
    flagged tallies: a tally that pays nothing extends it and one that pays
    resets it. A block without the device's tally neither extends nor
    resets it, since a validator, a miner or a worker whose update was not
    tallied shows neither malice nor legitimacy. Reaching ``kick_r`` puts
    the device on the blacklist, which freezes its stake and excludes it
    from all further participation.
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
    ledger: StakeLedger, block: Block
) -> tuple[StakeLedger, tuple[tuple[DeviceId, str], ...]]:
    """Process one legitimate block: credit rewards, update flags, blacklist.

    Worker rewards are recomputed from the epochs and shard size embedded in
    each tally's transaction; a self-reported expected reward that disagrees
    is treated as dishonest reporting (reward denied, worker flagged), as is
    an unqualified tally. Every other tallied worker has its streak reset.
    Returns the new ledger and the block's (device, event) pairs: the
    flagged workers, the streak resets and the newly blacklisted devices,
    in that order, each by id.
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

    for device in flagged:
        new.flag_streak[device] = new.streak_of(device) + 1
    newly_blacklisted = {d for d in flagged if new.streak_of(d) >= new.kick_r} - new.blacklist
    reset = sorted({t.worker for t in block.tallies} - flagged)
    events = [(d, EVENT_FLAGGED) for d in sorted(flagged)]
    events += [(d, EVENT_STREAK_RESET) for d in reset if new.streak_of(d) > 0]
    events += [(d, EVENT_BLACKLISTED) for d in sorted(newly_blacklisted)]
    new.flag_streak.update(dict.fromkeys(reset, 0))
    new.blacklist |= newly_blacklisted
    return new, tuple(events)


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
