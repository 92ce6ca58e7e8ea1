import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfl.learning import ModelParams, softmax_arch
from vbfl.protocol import Block, VoteTally, WorkerTransaction, ZERO_HASH
from vbfl.rewards import (
    EVENT_BLACKLISTED,
    EVENT_FLAGGED,
    EVENT_STREAK_RESET,
    StakeLedger,
    apply_block,
    block_reward_total,
    miner_reward,
    qualified,
    training_reward,
    validator_reward,
    worker_reward,
)

ARCH = softmax_arch(2, 2)


def dev(n: int) -> bytes:
    return bytes([n]) * 16


def update(seed=0) -> ModelParams:
    return ModelParams(np.random.default_rng(seed).normal(size=6), ARCH)


def wtx(worker, epochs=5, train_size=150, expected=None) -> WorkerTransaction:
    if expected is None:
        expected = epochs * train_size
    return WorkerTransaction(
        round=1,
        worker=dev(worker),
        update=update(worker),
        expected_reward=expected,
        epochs=epochs,
        train_size=train_size,
    )


def tally(worker, pos, neg, **kw) -> VoteTally:
    return VoteTally(wtx(worker, **kw), pos, neg, frozenset(dev(50 + i) for i in range(pos + neg)))


def devices(events, kind) -> frozenset:
    """The devices of one kind of event."""
    return frozenset(d for d, e in events if e == kind)


def make_block(tallies, miner=9, miner_rwd=60, validator_rwds=None, round=1) -> Block:
    return Block(
        round=round,
        miner=dev(miner),
        prev_hash=ZERO_HASH,
        tallies=tuple(tallies),
        miner_reward=miner_rwd,
        validator_rewards=validator_rwds or {},
    )


class TestQualified:
    @pytest.mark.parametrize("pos,neg,want", [(2, 1, True), (2, 2, True), (0, 0, True),
                                              (1, 2, False), (0, 3, False)])
    def test_tie_qualifies_and_a_negative_majority_does_not(self, pos, neg, want):
        assert qualified(pos, neg) is want


class TestTrainingReward:
    @pytest.mark.parametrize("epochs,size,unit,want", [(5, 3000, 1, 15000), (2, 12, 3, 72)])
    def test_values(self, epochs, size, unit, want):
        assert training_reward(epochs, size, unit) == want

    @pytest.mark.parametrize("args", [(0, 10, 1), (1, 0, 1), (1, 10, 0)])
    def test_bad_args(self, args):
        with pytest.raises(ValueError):
            training_reward(*args)


class TestValidatorReward:
    @pytest.mark.parametrize("n,unit,want", [(0, 1, 0), (12, 1, 24), (5, 3, 30)])
    def test_values(self, n, unit, want):
        assert validator_reward(n, unit) == want


class TestWorkerReward:
    def test_qualified(self):
        assert worker_reward(5, 3000, 2, 1, 1) == 15000

    def test_voted_down(self):
        # The two-worker walkthrough: 0 Positive, 3 Negative earns nothing.
        assert worker_reward(5, 3000, 0, 3, 1) == 0

    def test_tie_counts_as_qualified(self):
        assert worker_reward(5, 3000, 2, 2, 1) == 15000

    def test_bad_args(self):
        with pytest.raises(ValueError):
            worker_reward(0, 10, 1, 0, 1)
        with pytest.raises(ValueError):
            worker_reward(1, 10, -1, 0, 1)


class TestMinerReward:
    @pytest.mark.parametrize("n,unit,want", [(60, 1, 60), (0, 1, 0), (7, 3, 21)])
    def test_values(self, n, unit, want):
        assert miner_reward(n, unit) == want

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            miner_reward(-1, 1)


class TestApplyBlock:
    def ledger(self, **kw) -> StakeLedger:
        return StakeLedger(unit_reward=1, kick_r=6, **kw)

    def test_two_worker_walkthrough(self):
        # w1 polls (2 Positive, 1 Negative) and is credited; w2 polls
        # (0 Positive, 3 Negative), earns nothing and picks up a flag.
        block = make_block(
            [tally(1, 2, 1), tally(2, 0, 3)],
            validator_rwds={dev(5): 4, dev(6): 4, dev(7): 4},
        )
        ledger, events = apply_block(self.ledger(), block)
        assert ledger.stake_of(dev(1)) == 750
        assert ledger.stake_of(dev(2)) == 0
        assert events == ((dev(2), EVENT_FLAGGED),)
        assert ledger.streak_of(dev(2)) == 1
        assert ledger.stake_of(dev(9)) == 60
        assert ledger.stake_of(dev(5)) == 4

    def test_reward_recomputed_not_trusted(self):
        # An inflated self-report is denied and treated as a flag.
        block = make_block([tally(3, 3, 0, expected=10**6)])
        ledger, events = apply_block(self.ledger(), block)
        assert ledger.stake_of(dev(3)) == 0
        assert events == ((dev(3), EVENT_FLAGGED),)

    def test_blacklisted_on_kick_r_consecutive_worker_rounds(self):
        ledger = self.ledger()
        for round_no in range(1, 7):
            block = make_block([tally(4, 0, 3)], round=round_no, miner_rwd=0)
            ledger, events = apply_block(ledger, block)
            assert devices(events, EVENT_FLAGGED) == {dev(4)}
            if round_no < 6:
                assert not devices(events, EVENT_BLACKLISTED), (
                    f"blacklisted too early at round {round_no}"
                )
            else:
                assert devices(events, EVENT_BLACKLISTED) == {dev(4)}
        assert dev(4) in ledger.blacklist

    def test_non_worker_round_leaves_streak_unchanged(self):
        ledger = self.ledger(flag_streak={dev(4): 3})
        block = make_block([tally(1, 2, 0)], miner_rwd=0)
        ledger, events = apply_block(ledger, block)
        assert ledger.streak_of(dev(4)) == 3
        assert events == ()

    def test_positive_worker_round_resets_streak(self):
        ledger = self.ledger(flag_streak={dev(4): 5})
        block = make_block([tally(4, 3, 0)], miner_rwd=0)
        ledger, events = apply_block(ledger, block)
        assert events == ((dev(4), EVENT_STREAK_RESET),)
        assert ledger.streak_of(dev(4)) == 0

    def test_untallied_worker_keeps_streak(self):
        # A worker whose transaction reached no validator has no tally: it
        # earns nothing, gets no event and keeps its streak, so withholding
        # an update cannot clear a flag.
        ledger = self.ledger(flag_streak={dev(1): 1, dev(4): 2})
        block = make_block([tally(1, 2, 0)], miner_rwd=0)
        ledger, events = apply_block(ledger, block)
        assert ledger.stake_of(dev(4)) == 0
        assert ledger.streak_of(dev(4)) == 2
        assert events == ((dev(1), EVENT_STREAK_RESET),)

    def test_blacklisted_stake_frozen(self):
        ledger = self.ledger(stake={dev(4): 100}, blacklist=frozenset([dev(4)]))
        block = make_block([tally(4, 3, 0)], miner_rwd=0)
        ledger, _ = apply_block(ledger, block)
        assert ledger.stake_of(dev(4)) == 100

    def test_earnings_decomposition(self):
        block = make_block(
            [tally(1, 2, 1)], miner=9, miner_rwd=60, validator_rwds={dev(5): 24}
        )
        ledger, _ = apply_block(self.ledger(), block)
        # One device per role, so each stake is that role's reward.
        assert ledger.stake_of(dev(1)) == 750
        assert ledger.stake_of(dev(5)) == 24
        assert ledger.stake_of(dev(9)) == 60
        assert set(ledger.stake) == {dev(1), dev(5), dev(9)}

    def test_events_in_order(self):
        # Flags, then streak resets, then blacklistings, each by id; a
        # tallied worker without a streak resets nothing.
        ledger = StakeLedger(kick_r=2, flag_streak={
            dev(2): 1, dev(3): 4, dev(5): 1, dev(6): 1, dev(7): 1,
        })
        block = make_block(
            [tally(7, 0, 2), tally(2, 0, 2), tally(6, 1, 0), tally(3, 2, 0), tally(5, 0, 1),
             tally(1, 1, 0)],
            miner_rwd=0,
        )
        workers = [dev(n) for n in (1, 2, 3, 5, 6, 7)]
        ledger, events = apply_block(ledger, block)
        assert events == (
            (dev(2), EVENT_FLAGGED), (dev(5), EVENT_FLAGGED), (dev(7), EVENT_FLAGGED),
            (dev(3), EVENT_STREAK_RESET), (dev(6), EVENT_STREAK_RESET),
            (dev(2), EVENT_BLACKLISTED), (dev(5), EVENT_BLACKLISTED), (dev(7), EVENT_BLACKLISTED),
        )
        assert [ledger.streak_of(d) for d in workers] == [0, 2, 0, 2, 0, 2]

    def test_input_ledger_unmodified(self):
        before = self.ledger(stake={dev(1): 5})
        block = make_block([tally(1, 1, 0)], miner_rwd=0)
        apply_block(before, block)
        assert before.stake_of(dev(1)) == 5


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 30),   # worker
            st.integers(0, 5),    # positives
            st.integers(0, 5),    # negatives
        ),
        max_size=8,
    ),
    st.integers(0, 100),
    st.frozensets(st.sampled_from([1, 2, 3, 9, 40])),
)
def test_stake_monotone_and_conserved(votes, miner_rwd, blacklisted):
    # Brute-force conservation oracle: total stake increase equals the
    # block's qualified reward total, and no stake ever decreases. Devices
    # the ledger has already blacklisted (workers, the validator, the miner)
    # are paid nothing.
    seen = set()
    tallies = []
    for worker, pos, neg in votes:
        if worker in seen:
            continue
        seen.add(worker)
        tallies.append(tally(worker, pos, neg))
    block = make_block(tallies, miner_rwd=miner_rwd, validator_rwds={dev(40): 7})
    blacklist = frozenset(map(dev, blacklisted))
    start = StakeLedger(unit_reward=1, kick_r=6, stake={dev(1): 3}, blacklist=blacklist)
    after, _ = apply_block(start, block)
    for d in set(start.stake) | set(after.stake):
        assert after.stake_of(d) >= start.stake_of(d)
    increase = sum(after.stake.values()) - sum(start.stake.values())
    assert increase == block_reward_total(block, 1, blacklist)
