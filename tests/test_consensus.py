import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vbfl.consensus import (
    NoEligibleBlock,
    aggregate_votes,
    build_candidate,
    collect_blocks,
    pos_select,
    pow_race,
)
from vbfl.learning import ModelParams, softmax_arch
from vbfl.protocol import (
    Block,
    Blockchain,
    BlockSignatureError,
    StubSigner,
    Vote,
    WorkerTransaction,
    ZERO_HASH,
    append_block,
    make_genesis,
    seal_block,
    verify_block,
)
from vbfl.rewards import StakeLedger

ARCH = softmax_arch(2, 2)

# Frozen winner of the difficulty-1 race with three equal-rate miners and
# stream seed 2024 (derived once from this test's own setup).
RACE_FIXTURE_SEED = 2024


def dev(n: int) -> bytes:
    return bytes([n]) * 16


def update(seed=0) -> ModelParams:
    return ModelParams(np.random.default_rng(seed).normal(size=6), ARCH)


def wtx(worker, round=1) -> WorkerTransaction:
    return WorkerTransaction(
        round=round, worker=dev(worker), update=update(worker),
        expected_reward=750, epochs=5, train_size=150,
    )


def tally_votes(votes):
    """aggregate_votes over (validator, worker, Vote) triples, each distinct
    (validator, worker) pair at most once, as the column input a miner
    builds: validators and workers in id order."""
    validators = sorted({dev(v) for v, _, _ in votes})
    workers = sorted({w for _, w, _ in votes})
    kept = np.zeros((len(validators), len(workers)), dtype=bool)
    signed = np.zeros(kept.shape, dtype=np.uint8)
    for v, w, vote in votes:
        cell = validators.index(dev(v)), workers.index(w)
        kept[cell], signed[cell] = True, vote.value
    return aggregate_votes([wtx(w) for w in workers], validators, kept, signed)


def make_signer(ids=range(32)):
    signer = StubSigner()
    for n in ids:
        signer.register(dev(n), b"s%d" % n)
    return signer


class TestAggregate:
    def test_two_worker_walkthrough(self):
        # Three validators split 2-1 on the first update and vote the second
        # one down unanimously.
        tallies = tally_votes([
            (5, 1, Vote.POSITIVE),
            (6, 1, Vote.NEGATIVE),
            (7, 1, Vote.POSITIVE),
            (5, 2, Vote.NEGATIVE),
            (6, 2, Vote.NEGATIVE),
            (7, 2, Vote.NEGATIVE),
        ])
        assert [(t.positives, t.negatives) for t in tallies] == [(2, 1), (0, 3)]
        assert tallies[0].voters == frozenset(dev(v) for v in (5, 6, 7))

    def test_ordering_by_worker_id(self):
        # Columns out of worker order still give tallies in worker order.
        kept = np.ones((1, 2), dtype=bool)
        signed = np.full((1, 2), Vote.POSITIVE.value, dtype=np.uint8)
        tallies = aggregate_votes([wtx(9), wtx(2)], [dev(5)], kept, signed)
        assert [t.worker for t in tallies] == [dev(2), dev(9)]

    def test_empty(self):
        assert tally_votes([]) == ()
        # A column with no verified vote gives no tally, whatever it holds.
        nothing_kept = np.zeros((2, 3), dtype=bool)
        signed = np.full((2, 3), Vote.POSITIVE.value, dtype=np.uint8)
        txs = [wtx(w) for w in (1, 2, 3)]
        assert aggregate_votes(txs, [dev(5), dev(6)], nothing_kept, signed) == ()

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(20, 26), st.integers(1, 6)), st.booleans(), max_size=30
        )
    )
    def test_matches_bruteforce_recount(self, votes):
        # One vote per (validator, worker) pair: a hop raises on a key sent twice.
        tallies = tally_votes(
            [(v, w, Vote.POSITIVE if p else Vote.NEGATIVE) for (v, w), p in votes.items()]
        )
        by_worker = {}
        for (v, w), p in votes.items():
            by_worker.setdefault(w, []).append((v, p))
        assert len(tallies) == len(by_worker)
        for t in tallies:
            cast = by_worker[t.worker[0]]
            assert t.positives == sum(p for _, p in cast)
            assert t.negatives == len(cast) - t.positives
            assert t.voters == frozenset(dev(v) for v, _ in cast)

    def test_a_vote_value_outside_the_enum_counts_for_nothing(self):
        kept = np.ones((2, 1), dtype=bool)
        signed = np.array([[Vote.NEGATIVE.value], [7]], dtype=np.uint8)
        (t,) = aggregate_votes([wtx(1)], [dev(5), dev(6)], kept, signed)
        assert (t.positives, t.negatives, t.voters) == (0, 1, frozenset([dev(5)]))


class TestBuildCandidate:
    def test_identical_content_across_miners(self):
        # Two honest miners with the same transactions differ only in the
        # miner identity and everything derived from it once sealed.
        signer = make_signer()
        tallies = tally_votes([(5, 1, Vote.POSITIVE), (6, 1, Vote.NEGATIVE)])
        kwargs = dict(
            tallies=tallies, miner_reward=2,
            validator_rewards={dev(5): 2, dev(6): 2},
            prev_hash=ZERO_HASH, round=1,
        )
        a = seal_block(build_candidate(miner=dev(8), **kwargs), signer)
        b = seal_block(build_candidate(miner=dev(9), **kwargs), signer)
        neutral = dict(miner=b"", content_hash=b"", signature=b"")
        assert dataclasses.replace(a, **neutral) == dataclasses.replace(b, **neutral)
        assert a.content_hash != b.content_hash

    def test_candidate_verifies(self):
        signer = make_signer()
        block = build_candidate(
            miner=dev(8), tallies=tally_votes([(5, 1, Vote.POSITIVE)]),
            miner_reward=1, validator_rewards={dev(5): 2},
            prev_hash=ZERO_HASH, round=1,
        )
        assert verify_block(seal_block(block, signer), signer)

    def test_unsealed_candidate_cannot_append(self):
        signer = make_signer()
        chain = Blockchain((make_genesis(update()),))
        block = build_candidate(
            miner=dev(8), tallies=(), miner_reward=0, validator_rewards={},
            prev_hash=chain.tip_hash, round=1,
        )
        assert (block.content_hash, block.signature) == (b"", b"")
        with pytest.raises(BlockSignatureError):
            append_block(chain, block, signer)
        assert len(append_block(chain, seal_block(block, signer), signer)) == 2

    def test_zero_tallies_legal(self):
        signer = make_signer()
        block = seal_block(mk_block(8), signer)
        assert block.tallies == ()
        assert verify_block(block, signer)


def mk_block(miner, round=1) -> Block:
    """An unsealed candidate; selection never reads a hash or a signature."""
    return build_candidate(
        miner=dev(miner), tallies=(), miner_reward=0, validator_rewards={},
        prev_hash=ZERO_HASH, round=round,
    )


class TestPosSelect:
    def test_highest_stake_wins(self):
        blocks = [mk_block(8), mk_block(9)]
        ledger = StakeLedger(stake={dev(8): 10, dev(9): 25})
        assert pos_select(blocks, ledger).miner == dev(9)

    def test_tie_breaks_to_lowest_id(self):
        blocks = [mk_block(9), mk_block(8)]
        assert pos_select(blocks, StakeLedger()).miner == dev(8)

    def test_single_block(self):
        block = mk_block(8)
        assert pos_select([block], StakeLedger()) is block

    def test_empty_rejected(self):
        with pytest.raises(NoEligibleBlock):
            pos_select([], StakeLedger())

    def test_blacklisted_never_selected(self):
        blocks = [mk_block(8), mk_block(9)]
        ledger = StakeLedger(
            stake={dev(8): 100, dev(9): 1}, blacklist=frozenset([dev(8)])
        )
        assert pos_select(blocks, ledger).miner == dev(9)

    def test_all_blacklisted_rejected(self):
        ledger = StakeLedger(blacklist=frozenset([dev(8)]))
        with pytest.raises(NoEligibleBlock):
            pos_select([mk_block(8)], ledger)

    def test_mixed_rounds_rejected(self):
        with pytest.raises(ValueError):
            pos_select([mk_block(8, round=1), mk_block(9, round=2)], StakeLedger())

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(8, 12), st.integers(0, 10**6), min_size=1),
        st.integers(1, 10**6),
    )
    def test_scale_invariant(self, stakes, factor):
        blocks = [mk_block(m) for m in stakes]
        base = pos_select(blocks, StakeLedger(stake={dev(m): s for m, s in stakes.items()}))
        scaled = pos_select(
            blocks, StakeLedger(stake={dev(m): s * factor for m, s in stakes.items()})
        )
        assert base.miner == scaled.miner

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.integers(8, 12), st.integers(0, 3), min_size=1).flatmap(
            lambda stakes: st.tuples(st.just(stakes), st.permutations(sorted(stakes)))
        ),
        st.sets(st.integers(8, 12)),
    )
    def test_input_order_irrelevant(self, stakes_order, blacklist):
        # Distinct miners, as collect_blocks gives them: the pick is the same
        # block for every order of the candidates.
        stakes, order = stakes_order
        blocks = {m: mk_block(m) for m in stakes}
        ledger = StakeLedger(
            stake={dev(m): s for m, s in stakes.items()},
            blacklist=frozenset(dev(m) for m in blacklist),
        )
        assume(not set(stakes) <= blacklist)
        base = pos_select([blocks[m] for m in sorted(stakes)], ledger)
        assert pos_select([blocks[m] for m in order], ledger) is base


class TestPowRace:
    def test_difficulty_zero_instant(self):
        miners = [dev(9), dev(8), dev(10)]
        winner, times = pow_race(0, miners, np.random.default_rng(0))
        assert winner == dev(8)
        assert all(t == 0.0 for t in times.values())

    def test_deterministic_winner_fixture(self):
        miners = [dev(8), dev(9), dev(10)]
        winner_a, times_a = pow_race(1, miners, np.random.default_rng(RACE_FIXTURE_SEED))
        winner_b, times_b = pow_race(1, miners, np.random.default_rng(RACE_FIXTURE_SEED))
        assert winner_a == winner_b and times_a == times_b

    def test_caller_order_irrelevant(self):
        miners = [dev(8), dev(9), dev(10)]
        a = pow_race(1, miners, np.random.default_rng(5))
        b = pow_race(1, list(reversed(miners)), np.random.default_rng(5))
        assert a == b

    def test_mean_time_scales_sixteenfold(self):
        miners = [dev(8)]
        draws = {1: [], 2: []}
        for difficulty in (1, 2):
            rng = np.random.default_rng(99)
            for _ in range(1500):
                _, times = pow_race(difficulty, miners, rng)
                draws[difficulty].append(times[dev(8)])
        ratio = np.mean(draws[2]) / np.mean(draws[1])
        assert abs(ratio - 16.0) <= 1.6

    def test_uniform_rates_give_uniform_winners(self):
        # Chi-square over 1500 races, 2 degrees of freedom; 13.8 is the
        # 0.999 quantile.
        miners = [dev(8), dev(9), dev(10)]
        rng = np.random.default_rng(7)
        counts = {m: 0 for m in miners}
        n = 1500
        for _ in range(n):
            winner, _ = pow_race(1, miners, rng)
            counts[winner] += 1
        expected = n / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 13.816, counts

    def test_bad_params(self):
        for difficulty in (-1, 65):
            with pytest.raises(ValueError):
                pow_race(difficulty, [dev(8)], np.random.default_rng(0))


class TestCollectBlocks:
    def test_unlimited_wait_collects_all(self):
        own = mk_block(8)
        others = [(mk_block(9), 5.0), (mk_block(10), 1e9)]
        got = collect_blocks(own, others, math.inf)
        assert len(got) == 3
        assert got[0] is own

    def test_zero_deadline_with_delays_keeps_own_only(self):
        own = mk_block(8)
        others = [(mk_block(9), 0.5), (mk_block(10), 0.1)]
        assert collect_blocks(own, others, 0.0) == [own]
