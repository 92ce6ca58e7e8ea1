import csv
import dataclasses

import numpy as np
import pytest

from vbfl.learning import (
    DataShard,
    TrainSpec,
    evaluate,
    init_global_model,
    inject_gaussian_noise,
    local_train,
    softmax_arch,
)
from vbfl.orchestrator import SimConfig, Simulation
from vbfl.presets import get_preset
from vbfl.protocol import Vote
from vbfl.validation import (
    VadRecord,
    ValidatorState,
    malicious_flip,
    pretrain_many,
    pretrain_one_epoch,
    reference_from_global,
    suggest_threshold,
    validate_by_voting,
    write_vad_csv,
)


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture
def vstate(two_class_shards):
    train, test = two_class_shards
    return ValidatorState(validator=b"\x05" * 16, threshold=0.08, train=train, test=test)


@pytest.fixture
def global_model():
    return init_global_model(softmax_arch(4, 2), 7)


class TestPretrain:
    def test_deterministic(self, vstate, global_model):
        spec = TrainSpec(5, 0.05, 10)
        a = pretrain_one_epoch(global_model, vstate, spec, rng(3))
        b = pretrain_one_epoch(global_model, vstate, spec, rng(3))
        assert a.pretrain_acc == b.pretrain_acc

    def test_single_epoch_used(self, vstate, global_model):
        # The reference comes from exactly one epoch regardless of the
        # round's worker epoch count.
        spec = TrainSpec(5, 0.05, 10)
        got = pretrain_one_epoch(global_model, vstate, spec, rng(3))
        one = local_train(global_model, vstate.train, TrainSpec(1, 0.05, 10), rng(3))
        assert got.pretrain_acc == evaluate(one, vstate.test)

    def test_in_unit_range(self, vstate, global_model):
        got = pretrain_one_epoch(global_model, vstate, TrainSpec(1, 0.05, 10), rng(0))
        assert 0.0 <= got.pretrain_acc <= 1.0

    def test_many_equals_one_by_one(self, two_class_task, global_model):
        # Three validators with shards of two lengths and two start models:
        # each reference equals its own one-validator pretraining.
        t = two_class_task
        cuts = [(0, 20), (20, 40), (40, 57)]
        states = [
            ValidatorState(
                validator=bytes([k]) * 16, threshold=0.08,
                train=DataShard(t.train_x[a:b], t.train_y[a:b], shard_of=bytes([k]) * 16),
                test=DataShard(t.test_x, t.test_y),
            )
            for k, (a, b) in enumerate(cuts)
        ]
        starts = [global_model, init_global_model(softmax_arch(4, 2), 8), global_model]
        spec = TrainSpec(5, 0.05, 10)
        got = pretrain_many(starts, states, spec, [rng(k) for k in range(3)])
        want = [
            pretrain_one_epoch(g, s, spec, rng(k)) for k, (g, s) in enumerate(zip(starts, states))
        ]
        assert got == want

    def test_legacy_reference_is_global_accuracy(self, vstate, global_model):
        got = reference_from_global(global_model, vstate)
        assert got.pretrain_acc == evaluate(global_model, vstate.test)


class TestVoteRule:
    def mk_state(self, vstate, acc, vh):
        return dataclasses.replace(vstate, pretrain_acc=acc, threshold=vh)

    def test_threshold_one_always_positive(self, vstate, global_model):
        # vad can never exceed 1, so a threshold of 1.0 approves everything,
        # even a model with zero accuracy against a perfect reference.
        state = self.mk_state(vstate, 1.0, 1.0)
        noisy = inject_gaussian_noise(global_model, 25.0, rng(1))
        vote, vad = validate_by_voting(noisy, state, evaluate(noisy, state.test))
        assert vote is Vote.POSITIVE
        assert vad <= 1.0

    def test_large_gap_votes_negative(self, vstate, global_model, two_class_shards):
        train, test = two_class_shards
        trained = local_train(global_model, train, TrainSpec(5, 0.05, 10), rng(0))
        good_acc = evaluate(trained, test)
        assert good_acc > 0.9
        state = dataclasses.replace(vstate, pretrain_acc=good_acc, threshold=0.08)
        garbage = inject_gaussian_noise(trained, 100.0, rng(2))
        vote, vad = validate_by_voting(garbage, state, evaluate(garbage, test))
        assert vad > 0.08
        assert vote is Vote.NEGATIVE

    def test_small_gap_votes_positive(self, vstate, global_model, two_class_shards):
        train, test = two_class_shards
        trained = local_train(global_model, train, TrainSpec(5, 0.05, 10), rng(0))
        state = dataclasses.replace(
            vstate, pretrain_acc=evaluate(trained, test) + 0.02, threshold=0.08
        )
        vote, vad = validate_by_voting(trained, state, evaluate(trained, test))
        assert vad == pytest.approx(0.02)
        assert vote is Vote.POSITIVE

    def test_measured_accuracy_gives_the_same_vote(self, vstate, global_model):
        # The vote comes from the accuracy passed in; the test set is not read.
        state = self.mk_state(vstate, 0.9, 0.08)
        reads = state.test.access_count
        assert validate_by_voting(global_model, state, 0.5) == (Vote.NEGATIVE, 0.9 - 0.5)
        assert validate_by_voting(global_model, state, 0.85) == (Vote.POSITIVE, 0.9 - 0.85)
        assert state.test.access_count == reads

    def test_requires_reference(self, vstate, global_model):
        with pytest.raises(RuntimeError):
            validate_by_voting(global_model, vstate, 0.5)

    def test_monotone_in_threshold(self, vstate, global_model):
        # Raising the threshold can only turn Negative votes Positive.
        state0 = self.mk_state(vstate, 0.9, 0.0)
        update = inject_gaussian_noise(global_model, 4.0, rng(5))
        accuracy = evaluate(update, state0.test)
        votes = []
        for vh in np.linspace(-1.0, 1.0, 21):
            state = dataclasses.replace(state0, threshold=float(vh))
            votes.append(validate_by_voting(update, state, accuracy)[0])
        seen_positive = False
        for vote in votes:
            if vote is Vote.POSITIVE:
                seen_positive = True
            else:
                assert not seen_positive, "a Positive flipped back to Negative"

    def test_vad_bounds(self, vstate, global_model):
        for acc in (0.0, 0.37, 1.0):
            state = self.mk_state(vstate, acc, 0.05)
            _, vad = validate_by_voting(global_model, state, evaluate(global_model, state.test))
            assert -1.0 <= vad <= 1.0


class TestFlip:
    def test_flip_positive(self):
        assert malicious_flip(Vote.POSITIVE) is Vote.NEGATIVE

    def test_flip_negative(self):
        assert malicious_flip(Vote.NEGATIVE) is Vote.POSITIVE

    def test_involution(self):
        for v in Vote:
            assert malicious_flip(malicious_flip(v)) is v


class TestVadLog:
    def records(self):
        return [
            VadRecord(1, b"\x05" * 16, b"\x01" * 16, 0.42, Vote.NEGATIVE, True),
            VadRecord(1, b"\x05" * 16, b"\x02" * 16, -0.01, Vote.POSITIVE, False),
        ]

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "vad.csv"
        write_vad_csv(self.records(), path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2
        assert rows[0]["vote"] == "N" and rows[1]["vote"] == "P"
        assert rows[0]["worker_malicious"] == "1"
        assert float(rows[0]["vad"]) == 0.42

    def test_empty_run_header_only(self, tmp_path):
        path = tmp_path / "vad.csv"
        write_vad_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == ["round,validator,worker,vad,vote,worker_malicious"]

    def test_row_count_full_delivery(self, tiny_dataset):
        # With zero delay every worker transaction reaches every validator,
        # so rounds x workers x validators rows accumulate.
        config = SimConfig(
            rounds=4,
            master_seed=5,
            dataset=tiny_dataset,
            arch="softmax",
            train=TrainSpec(epochs=1, learning_rate=0.05, batch_size=10),
        )
        sim = Simulation(config)
        sim.run()
        assert len(sim.vad_records) == 4 * 12 * 5

    def test_suggestion_needs_both_populations(self):
        legit_only = [r for r in self.records() if not r.worker_malicious]
        with pytest.raises(ValueError):
            suggest_threshold(legit_only)

    def test_suggestion_midpoint(self):
        records = []
        for i in range(10):
            records.append(VadRecord(1, b"v", bytes([i]), 0.0 + i * 0.001, Vote.POSITIVE, False))
            records.append(VadRecord(1, b"v", bytes([i]), 0.5 + i * 0.001, Vote.NEGATIVE, True))
        got = suggest_threshold(records)
        legit = [r.vad for r in records if not r.worker_malicious]
        mal = [r.vad for r in records if r.worker_malicious]
        want = (np.percentile(legit, 90) + np.percentile(mal, 10)) / 2
        assert got["suggested_vh"] == pytest.approx(want)
        assert got["n_legit"] == got["n_malicious"] == 10


class TestSeparation:
    def test_noisy_updates_separate_from_legitimate(self, tiny_dataset):
        # Desk-scale analogue of the calibration scatter: a threshold
        # splits >=90% of malicious records above and >=90% of legitimate
        # records below.
        preset = get_preset("CALIBRATE_VH")
        config = dataclasses.replace(
            preset.config, rounds=10, master_seed=7, dataset=tiny_dataset,
            arch="softmax", train=TrainSpec(epochs=2, learning_rate=0.05, batch_size=10),
        )
        sim = Simulation(config)
        sim.run()
        mal = np.array([r.vad for r in sim.vad_records if r.worker_malicious])
        legit = np.array([r.vad for r in sim.vad_records if not r.worker_malicious])
        assert len(mal) and len(legit)
        assert np.median(mal) > np.median(legit)
        candidates = np.unique(np.concatenate([mal, legit]))
        assert any(
            (mal > t).mean() >= 0.9 and (legit <= t).mean() >= 0.9 for t in candidates
        ), "no threshold separates malicious from legitimate updates"
