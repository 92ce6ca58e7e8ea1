import csv
import dataclasses

import numpy as np
import pytest
from conftest import csv_writer_bytes, vad_rows

from vbfl.config import SimConfig, TrainSpec
from vbfl.learning import (
    DataShard,
    evaluate,
    init_global_model,
    inject_gaussian_noise,
    local_train,
    local_train_many,
    softmax_arch,
)
from vbfl.orchestrator import VAD_CSV_FIELDS, Simulation, write_vad_csv
from vbfl.presets import get_preset
from vbfl.validation import (
    ValidatorState,
    VoteTable,
    pretrain_one_epoch,
    suggest_threshold,
    validate_by_voting,
)


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture
def vstate(two_class_shards):
    _, test = two_class_shards
    return ValidatorState(threshold=0.08, test=test, pretrain_acc=np.array([0.5]))


@pytest.fixture
def global_model():
    return init_global_model(softmax_arch(4, 2), 7)


class TestPretrain:
    def test_deterministic(self, two_class_shards, global_model):
        train, _ = two_class_shards
        spec = TrainSpec(5, 0.05, 10)
        a = pretrain_one_epoch(global_model, train, spec, rng(3))
        b = pretrain_one_epoch(global_model, train, spec, rng(3))
        assert a == b

    def test_single_epoch_used(self, two_class_shards, global_model):
        # The reference comes from exactly one epoch regardless of the
        # round's worker epoch count.
        train, _ = two_class_shards
        got = pretrain_one_epoch(global_model, train, TrainSpec(5, 0.05, 10), rng(3))
        assert got == local_train(global_model, train, TrainSpec(1, 0.05, 10), rng(3))
        assert got != local_train(global_model, train, TrainSpec(5, 0.05, 10), rng(3))

    def test_many_equals_one_by_one(self, two_class_task, global_model):
        # Three validators with shards of two lengths and two start models,
        # their references trained for one epoch in one stacked call: each
        # reference equals its own one-validator pretraining.
        t = two_class_task
        cuts = [(0, 20), (20, 40), (40, 57)]
        trains = [
            DataShard(t.train_x[a:b], t.train_y[a:b]) for a, b in cuts
        ]
        starts = [global_model, init_global_model(softmax_arch(4, 2), 8), global_model]
        spec = TrainSpec(5, 0.05, 10)
        got = local_train_many(starts, trains, spec, [rng(k) for k in range(3)], [1, 1, 1])
        want = [
            pretrain_one_epoch(g, train, spec, rng(k))
            for k, (g, train) in enumerate(zip(starts, trains))
        ]
        assert got == want


class TestVoteRule:
    def mk_state(self, vstate, acc, vh):
        return dataclasses.replace(vstate, pretrain_acc=np.array([acc]), threshold=vh)

    def test_threshold_one_always_positive(self, vstate, global_model):
        # vad can never exceed 1, so a threshold of 1.0 approves everything,
        # even a model with zero accuracy against a perfect reference.
        state = self.mk_state(vstate, 1.0, 1.0)
        noisy = inject_gaussian_noise(global_model, 25.0, rng(1))
        (negative,), (vad,) = validate_by_voting(noisy, state, evaluate(noisy, state.test))
        assert not negative
        assert vad <= 1.0

    def test_large_gap_votes_negative(self, vstate, global_model, two_class_shards):
        train, test = two_class_shards
        trained = local_train(global_model, train, TrainSpec(5, 0.05, 10), rng(0))
        good_acc = evaluate(trained, test)
        assert good_acc > 0.9
        state = self.mk_state(vstate, good_acc, 0.08)
        garbage = inject_gaussian_noise(trained, 100.0, rng(2))
        (negative,), (vad,) = validate_by_voting(garbage, state, evaluate(garbage, test))
        assert vad > 0.08
        assert negative

    def test_small_gap_votes_positive(self, vstate, global_model, two_class_shards):
        train, test = two_class_shards
        trained = local_train(global_model, train, TrainSpec(5, 0.05, 10), rng(0))
        state = self.mk_state(vstate, evaluate(trained, test) + 0.02, 0.08)
        (negative,), (vad,) = validate_by_voting(trained, state, evaluate(trained, test))
        assert vad == pytest.approx(0.02)
        assert not negative

    def test_measured_accuracy_gives_the_same_vote(self, vstate, global_model, shard_reads):
        # The vote comes from the accuracy passed in; the test set is not read.
        state = self.mk_state(vstate, 0.9, 0.08)
        negative, vad = validate_by_voting(global_model, state, 0.5)
        assert negative.tolist() == [True] and vad.tolist() == [0.9 - 0.5]
        negative, vad = validate_by_voting(global_model, state, 0.85)
        assert negative.tolist() == [False] and vad.tolist() == [0.9 - 0.85]
        assert shard_reads[id(state.test)] == 0

    def test_group_votes_as_each_validator_alone(self, vstate, global_model):
        # A group's validators share the update's accuracy; each entry is
        # the one-validator rule on that validator's reference accuracy.
        refs = [0.3, 0.58, 0.6, 0.95]
        group = dataclasses.replace(vstate, pretrain_acc=np.array(refs), threshold=0.08)
        negative, vad = validate_by_voting(global_model, group, 0.5)
        alone = [
            validate_by_voting(global_model, self.mk_state(vstate, r, 0.08), 0.5) for r in refs
        ]
        assert negative.tolist() == [n for (n,), _ in alone] == [False, False, True, True]
        assert vad.tolist() == [v for _, (v,) in alone] == [r - 0.5 for r in refs]

    def test_monotone_in_threshold(self, vstate, global_model):
        # Raising the threshold can only turn Negative votes Positive.
        state0 = self.mk_state(vstate, 0.9, 0.0)
        update = inject_gaussian_noise(global_model, 4.0, rng(5))
        accuracy = evaluate(update, state0.test)
        votes = []
        for vh in np.linspace(-1.0, 1.0, 21):
            state = dataclasses.replace(state0, threshold=float(vh))
            votes.append(bool(validate_by_voting(update, state, accuracy)[0][0]))
        seen_positive = False
        for negative in votes:
            if not negative:
                seen_positive = True
            else:
                assert not seen_positive, "a Positive flipped back to Negative"

    def test_vad_bounds(self, vstate, global_model):
        for acc in (0.0, 0.37, 1.0):
            state = self.mk_state(vstate, acc, 0.05)
            _, vad = validate_by_voting(global_model, state, evaluate(global_model, state.test))
            assert -1.0 <= vad.item() <= 1.0


def table(vad, negative, malicious, round_no=1) -> VoteTable:
    """A vote table with validators 0x05.., 0x06.., ... and workers 0x01.., 0x02.., ..."""
    vad, negative = np.array(vad, dtype=float), np.array(negative, dtype=bool)
    return VoteTable(
        round=round_no,
        validators=tuple(bytes([5 + i]) * 16 for i in range(vad.shape[0])),
        workers=tuple(bytes([1 + j]) * 16 for j in range(vad.shape[1])),
        worker_malicious=np.array(malicious, dtype=bool),
        vad=vad,
        negative=negative,
    )


class TestVadLog:
    def tables(self):
        return [table([[0.42, -0.01], [0.3, 0.1]], [[True, False], [True, True]], [True, False])]

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "vad.csv"
        write_vad_csv(self.tables(), path)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 4
        assert rows[0]["vote"] == "N" and rows[1]["vote"] == "P"
        assert rows[0]["worker_malicious"] == "1" and rows[3]["worker_malicious"] == "0"
        assert float(rows[0]["vad"]) == 0.42
        # Rows run by round, then validator, then worker.
        v, w = "05" * 16, "01" * 16
        assert [(r["validator"] == v, r["worker"] == w) for r in rows] == [
            (True, True), (True, False), (False, True), (False, False)
        ]
        assert rows[3]["vad"] == repr(0.1)

    def test_bytes_equal_csv_writer_output(self, tmp_path):
        # Each vad is formatted as csv.writer formats a float, by repr;
        # -0.0 keeps its sign even beside an equal 0.0.
        tables = [
            table([[1e-05, -0.0, 0.0], [0.1 + 0.2, 0.0, -0.0]],
                  [[False, False, True], [True, False, False]], [False, True, False]),
            table([[0.42, -0.01, 0.5]], [[True, False, False]], [True, False, False], round_no=2),
        ]
        path = tmp_path / "vad.csv"
        write_vad_csv(tables, path)
        assert path.read_bytes() == csv_writer_bytes(VAD_CSV_FIELDS, vad_rows(tables))
        assert [line.split(",")[3] for line in path.read_text().splitlines()[1:4]] == [
            "1e-05", "-0.0", "0.0"
        ]
        assert "0.30000000000000004" in path.read_text()

    def test_empty_run_header_only(self, tmp_path):
        path = tmp_path / "vad.csv"
        write_vad_csv([], path)
        lines = path.read_text().splitlines()
        assert lines == ["round,validator,worker,vad,vote,worker_malicious"]

    def test_row_count_full_delivery(self, tiny_dataset):
        # With zero delay every worker transaction reaches every validator,
        # so rounds x workers x validators votes accumulate.
        config = SimConfig(
            rounds=4,
            master_seed=5,
            dataset=tiny_dataset,
            arch="softmax",
            train=TrainSpec(epochs=1, learning_rate=0.05, batch_size=10),
        )
        sim = Simulation(config)
        sim.run()
        assert [t.vad.shape for t in sim.vote_tables] == [(5, 12)] * 4

    def test_suggestion_needs_both_populations(self):
        legit_only = table([[-0.01], [0.1]], [[False], [True]], [False])
        with pytest.raises(ValueError):
            suggest_threshold([legit_only])
        with pytest.raises(ValueError):
            suggest_threshold([])

    def test_suggestion_midpoint(self):
        legit = [0.0 + i * 0.001 for i in range(10)]
        mal = [0.5 + i * 0.001 for i in range(10)]
        tables = [
            table([legit[:6] + mal[:4]], [[False] * 10], [False] * 6 + [True] * 4),
            table([mal[4:] + legit[6:]], [[False] * 10], [True] * 6 + [False] * 4, 2),
        ]
        got = suggest_threshold(tables)
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
        mal = np.concatenate([t.vad[:, t.worker_malicious].ravel() for t in sim.vote_tables])
        legit = np.concatenate([t.vad[:, ~t.worker_malicious].ravel() for t in sim.vote_tables])
        assert len(mal) and len(legit)
        assert np.median(mal) > np.median(legit)
        candidates = np.unique(np.concatenate([mal, legit]))
        assert any(
            (mal > t).mean() >= 0.9 and (legit <= t).mean() >= 0.9 for t in candidates
        ), "no threshold separates malicious from legitimate updates"
