import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfl import learning
from vbfl.config import TrainSpec
from vbfl.errors import ConfigError
from vbfl.learning import (
    DataShard,
    ModelParams,
    TrainingDiverged,
    evaluate,
    fedavg,
    init_global_model,
    inject_gaussian_noise,
    local_train,
    local_train_many,
    mlp_arch,
    param_count,
    parse_arch,
    softmax_arch,
)

# Frozen from one run of the built-in two-class blob fixture
# (dim=4, classes=2, seed=42; init seed 7, batch rng seed 123).
BLOB_UNTRAINED_ACC = 0.21666666666666667
BLOB_TRAINED_ACC = 0.9833333333333333


def rng(seed=0):
    return np.random.default_rng(seed)


class TestArch:
    def test_param_count_softmax(self):
        # d features, K classes: d*K weights + K biases
        assert param_count(softmax_arch(17, 5)) == 17 * 5 + 5

    def test_param_count_mlp(self):
        assert param_count(mlp_arch(8, 6, 3)) == 8 * 6 + 6 + 6 * 3 + 3

    @pytest.mark.parametrize(
        "bad, message",
        [("softmax", "malformed"), ("conv:3-3", "unknown"), ("mlp:4-5", "unknown"),
         ("softmax:0-2", "unknown"), ("x", "malformed")],
    )
    def test_bad_arch_rejected(self, bad, message):
        for _ in range(2):  # a failed parse is not cached
            with pytest.raises(ValueError, match=f"^{message} architecture id: {bad!r}$"):
                parse_arch(bad)


    @pytest.mark.parametrize(
        "spelling",
        ["mlp:0128-16-10", "mlp: 128-16-10", "mlp:1_28-16-10", "mlp:+128-16-10",
         "mlp:\u0661\u0662\u0668-16-10"],
        ids=["leading-zero", "space", "underscore", "plus", "arabic-indic"],
    )
    def test_non_canonical_arch_rejected(self, spelling):
        # Each spelling reads as (128, 16, 10) to int(); only "mlp:128-16-10"
        # may name that layout, or equal parameters would compare unequal.
        assert parse_arch("mlp:128-16-10") == ("mlp", (128, 16, 10))
        named = f"^non-canonical architecture id: {re.escape(repr(spelling))}$"
        with pytest.raises(ValueError, match=named):
            parse_arch(spelling)


class TestModelParams:
    def test_length_checked(self):
        named = "^parameter vector has 7 entries, softmax:2-2 needs 6$"
        with pytest.raises(ValueError, match=named):
            ModelParams(np.zeros(7), softmax_arch(2, 2))

    def test_nan_rejected(self):
        values = np.zeros(param_count(softmax_arch(2, 2)))
        values[0] = np.nan
        with pytest.raises(ValueError, match="^parameter vector contains NaN/Inf$"):
            ModelParams(values, softmax_arch(2, 2))

    def test_equal_only_to_the_same_architecture_and_values(self):
        p = init_global_model(softmax_arch(3, 2), 0)
        assert p == ModelParams(p.values.copy(), p.arch_id)
        assert p != init_global_model(softmax_arch(3, 2), 1)
        assert p != p.arch_id  # another type: ModelParams.__eq__ declines

    def test_immutable(self):
        p = init_global_model(softmax_arch(3, 2), 0)
        with pytest.raises(ValueError):
            p.values[0] = 1.0


class TestDataShard:
    @pytest.mark.parametrize(
        "x, y, message",
        [
            (np.zeros(3), [0, 1, 2], "features must be a 2-D array"),
            (np.zeros((3, 2)), [0, 1], "features and labels disagree in length"),
            (np.zeros((0, 2)), [], "shard is empty"),
            (np.zeros((2, 2)), [0, -1], "labels must be non-negative"),
        ],
        ids=["not-2d", "lengths", "empty", "negative-label"],
    )
    def test_bad_arrays_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DataShard(x, y)


class TestInit:
    def test_deterministic(self):
        a = init_global_model(softmax_arch(6, 3), 99)
        b = init_global_model(softmax_arch(6, 3), 99)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_values(self):
        a = init_global_model(softmax_arch(6, 3), 1)
        b = init_global_model(softmax_arch(6, 3), 2)
        assert not np.array_equal(a.values, b.values)

    def test_small_symmetric_range(self):
        p = init_global_model(softmax_arch(50, 10), 5)
        assert np.all(np.abs(p.values) <= 0.05)


class TestLocalTrain:
    def test_single_example_single_step_matches_manual_sgd(self):
        # One example, batch 1, one epoch: exactly one gradient step, which
        # we can recompute by hand for softmax regression.
        x = np.array([[0.5, -1.0, 2.0]])
        y = np.array([1])
        shard = DataShard(x, y)
        arch = softmax_arch(3, 2)
        start = init_global_model(arch, 3)
        lr = 0.5
        got = local_train(start, shard, TrainSpec(1, lr, 1), rng(0))

        w = start.values[:6].reshape(3, 2)
        b = start.values[6:]
        z = x[0] @ w + b
        p = np.exp(z - z.max())
        p /= p.sum()
        p[y[0]] -= 1.0
        want_w = w - lr * np.outer(x[0], p)
        want_b = b - lr * p
        want = np.concatenate([want_w.ravel(), want_b])
        np.testing.assert_allclose(got.values, want, rtol=1e-12)

    def test_blob_fixture_accuracies(self, two_class_shards):
        train, test = two_class_shards
        start = init_global_model(softmax_arch(4, 2), 7)
        assert evaluate(start, test) == pytest.approx(BLOB_UNTRAINED_ACC, abs=1e-12)
        trained = local_train(start, train, TrainSpec(5, 0.01, 10), rng(123))
        got = evaluate(trained, test)
        assert got == pytest.approx(BLOB_TRAINED_ACC, abs=1e-12)
        assert got > BLOB_UNTRAINED_ACC

    def test_deterministic_across_identical_streams(self, two_class_shards):
        train, _ = two_class_shards
        start = init_global_model(softmax_arch(4, 2), 7)
        spec = TrainSpec(3, 0.05, 10)
        a = local_train(start, train, spec, rng(5))
        b = local_train(start, train, spec, rng(5))
        assert np.array_equal(a.values, b.values)

    def test_input_unmodified(self, two_class_shards):
        train, _ = two_class_shards
        start = init_global_model(softmax_arch(4, 2), 7)
        before = start.values.copy()
        local_train(start, train, TrainSpec(2, 0.1, 10), rng(1))
        assert np.array_equal(start.values, before)

    def test_mlp_trains(self, two_class_shards):
        train, test = two_class_shards
        start = init_global_model(mlp_arch(4, 8, 2), 7)
        trained = local_train(start, train, TrainSpec(5, 0.1, 10), rng(2))
        assert evaluate(trained, test) > evaluate(start, test)

    def test_divergence_raises(self):
        # Extreme feature magnitudes overflow the logits after one update;
        # the NaN/Inf loss must surface as an explicit failure.
        x = np.array([[1e160, 0.0], [-1e160, 1.0]])
        y = np.array([0, 1])
        shard = DataShard(x, y)
        start = init_global_model(softmax_arch(2, 2), 7)
        with pytest.raises(TrainingDiverged):
            local_train(start, shard, TrainSpec(5, 10.0, 2), rng(0))

    def test_parameters_that_overflow_after_the_last_step_raise(self):
        # One full-shard batch: the one loss is finite, and the step it
        # takes, scaled by the huge learning rate, overflows the weights.
        shard = DataShard(np.array([[10.0, -10.0], [-10.0, 10.0]]), np.array([0, 1]))
        start = init_global_model(softmax_arch(2, 2), 7)
        with pytest.raises(TrainingDiverged, match="^parameters diverged"):
            local_train(start, shard, TrainSpec(1, 1e308, 2), rng(0))

    def test_epochs_must_be_positive(self, two_class_shards):
        train, _ = two_class_shards
        start = init_global_model(softmax_arch(4, 2), 7)
        with pytest.raises(ConfigError, match=r"^train\.epochs: must be >= 1"):
            local_train(start, train, TrainSpec(0, 0.1, 1), rng(0))

    def test_batch_larger_than_shard_rejected(self, two_class_shards):
        train, _ = two_class_shards
        start = init_global_model(softmax_arch(4, 2), 7)
        with pytest.raises(ValueError, match="^batch_size exceeds shard size$"):
            local_train(start, train, TrainSpec(1, 0.1, len(train) + 1), rng(0))

    def test_reads_only_its_own_shard(self, two_class_shards, shard_reads):
        train, test = two_class_shards
        other = DataShard(np.zeros((3, 4)), np.zeros(3, dtype=int))
        start = init_global_model(softmax_arch(4, 2), 7)
        local_train(start, train, TrainSpec(1, 0.1, 10), rng(0))
        assert shard_reads[id(other)] == 0
        assert shard_reads[id(train)] > 0


def reference_grad(vec, arch_id, x, y):
    """Per-device 2-D gradient, layer by layer: the arithmetic that stacked
    training must reproduce bit for bit."""
    kind, dims = parse_arch(arch_id)
    n = len(y)

    def output_delta(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        dz = e / e.sum(axis=1, keepdims=True)
        dz[np.arange(n), y] -= 1.0
        return dz / n

    if kind == "softmax":
        d, k = dims
        dz = output_delta(x @ vec[: d * k].reshape(d, k) + vec[d * k :])
        return np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])
    d, h, k = dims
    o1, o2, o3 = d * h, d * h + h, d * h + h + h * k
    w2 = vec[o2:o3].reshape(h, k)
    z1 = x @ vec[:o1].reshape(d, h) + vec[o1:o2]
    hidden = np.maximum(z1, 0.0)
    dz2 = output_delta(hidden @ w2 + vec[o3:])
    dhidden = dz2 @ w2.T
    dhidden[z1 <= 0.0] = 0.0
    return np.concatenate(
        [(x.T @ dhidden).ravel(), dhidden.sum(axis=0), (hidden.T @ dz2).ravel(), dz2.sum(axis=0)]
    )


class TestLocalTrainMany:
    SPEC = TrainSpec(3, 0.1, 5)  # 5 divides neither shard length

    @staticmethod
    def devices(archs, sizes=(12, 13, 12, 13)):
        """Distinct start vectors and 12- and 13-row shards, one per device."""
        data = rng(9)
        starts = [init_global_model(arch, seed) for seed, arch in enumerate(archs)]
        shards = [
            DataShard(data.standard_normal((n, 4)), data.integers(0, 3, n)) for n in sizes
        ]
        return starts, shards

    @pytest.mark.parametrize(
        "archs",
        [
            [softmax_arch(4, 3)] * 4,
            [mlp_arch(4, 5, 3)] * 4,
            [softmax_arch(4, 3), mlp_arch(4, 5, 3)] * 2,
        ],
        ids=["softmax", "mlp", "mixed"],
    )
    def test_matches_one_call_per_device(self, archs, shard_reads):
        starts, shards = self.devices(archs)
        rngs = [rng(100 + i) for i in range(len(starts))]
        got = local_train_many(starts, shards, self.SPEC, rngs)
        assert [shard_reads[id(s)] for s in shards] == [1] * len(shards)
        for i, (start, shard) in enumerate(zip(starts, shards)):
            alone = rng(100 + i)
            want = local_train(start, shard, self.SPEC, alone)
            assert got[i].arch_id == want.arch_id
            assert np.array_equal(got[i].values, want.values)
            assert rngs[i].bit_generator.state == alone.bit_generator.state

    @pytest.mark.parametrize("arch", [softmax_arch(4, 3), mlp_arch(4, 5, 3)])
    def test_matches_plain_2d_sgd(self, arch):
        starts, shards = self.devices([arch] * 4)
        got = local_train_many(starts, shards, self.SPEC, [rng(i) for i in range(4)])
        for i, (start, shard) in enumerate(zip(starts, shards)):
            x, y = shard.arrays()
            vec, order_rng = start.values.copy(), rng(i)
            for _ in range(self.SPEC.epochs):
                order = order_rng.permutation(len(y))
                for lo in range(0, len(y), self.SPEC.batch_size):
                    idx = order[lo : lo + self.SPEC.batch_size]
                    vec -= self.SPEC.learning_rate * reference_grad(vec, arch, x[idx], y[idx])
            assert np.array_equal(got[i].values, vec)

    def test_empty(self):
        assert local_train_many([], [], self.SPEC, []) == []

    def test_one_diverging_member_raises(self):
        arch = softmax_arch(2, 2)
        starts = [init_global_model(arch, seed) for seed in range(3)]
        shards = [
            DataShard([[0.1, 0.2], [0.3, -0.1]], [0, 1]),
            DataShard([[1e160, 0.0], [-1e160, 1.0]], [0, 1]),
            DataShard([[0.5, 0.5], [-0.2, 0.4]], [1, 0]),
        ]
        with pytest.raises(TrainingDiverged):
            local_train_many(starts, shards, TrainSpec(5, 10.0, 2), [rng(i) for i in range(3)])

    def test_one_diverging_one_epoch_member_raises(self):
        # The diverging device trains for one epoch, the others for five: it
        # is last in the stack's epoch order, and its divergence still raises.
        arch = softmax_arch(2, 2)
        starts = [init_global_model(arch, seed) for seed in range(3)]
        shards = [
            DataShard([[0.1, 0.2], [0.3, -0.1]], [0, 1]),
            DataShard([[1e160, 0.0], [-1e160, 1.0]] * 2, [0, 1] * 2),
            DataShard([[0.5, 0.5], [-0.2, 0.4]], [1, 0]),
        ]
        spec = TrainSpec(5, 10.0, 2)
        with pytest.raises(TrainingDiverged):
            local_train_many(starts, shards, spec, [rng(i) for i in range(3)], [5, 1, 5])

    def test_mixed_epochs_match_one_call_per_device(self):
        # Two row counts, two architectures and epoch counts that tie within
        # a group: each device gets the bytes and leaves its generator where
        # training it alone for its own epochs does.
        archs = [softmax_arch(4, 3), mlp_arch(4, 5, 3)] * 4
        sizes = (12, 13, 12, 13, 13, 12, 12, 13)
        epochs = [1, 3, 2, 1, 3, 2, 3, 1]
        starts, shards = self.devices(archs, sizes)
        rngs = [rng(100 + i) for i in range(len(starts))]
        got = local_train_many(starts, shards, self.SPEC, rngs, epochs)
        for i, (start, shard) in enumerate(zip(starts, shards)):
            alone = rng(100 + i)
            spec = TrainSpec(epochs[i], self.SPEC.learning_rate, self.SPEC.batch_size)
            want = local_train(start, shard, spec, alone)
            assert got[i].arch_id == want.arch_id
            assert np.array_equal(got[i].values, want.values)
            assert rngs[i].bit_generator.state == alone.bit_generator.state

    @pytest.mark.parametrize("count", [0, -2])
    def test_epoch_count_below_one_rejected(self, count):
        starts, shards = self.devices([softmax_arch(4, 3)] * 2, sizes=(12, 12))
        with pytest.raises(ValueError, match=f"epoch count {count} "):
            local_train_many(starts, shards, self.SPEC, [rng(0), rng(1)], [2, count])

    def test_one_epoch_count_per_device(self):
        starts, shards = self.devices([softmax_arch(4, 3)] * 2, sizes=(12, 12))
        with pytest.raises(ValueError, match="^need one start, shard and epoch count"):
            local_train_many(starts, shards, self.SPEC, [rng(0), rng(1)], [2])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("feature_dim", "shard feature dimension does not match the model"),
            ("label_range", "shard labels exceed the model's class count"),
            ("batch_over_rows", "batch_size exceeds shard size"),
        ],
    )
    def test_one_bad_member_rejected(self, bad, message):
        starts, shards = self.devices([softmax_arch(4, 3)] * 3, sizes=(12, 13, 12))
        shards[1] = {
            "feature_dim": DataShard(np.zeros((13, 5)), np.zeros(13, dtype=int)),
            "label_range": DataShard(np.zeros((13, 4)), np.full(13, 3)),
            "batch_over_rows": DataShard(np.zeros((4, 4)), np.zeros(4, dtype=int)),
        }[bad]
        with pytest.raises(ValueError, match=f"^{message}$"):
            local_train_many(starts, shards, self.SPEC, [rng(i) for i in range(3)])

    def test_shared_rng_rejected(self):
        starts, shards = self.devices([softmax_arch(4, 3)] * 2, sizes=(12, 12))
        shared = rng(0)
        with pytest.raises(ValueError, match="distinct rng per device$"):
            local_train_many(starts, shards, self.SPEC, [shared, shared])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda batch: st.tuples(
                st.just(batch),
                st.lists(
                    # (mlp?, rows, epochs): rows from batch up, so some shards
                    # end on a partial batch and some share a row count.
                    st.tuples(st.booleans(), st.integers(batch, batch + 5), st.integers(1, 3)),
                    min_size=1,
                    max_size=6,
                ),
            )
        ),
        st.integers(0, 2**16),
    )
    def test_property_matches_one_call_per_device(self, case, seed):
        batch, devices = case
        data = rng(seed)
        archs = [mlp_arch(3, 4, 3) if mlp else softmax_arch(3, 3) for mlp, _, _ in devices]
        starts = [init_global_model(arch, seed + i) for i, arch in enumerate(archs)]
        shards = [
            DataShard(data.standard_normal((n, 3)), data.integers(0, 3, n)) for _, n, _ in devices
        ]
        epochs = [e for _, _, e in devices]
        spec = TrainSpec(1, 0.1, batch)
        rngs = [rng(seed + 100 + i) for i in range(len(devices))]
        got = local_train_many(starts, shards, spec, rngs, epochs)
        for i, (start, shard) in enumerate(zip(starts, shards)):
            alone = rng(seed + 100 + i)
            want = local_train(start, shard, TrainSpec(epochs[i], 0.1, batch), alone)
            assert got[i].values.tobytes() == want.values.tobytes()
            assert rngs[i].bit_generator.state == alone.bit_generator.state

    @staticmethod
    def blowup(x_scale, label):
        """Softmax start (weights +-1e300) and a 2-row shard of features
        x_scale and label ``label``: a finite start whose loss is inf at
        x_scale 1e8 (the logits are +-1e308, so the label's logit minus the
        max overflows) and NaN at x_scale 1e300 (the logits are +-inf)."""
        arch = softmax_arch(1, 2)
        start = ModelParams(np.array([1e300, -1e300, 0.0, 0.0]), arch)
        return start, DataShard([[x_scale], [x_scale]], [label, label])

    @pytest.mark.parametrize(
        "order, first", [((1e8, 1e300), "inf"), ((1e300, 1e8), "nan")], ids=["inf", "nan"]
    )
    def test_divergence_names_the_first_non_finite_loss(self, order, first):
        calm = (init_global_model(softmax_arch(1, 2), 0), DataShard([[0.5], [-0.5]], [0, 1]))
        starts, shards = zip(calm, *(self.blowup(scale, 1) for scale in order))
        with pytest.raises(TrainingDiverged, match=f"loss diverged to {first}$"):
            local_train_many(starts, shards, TrainSpec(1, 0.1, 2), [rng(i) for i in range(3)])

    def test_layer_views_built_per_group_and_epoch_count(self, monkeypatch):
        # Two groups (12 and 13 rows); epoch counts {1, 2, 4} and {3}. Each
        # (group, prefix size) builds the views of its parameter and gradient
        # rows once, however many steps it takes.
        builds = []
        unpack = learning._unpack
        monkeypatch.setattr(learning, "_unpack", lambda *a: builds.append(a) or unpack(*a))
        starts, shards = self.devices([mlp_arch(4, 5, 3)] * 5, sizes=(12, 12, 12, 13, 13))
        epochs = [1, 2, 4, 3, 3]
        local_train_many(starts, shards, TrainSpec(1, 0.1, 2), [rng(i) for i in range(5)], epochs)
        steps = 4 * 6 + 3 * 7  # epochs of the longest member × steps per epoch, per group
        assert len(builds) <= 2 * (3 + 1) < steps


class TestEvaluate:
    def test_perfect_model(self):
        # A model whose logits are rigged to match the labels exactly.
        x = np.eye(3)
        y = np.array([0, 1, 2])
        test = DataShard(x, y)
        w = np.eye(3) * 10.0
        params = ModelParams(np.concatenate([w.ravel(), np.zeros(3)]), softmax_arch(3, 3))
        assert evaluate(params, test) == 1.0

    def test_zero_params_tie_goes_to_class_zero(self):
        # All-zero logits tie on every class; argmax picks index 0, so the
        # accuracy equals the frequency of label 0 (independent recount).
        from vbfl.datasets import make_blobs_task

        t = make_blobs_task(
            dim=6, classes=10, train_per_class=5, test_per_class=17, spread=0.3,
            feature_scale=0.5, seed=3,
        )
        test = DataShard(t.test_x, t.test_y)
        zero = ModelParams(np.zeros(param_count(softmax_arch(6, 10))), softmax_arch(6, 10))
        want = float(np.mean(t.test_y == 0))
        assert evaluate(zero, test) == want

    def test_pure(self, two_class_shards):
        _, test = two_class_shards
        p = init_global_model(softmax_arch(4, 2), 7)
        assert evaluate(p, test) == evaluate(p, test)

    @pytest.mark.parametrize("hidden", [None, 4], ids=["softmax", "mlp"])
    def test_matches_a_plain_forward_and_writes_no_input(self, hidden):
        # evaluate computes in place; the test set and the parameters must
        # come out byte-unchanged, and the accuracy must be that of a plain
        # argmax(relu(x @ W1 + b1) @ W2 + b2).
        r = rng(5)
        dims = (5, 3) if hidden is None else (5, hidden, 3)
        layers = []
        for rows, cols in zip(dims[:-1], dims[1:]):
            layers += [r.normal(size=(rows, cols)), r.normal(size=cols)]
        if hidden is not None:
            layers[1] = -np.abs(layers[1])  # a zero input row leaves no hidden unit on
        layers[-1] = np.array([0.2, 0.7, 0.7])  # so its logits tie on classes 1 and 2
        x = r.normal(size=(40, 5))
        x[:2] = 0.0
        y = r.integers(0, 3, size=40)
        y[:2] = (1, 2)  # the tie goes to class 1: one right, one wrong
        arch = softmax_arch(5, 3) if hidden is None else mlp_arch(5, hidden, 3)
        params = ModelParams(np.concatenate([a.ravel() for a in layers]), arch)
        test = DataShard(x, y)
        before = [a.tobytes() for a in (*test.arrays(), params.values)]
        a = x
        for k in range(0, len(layers), 2):
            a = (np.maximum(a, 0.0) if k else a) @ layers[k] + layers[k + 1]
        want = np.argmax(a, axis=1)
        assert list(want[:2]) == [1, 1]
        assert evaluate(params, test) == float(np.mean(want == y))
        assert [a.tobytes() for a in (*test.arrays(), params.values)] == before


    def test_feature_dimension_checked(self):
        params = init_global_model(softmax_arch(4, 2), 0)
        with pytest.raises(ValueError, match="^test feature dimension does not match the model$"):
            evaluate(params, DataShard(np.zeros((3, 5)), [0, 1, 0]))


def plain_accuracy(params: ModelParams, test: DataShard) -> float:
    """The float64 forward pass that defines evaluate's accuracy, layer by
    layer: argmax(relu(x @ W1 + b1) @ W2 + b2), ties to the lowest class."""
    x, y = test.arrays()
    a, at = x, 0
    dims = parse_arch(params.arch_id)[1]
    for layer, (rows, cols) in enumerate(zip(dims[:-1], dims[1:])):
        w = params.values[at : at + rows * cols].reshape(rows, cols)
        b = params.values[at + rows * cols : at + rows * cols + cols]
        at += rows * cols + cols
        a = (np.maximum(a, 0.0) if layer else a) @ w + b
    return np.count_nonzero(a.argmax(axis=1) == y) / len(y)


def screened_case(arch, rows, scale, tie, seed):
    """A model of ``arch`` with N(0, scale^2) parameters and a test set of
    SCREEN_MIN_ROWS + rows rows. ``tie`` makes output classes 0 and 1
    ``tie * scale`` apart per weight: 0.0 an exact tie, 1e-9 one that float32
    cannot resolve and float64 can. ``tie="row"`` makes them tie on the first
    row alone, up to float64 rounding, with label 0: whether the float64
    pass picks class 0 there depends on how its sums are ordered."""
    r = rng(seed)
    dims = parse_arch(arch)[1]
    vec = r.normal(size=param_count(arch)) * scale
    n = learning.SCREEN_MIN_ROWS + rows
    x = r.normal(size=(n, dims[0])) + r.normal(size=dims[0])
    y = r.integers(0, dims[-1], n)
    h, k = dims[-2], dims[-1]
    w = vec[len(vec) - h * k - k : len(vec) - k].reshape(h, k)
    b = vec[len(vec) - k :]
    if tie == "row":
        a, d = x[0], dims[0]
        if len(dims) == 3:  # the first row's hidden layer
            a = np.maximum(a @ vec[: d * h].reshape(d, h) + vec[d * h : d * h + h], 0.0)
        b[1] = b[0] + a @ (w[:, 0] - w[:, 1])
        y[0] = 0
    elif tie is not None:
        w[:, 1] = w[:, 0] + tie * scale * r.normal(size=h)
        b[1] = b[0] + tie * scale * r.normal()
    return ModelParams(vec, arch), DataShard(x, y)


class TestScreen:
    """evaluate's float32 screen, on test sets of SCREEN_MIN_ROWS rows or more."""

    def test_matches_the_float64_pass(self, monkeypatch):
        # Whichever way evaluate decides, it returns the plain float64
        # pass's accuracy: the screen alone, a float64 recheck of the rows
        # the screen cannot certify (near ties), or the whole float64 pass
        # (exact ties, such as the all-zero model, and magnitudes float32
        # cannot hold). Each way runs for some draw. Weights near 1e-40 and
        # 1e-43 underflow in float32; near 1e30 an MLP's logits overflow it.
        paths, rechecked = Counter(), []
        screen, forward = learning._screen, learning._forward

        def watched_forward(layers, x):
            rechecked.append(len(x))
            return forward(layers, x)

        def watched_screen(*args):
            rechecked.clear()
            correct = screen(*args)
            paths["full" if correct is None else "recheck" if rechecked else "screen"] += 1
            return correct

        monkeypatch.setattr(learning, "_forward", watched_forward)
        monkeypatch.setattr(learning, "_screen", watched_screen)

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(
            st.booleans(),
            st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(2, 5)),
            st.integers(0, 40),
            st.sampled_from([1.0, 1e-3, 1e3, 1e-40, 1e-43, 1e30, 0.0]),
            st.sampled_from([None, 0.0, 1e-15, 1e-9, 1e-6, "row"]),
            st.integers(0, 2**16),
        )
        def check(mlp, dims, rows, scale, tie, seed):
            d, h, k = dims
            arch = mlp_arch(d, h, k) if mlp else softmax_arch(d, k)
            params, test = screened_case(arch, rows, scale, tie, seed)
            assert evaluate(params, test) == plain_accuracy(params, test)

        check()
        assert set(paths) == {"screen", "recheck", "full"}

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        st.booleans(), st.integers(2, 16), st.integers(1, 6), st.integers(2, 5),
        st.integers(0, 2**16),
    )
    def test_a_tie_on_one_row_matches_the_float64_pass(self, mlp, d, h, k, seed):
        # The recheck computes the few rows the screen leaves on their own,
        # and BLAS may sum a lone row in another order than the whole test
        # set (a matrix-vector product), so a float64 tie can come out the
        # other way. Only a recheck that keeps its own rounding bound leaves
        # such a row to the full pass and agrees with it.
        arch = mlp_arch(d, h, k) if mlp else softmax_arch(d, k)
        params, test = screened_case(arch, 0, 1.0, "row", seed)
        assert evaluate(params, test) == plain_accuracy(params, test)

    def test_a_tie_on_every_row_takes_one_float64_pass(self, monkeypatch):
        # The all-zero model ties on every row, so the float32 pass decides
        # none; a float64 recheck of every row would only precede the full
        # pass it ends in.
        params, test = screened_case(mlp_arch(8, 6, 4), 0, 0.0, None, 3)
        passes, forward = [], learning._forward

        def counted(layers, x):
            passes.append(len(x))
            return forward(layers, x)

        monkeypatch.setattr(learning, "_forward", counted)
        assert evaluate(params, test) == plain_accuracy(params, test)
        assert passes == [len(test)] == [1024]

    def test_small_test_sets_take_the_float64_pass_alone(self, monkeypatch):
        params, test = screened_case(mlp_arch(4, 3, 3), 0, 1.0, None, 0)
        x, y = test.arrays()
        small = DataShard(x[: learning.SCREEN_MIN_ROWS - 1], y[: learning.SCREEN_MIN_ROWS - 1])
        monkeypatch.setattr(learning, "_screen", None)  # calling it would raise
        assert evaluate(params, small) == plain_accuracy(params, small)

    def test_screen_arrays_built_once_per_test_set(self):
        params, test = screened_case(mlp_arch(4, 3, 3), 5, 1.0, None, 1)
        x, y = test.arrays()
        first = evaluate(params, test)
        cached = test.screen_arrays()
        x32, norms, largest, labels, top_label = cached
        assert x32.dtype == np.float32 and x32.flags.c_contiguous
        assert np.array_equal(x32, x.T.astype(np.float32))
        np.testing.assert_allclose(norms, np.linalg.norm(x, axis=1), rtol=1e-15)
        assert largest == norms.max() and top_label == y.max()
        assert np.array_equal(labels, y * len(y) + np.arange(len(y)))
        assert evaluate(params, test) == first
        assert test.screen_arrays() is cached

    @pytest.mark.parametrize(
        "case", ["label beyond the classes", "infinite feature", "NaN feature", "huge weight"]
    )
    def test_what_the_screen_cannot_bound_takes_the_float64_pass(self, case):
        params, test = screened_case(softmax_arch(4, 3), 0, 1.0, None, 2)
        x, y = test.arrays()
        x, y, values = x.copy(), y.copy(), params.values.copy()
        if case == "label beyond the classes":
            y[0] = 3  # never right
        elif case == "huge weight":
            values[0] = 1e37  # below float32's range, but its products are not
        else:
            x[0, 0] = np.inf if case == "infinite feature" else np.nan
        params, test = ModelParams(values, params.arch_id), DataShard(x, y)
        layers = learning._unpack(params.values, params.arch_id)
        assert learning._screen(params, layers, test) is None
        with np.errstate(invalid="ignore"):  # inf * 0 in the float64 pass
            assert evaluate(params, test) == plain_accuracy(params, test)


class TestFedavg:
    def arch(self):
        return softmax_arch(2, 2)

    def mk(self, fill):
        return ModelParams(np.full(6, float(fill)), self.arch())

    def test_single_update_identity(self):
        p = self.mk(3.5)
        assert fedavg([(p, 2.0)]) == p

    def test_equal_weight_mean(self):
        got = fedavg([(self.mk(0), 1.0), (self.mk(2), 1.0)])
        np.testing.assert_allclose(got.values, np.ones(6))

    def test_weighted_mean(self):
        got = fedavg([(self.mk(0), 1.0), (self.mk(4), 3.0)])
        np.testing.assert_allclose(got.values, np.full(6, 3.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^fedavg needs at least one update$"):
            fedavg([])

    def test_mixed_arch_rejected(self):
        other = ModelParams(np.zeros(param_count(softmax_arch(3, 2))), softmax_arch(3, 2))
        with pytest.raises(ValueError, match="^updates mix architectures$"):
            fedavg([(self.mk(0), 1.0), (other, 1.0)])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan")])
    def test_non_positive_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="^weights must be positive$"):
            fedavg([(self.mk(0), 1.0), (self.mk(2), weight)])

    @given(st.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariant(self, order):
        gens = np.random.default_rng(8)
        updates = [
            (ModelParams(gens.normal(size=6), self.arch()), w)
            for w in (1.0, 2.0, 0.5, 4.0, 1.5)
        ]
        base = fedavg(updates).values
        shuffled = fedavg([updates[i] for i in order]).values
        np.testing.assert_allclose(shuffled, base, rtol=1e-9)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_n_copies_fixpoint(self, n):
        p = ModelParams(np.random.default_rng(4).normal(size=6), self.arch())
        got = fedavg([(p, 1.0)] * n)
        np.testing.assert_allclose(got.values, p.values, rtol=1e-9)


class TestNoise:
    def test_mean_and_variance(self):
        arch = softmax_arch(1000, 10)  # 10010 entries
        base = ModelParams(np.zeros(param_count(arch)), arch)
        noisy = inject_gaussian_noise(base, 1.0, rng(77))
        delta = noisy.values - base.values
        n = delta.size
        assert abs(delta.mean()) < 5.0 / np.sqrt(n)
        assert abs(delta.var() - 1.0) < 0.1

    def test_deterministic_given_stream(self):
        p = init_global_model(softmax_arch(5, 3), 1)
        a = inject_gaussian_noise(p, 2.0, rng(9))
        b = inject_gaussian_noise(p, 2.0, rng(9))
        assert np.array_equal(a.values, b.values)

    def test_input_unmodified(self):
        p = init_global_model(softmax_arch(5, 3), 1)
        before = p.values.copy()
        inject_gaussian_noise(p, 1.0, rng(0))
        assert np.array_equal(p.values, before)

    def test_zero_variance_rejected(self):
        p = init_global_model(softmax_arch(5, 3), 1)
        with pytest.raises(ValueError, match=r"^variance must be > 0$"):
            inject_gaussian_noise(p, 0.0, rng(0))
