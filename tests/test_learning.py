import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfl.learning import (
    DataShard,
    ModelParams,
    TrainSpec,
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

    @pytest.mark.parametrize("bad", ["softmax", "conv:3-3", "mlp:4-5", "softmax:0-2", "x"])
    def test_bad_arch_rejected(self, bad):
        for _ in range(2):  # a failed parse is not cached
            with pytest.raises(ValueError):
                parse_arch(bad)


class TestModelParams:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros(7), softmax_arch(2, 2))

    def test_nan_rejected(self):
        values = np.zeros(param_count(softmax_arch(2, 2)))
        values[0] = np.nan
        with pytest.raises(ValueError):
            ModelParams(values, softmax_arch(2, 2))

    def test_immutable(self):
        p = init_global_model(softmax_arch(3, 2), 0)
        with pytest.raises(ValueError):
            p.values[0] = 1.0


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

    def test_epochs_must_be_positive(self):
        with pytest.raises(ValueError):
            TrainSpec(0, 0.1, 1)

    def test_batch_larger_than_shard_rejected(self, two_class_shards):
        train, _ = two_class_shards
        start = init_global_model(softmax_arch(4, 2), 7)
        with pytest.raises(ValueError):
            local_train(start, train, TrainSpec(1, 0.1, len(train) + 1), rng(0))

    def test_reads_only_its_own_shard(self, two_class_shards):
        train, test = two_class_shards
        other = DataShard(np.zeros((3, 4)), np.zeros(3, dtype=int), shard_of=b"other")
        start = init_global_model(softmax_arch(4, 2), 7)
        before = other.access_count
        local_train(start, train, TrainSpec(1, 0.1, 10), rng(0))
        assert other.access_count == before
        assert train.access_count > 0


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
            DataShard(data.standard_normal((n, 4)), data.integers(0, 3, n), shard_of=bytes([i]))
            for i, n in enumerate(sizes)
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
    def test_matches_one_call_per_device(self, archs):
        starts, shards = self.devices(archs)
        rngs = [rng(100 + i) for i in range(len(starts))]
        got = local_train_many(starts, shards, self.SPEC, rngs)
        assert [s.access_count for s in shards] == [1] * len(shards)
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

    @pytest.mark.parametrize("bad", ["feature_dim", "label_range", "batch_over_rows"])
    def test_one_bad_member_rejected(self, bad):
        starts, shards = self.devices([softmax_arch(4, 3)] * 3, sizes=(12, 13, 12))
        shards[1] = {
            "feature_dim": DataShard(np.zeros((13, 5)), np.zeros(13, dtype=int)),
            "label_range": DataShard(np.zeros((13, 4)), np.full(13, 3)),
            "batch_over_rows": DataShard(np.zeros((4, 4)), np.zeros(4, dtype=int)),
        }[bad]
        with pytest.raises(ValueError):
            local_train_many(starts, shards, self.SPEC, [rng(i) for i in range(3)])

    def test_shared_rng_rejected(self):
        starts, shards = self.devices([softmax_arch(4, 3)] * 2, sizes=(12, 12))
        shared = rng(0)
        with pytest.raises(ValueError):
            local_train_many(starts, shards, self.SPEC, [shared, shared])


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
            dim=6, classes=10, train_per_class=5, test_per_class=17, seed=3
        )
        test = DataShard(t.test_x, t.test_y)
        zero = ModelParams(np.zeros(param_count(softmax_arch(6, 10))), softmax_arch(6, 10))
        want = float(np.mean(t.test_y == 0))
        assert evaluate(zero, test) == want

    def test_pure(self, two_class_shards):
        _, test = two_class_shards
        p = init_global_model(softmax_arch(4, 2), 7)
        assert evaluate(p, test) == evaluate(p, test)


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
        with pytest.raises(ValueError):
            fedavg([])

    def test_mixed_arch_rejected(self):
        other = ModelParams(np.zeros(param_count(softmax_arch(3, 2))), softmax_arch(3, 2))
        with pytest.raises(ValueError):
            fedavg([(self.mk(0), 1.0), (other, 1.0)])

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
        with pytest.raises(ValueError):
            inject_gaussian_noise(p, 0.0, rng(0))
