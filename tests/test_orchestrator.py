import dataclasses
import json
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (
    CHOICES,
    config_annotations,
    csv_writer_bytes,
    leaf,
    mistyped,
    record_messages,
    record_plans,
    round_events,
    vad_rows,
    with_leaves,
    write_idx,
)

from vbfl.config import (
    BEHAVIOR_VALIDATOR_FLIP,
    BEHAVIOR_WORKER_NOISE,
    Bound,
    DatasetConfig,
    NetworkConfig,
    SimConfig,
    TrainSpec,
)
from vbfl.datasets import load_idx_task, make_blobs_task, read_idx
from vbfl.errors import ConfigError, InvariantViolation
from vbfl.learning import ModelParams, evaluate, fedavg, local_train
from vbfl.orchestrator import (
    EVENTS_CSV_FIELDS,
    ROUNDS_CSV_FIELDS,
    STAKE_CSV_FIELDS,
    VAD_CSV_FIELDS,
    RunResult,
    Simulation,
    VanillaRun,
    assign_roles,
    associate,
    make_devices,
    run_simulation,
    shard_dataset,
    write_outputs,
)
from vbfl.presets import apply_overrides, get_preset
from vbfl.rng import substream


TINY_TRAIN = TrainSpec(epochs=2, learning_rate=0.05, batch_size=10)


def tiny_cfg(**kw):
    base = dict(
        rounds=3,
        master_seed=11,
        dataset=DatasetConfig(
            dim=8, classes=4, train_per_class=60, test_per_class=30,
            spread=0.5, feature_scale=1.0,
        ),
        arch="softmax",
        train=TINY_TRAIN,
    )
    base.update(kw)
    return SimConfig(**base)


def count_calls(monkeypatch, module, *names) -> Counter:
    """Wrap the module's named functions; the Counter fills with their calls."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def qualified_workers(m) -> tuple:
    """The workers whose updates the round's block averages in."""
    return tuple(t.worker for t in m.legitimate_block.tallies if t.positives >= t.negatives)


NON_DEFAULT = {
    "n_devices": 10,
    "n_workers": 5,
    "n_validators": 3,
    "n_miners": 2,
    "malicious": (8, 9),
    "malicious_behaviors": (BEHAVIOR_WORKER_NOISE, BEHAVIOR_VALIDATOR_FLIP),
    "noise_variance": 2.5,
    "vh": 0.25,
    "kick_r": 3,
    "unit_reward": 2,
    "train.epochs": 3,
    "train.learning_rate": 0.2,
    "train.batch_size": 7,
    "consensus": "pow",
    "pow_difficulty": 2,
    "rounds": 4,
    "master_seed": 9,
    "network.delay": 0.5,
    "network.jitter": 0.25,
    "network.propagated_block_wait": 1.5,
    "dataset.dim": 16,
    "dataset.classes": 3,
    "dataset.train_per_class": 50,
    "dataset.test_per_class": 20,
    "dataset.spread": 1.5,
    "dataset.feature_scale": 2.0,
    "dataset.idx_dir": "data/mnist",
    "arch": "softmax",
    "mlp_hidden": 8,
    "validator_test": "shard",
    "sharding": "label_skew",
    "signature_scheme": "hmac",
}


FLOAT_KEYS = sorted(key for key, hint, _ in config_annotations() if hint is float)
# (dotted key, base type, Bound) of every bounded leaf.
BOUNDS = sorted(entry for entry in config_annotations() if entry[2] is not None)
# (dotted key, value) of every leaf with each value that does not fit its type.
MISTYPED = [(key, value) for key, hint, _ in config_annotations() for value in mistyped(hint)]
ROLE_COUNTS = ("n_workers", "n_validators", "n_miners")
# Four devices and one-row batches, so that every bound's edge fits the rows per device.
EDGE_BASE = tiny_cfg(
    n_devices=4, n_workers=2, n_validators=1, n_miners=1,
    train=dataclasses.replace(TINY_TRAIN, batch_size=1),
)


def _at_edge(key: str, value) -> SimConfig:
    """EDGE_BASE with key set to value; a role count or n_devices brings the
    other side of the role sum along, so that only the bound decides."""
    changes = {key: value}
    if key in ROLE_COUNTS:
        changes["n_devices"] = EDGE_BASE.n_devices - getattr(EDGE_BASE, key) + value
    elif key == "n_devices":
        changes["n_workers"] = value - EDGE_BASE.n_validators - EDGE_BASE.n_miners
    return with_leaves(EDGE_BASE, changes)


class TestConfig:
    def test_role_counts_must_sum(self):
        with pytest.raises(ConfigError, match="role_counts"):
            SimConfig(n_devices=10).validate()

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wibble"):
            SimConfig.from_dict({"wibble": 3})

    def test_nested_unknown_key_named(self):
        for section in ("dataset", "train", "network"):
            with pytest.raises(ConfigError, match=f"{section}.blaster"):
                SimConfig.from_dict({section: {"blaster": 1}})

    def test_removed_knob_is_unknown(self):
        for data, key in (
            ({"hash_rates": []}, "hash_rates"),
            ({"dataset": {"seed": 5}}, "dataset.seed"),
            ({"dataset": {"informative_dims": 4}}, "dataset.informative_dims"),
            ({"dataset": {"kind": "idx"}}, "dataset.kind"),
        ):
            with pytest.raises(ConfigError, match=f"^{key}: unknown key"):
                SimConfig.from_dict(data)

    def test_idx_dir_lifts_the_blob_row_check(self):
        # The blob geometry bounds only the blob task; an IDX task's rows are
        # checked once its files are read.
        few = DatasetConfig(dim=8, classes=2, train_per_class=5)
        with pytest.raises(ConfigError, match="^dataset: 10 training rows for 20 devices"):
            tiny_cfg(dataset=few).validate()
        tiny_cfg(dataset=dataclasses.replace(few, idx_dir="data/mnist")).validate()

    def test_pow_difficulty_beyond_digest_named(self):
        tiny_cfg(pow_difficulty=64).validate()
        with pytest.raises(ConfigError, match="^pow_difficulty: "):
            tiny_cfg(pow_difficulty=65).validate()

    def test_batch_larger_than_shard_named(self):
        # 4 x 60 training rows give each of 20 devices a shard of 12.
        tiny_cfg(train=dataclasses.replace(TINY_TRAIN, batch_size=12)).validate()
        with pytest.raises(ConfigError, match="^train.batch_size: 13 exceeds"):
            tiny_cfg(train=dataclasses.replace(TINY_TRAIN, batch_size=13)).validate()

    def test_bad_train_spec_named(self):
        with pytest.raises(ConfigError, match=r"^train\.epochs: must be >= 1"):
            SimConfig.from_dict({"train": {"epochs": 0}})

    def test_round_trip(self):
        for cfg in (
            tiny_cfg(consensus="pow", pow_difficulty=2, malicious=(17, 18, 19)),
            tiny_cfg(consensus="vfl"),
        ):
            assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_every_field(self):
        # One valid non-default value per settable value, found by walking
        # the dataclass fields, so a new knob cannot bypass the serialiser.
        assert {key for key, _, _ in config_annotations()} == set(NON_DEFAULT)
        sections = {}
        for key, value in NON_DEFAULT.items():
            section, _, name = key.rpartition(".")
            sections.setdefault(section, {})[name] = value
        top = sections.pop("")
        defaults = SimConfig()
        nested = {
            name: dataclasses.replace(getattr(defaults, name), **values)
            for name, values in sections.items()
        }
        cfg = SimConfig(**top, **nested)
        for key in NON_DEFAULT:
            got, default = cfg, defaults
            for part in key.split("."):
                got, default = getattr(got, part), getattr(default, part)
            assert got != default, key
        cfg.validate()
        assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unlimited_wait_round_trips(self):
        cfg = tiny_cfg()
        d = cfg.to_dict()
        assert d["network"]["propagated_block_wait"] == "unlimited"
        assert math.isinf(SimConfig.from_dict(d).network.propagated_block_wait)

    def test_bad_behavior_named(self):
        with pytest.raises(ConfigError, match="malicious_behaviors"):
            tiny_cfg(malicious_behaviors=("EATS_CRAYONS",)).validate()

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"vh": "0.1"}, "vh"),
            ({"vh": math.nan}, "vh"),
            ({"vh": math.inf}, "vh"),
            ({"vh": True}, "vh"),
            ({"rounds": 2.5}, "rounds"),
            ({"n_devices": "20"}, "n_devices"),
            ({"malicious": [1.5]}, "malicious"),
            ({"malicious": 3}, "malicious"),
            ({"malicious_behaviors": "WORKER_NOISE"}, "malicious_behaviors"),
            ({"train": {"epochs": "5"}}, "train.epochs"),
            ({"train": 5}, "train"),
            ({"dataset": {"dim": "7"}}, "dataset.dim"),
            ({"network": {"propagated_block_wait": "never"}}, "network.propagated_block_wait"),
        ],
    )
    def test_wrong_typed_value_named(self, data, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            SimConfig.from_dict(data)

    @pytest.mark.parametrize("key, value", MISTYPED, ids=[f"{k}={v!r}" for k, v in MISTYPED])
    def test_mistyped_leaf_named_alike_in_python_and_json(self, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as built:
            with_leaves(tiny_cfg(), {key: value})
        if isinstance(value, list):  # in JSON a list is how a tuple is written
            return
        section, _, name = key.rpartition(".")
        data = {section: {name: value}} if section else {name: value}
        with pytest.raises(ConfigError) as read:
            SimConfig.from_dict(json.loads(json.dumps(data)))
        assert str(read.value) == str(built.value)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SimConfig(rounds="3"), "rounds: expected int, got '3'"),
            (lambda: SimConfig(vh="0.1"), "vh: expected float, got '0.1'"),
            (lambda: SimConfig(master_seed=1.5), "master_seed: expected int, got 1.5"),
            (
                lambda: SimConfig.from_dict({"train": {"epochs": "5"}}),
                "train.epochs: expected int, got '5'",
            ),
            (
                lambda: SimConfig.from_dict({"network": {"propagated_block_wait": None}}),
                "network.propagated_block_wait: expected float, got None",
            ),
        ],
        ids=["rounds", "vh", "master_seed", "train.epochs", "null wait"],
    )
    def test_mistyped_found_configs(self, build, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    def test_ints_stand_for_floats(self):
        cfg = SimConfig.from_dict({"vh": 0, "network": {"delay": 1}, "dataset": {"idx_dir": None}})
        assert cfg.vh == 0 and cfg.network.delay == 1 and cfg.dataset.idx_dir is None

    def test_float_keys_cover_every_section(self):
        assert {k.rpartition(".")[0] for k in FLOAT_KEYS} == {"", "train", "network", "dataset"}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_named(self, key, value):
        section, _, name = key.rpartition(".")
        data = {section: {name: value}} if section else {name: value}
        if (key, value) == ("network.propagated_block_wait", math.inf):  # "unlimited"
            assert SimConfig.from_dict(data).network.propagated_block_wait == math.inf
            return
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be finite$"):
            SimConfig.from_dict(data)

    def test_bounds_cover_the_sections(self):
        assert all(isinstance(bound, Bound) for _, _, bound in BOUNDS)
        sections = {key.rpartition(".")[0] for key, _, _ in BOUNDS}
        assert sections == {"", "train", "network", "dataset"}

    @pytest.mark.parametrize(
        "key, base, bound, side",
        [
            pytest.param(*b, side, id=f"{b[0]}-{side}")
            for b in BOUNDS for side in ("lo", "hi") if getattr(b[2], side) != math.inf
        ],
    )
    def test_bound_edge_accepted_and_just_past_rejected(self, key, base, bound, side):
        edge = getattr(bound, side)
        assert leaf(_at_edge(key, edge), key) == edge
        away = -math.inf if side == "lo" else math.inf
        past = edge + (1 if side == "hi" else -1) if base is int else math.nextafter(edge, away)
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            with_leaves(EDGE_BASE, {key: past})

    def test_bound_message(self):
        with pytest.raises(ConfigError, match=r"^network\.delay: must be >= 0$"):
            tiny_cfg(network=NetworkConfig(delay=-1.0))
        with pytest.raises(ConfigError, match="^noise_variance: must be > 0$"):
            tiny_cfg(noise_variance=0.0)

    @staticmethod
    def _bad_choice(key):
        """A value that is no choice of key, and the one message it raises."""
        bad = ("NOPE",) if isinstance(leaf(SimConfig(), key), tuple) else "NOPE"
        return bad, f"^{re.escape(key)}: choices are .*; got {re.escape(repr(bad))}$"

    @pytest.mark.parametrize("key", sorted(CHOICES))
    def test_bad_choice_raises_at_construction(self, key):
        bad, match = self._bad_choice(key)
        section, _, name = key.rpartition(".")
        with pytest.raises(ConfigError, match=match):
            with_leaves(tiny_cfg(), {key: bad})
        built = {name: bad}
        if section:  # a section built with the bad value
            built = {section: type(getattr(SimConfig(), section))(**built)}
        with pytest.raises(ConfigError, match=match):
            SimConfig(**built)

    @pytest.mark.parametrize("key", sorted(CHOICES))
    def test_bad_choice_in_json_named(self, key):
        bad, match = self._bad_choice(key)
        section, _, name = key.rpartition(".")
        data = {section: {name: bad}} if section else {name: bad}
        with pytest.raises(ConfigError, match=match):
            SimConfig.from_dict(json.loads(json.dumps(data)))


def load_six_images_with_five_labels(root):
    """load_idx_task on 12 training and 6 test images of 4 x 4 pixels, with
    12 training labels and 5 test labels."""
    for stem, arr in (
        ("train-images-idx3-ubyte", np.zeros((12, 4, 4), ">u1")),
        ("train-labels-idx1-ubyte", np.zeros(12, ">u1")),
        ("t10k-images-idx3-ubyte", np.zeros((6, 4, 4), ">u1")),
        ("t10k-labels-idx1-ubyte", np.zeros(5, ">u1")),
    ):
        write_idx(root / stem, arr, 0x08)
    return load_idx_task(root)


def read_dtype_code_7(root):
    write_idx(root / "labels-idx1-ubyte", np.zeros(3, ">u1"), 0x07)
    return read_idx(root / "labels-idx1-ubyte")


def simulate_on_label_files(root):
    """A Simulation whose idx_dir holds a label file under each of the four
    names, so the training images file has rank 1."""
    for split in ("train", "t10k"):
        for kind in ("images-idx3", "labels-idx1"):
            write_idx(root / f"{split}-{kind}-ubyte", np.arange(240, dtype=">u1") % 4, 0x08)
    return Simulation(tiny_cfg(dataset=DatasetConfig(idx_dir=str(root))))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda tmp: tiny_cfg(malicious=(3, 20)), ConfigError,
         r"malicious: device numbers must lie in [0, n_devices)"),
        (lambda tmp: tiny_cfg(malicious=(3, 5, 3)), ConfigError,
         "malicious: device numbers must be distinct"),
        (lambda tmp: make_blobs_task(
            dim=2, classes=2, train_per_class=0, test_per_class=2, spread=0.3,
            feature_scale=1.0, seed=0,
        ), ValueError, "need at least one example per class and split"),
        (read_dtype_code_7, ValueError,
         "labels-idx1-ubyte: IDX dtype code 0x07 is not 0x08 (unsigned byte)"),
        (simulate_on_label_files, ConfigError,
         "dataset.idx_dir: {tmp}/train-images-idx3-ubyte: rank 1, not 3"),
        (load_six_images_with_five_labels, ValueError, "image and label counts disagree"),
        (lambda tmp: Simulation(tiny_cfg(dataset=DatasetConfig(idx_dir=str(tmp)))),
         ConfigError, "dataset.idx_dir: missing train-images-idx3-ubyte[.gz] under "),
        (lambda tmp: tiny_cfg(dataset=DatasetConfig(idx_dir="")), ConfigError,
         "dataset.idx_dir: must not be empty"),
        (lambda tmp: tiny_cfg(dataset=DatasetConfig(spread=-1e308)), ConfigError,
         "dataset.spread: must be >= 0"),
        (lambda tmp: tiny_cfg(dataset=DatasetConfig(feature_scale=0.0)), ConfigError,
         "dataset.feature_scale: must be > 0"),
    ],
    ids=[
        "malicious-out-of-range", "malicious-repeated", "blobs-zero-rows",
        "idx-dtype", "idx-rank", "idx-counts-disagree", "idx-file-missing", "idx-dir-empty",
        "spread-negative", "feature-scale-zero",
    ],
)
def test_input_check_raises_its_named_error(tmp_path, build, error, message):
    with pytest.raises(error, match=re.escape(message.format(tmp=tmp_path))):
        build(tmp_path)


class TestDevices:
    def test_stable_and_sorted(self):
        a = make_devices(20)
        b = make_devices(20)
        assert a == b
        ids = [d.id for d in a]
        assert ids == sorted(ids)
        assert len(set(ids)) == 20


class TestSharding:
    def task(self, train_total=40):
        return make_blobs_task(
            dim=4, classes=4, train_per_class=train_total // 4, test_per_class=5, spread=0.3,
            feature_scale=0.5, seed=3,
        )

    def ids(self, n):
        return [d.id for d in make_devices(n)]

    def test_partition_disjoint_and_complete(self):
        task = self.task(40)
        shards = shard_dataset(task, self.ids(8), substream(0, "shard"))
        rows = np.vstack([train._x for train, _ in shards.values()])
        assert rows.shape[0] == 40
        # disjointness + completeness: every training row appears exactly once
        want = np.sort(task.train_x.view([("", task.train_x.dtype)] * 4), axis=0)
        got = np.sort(rows.view([("", rows.dtype)] * 4), axis=0)
        assert np.array_equal(want, got)

    def test_equal_sizes(self):
        shards = shard_dataset(self.task(40), self.ids(8), substream(0, "shard"))
        assert {len(train) for train, _ in shards.values()} == {5}

    def test_remainder_goes_to_lowest_ids(self):
        ids = self.ids(7)
        shards = shard_dataset(self.task(40), ids, substream(0, "shard"))
        sizes = [len(shards[d][0]) for d in sorted(ids)]
        assert sizes == [6, 6, 6, 6, 6, 5, 5]

    def test_deterministic(self):
        a = shard_dataset(self.task(), self.ids(8), substream(5, "shard"))
        b = shard_dataset(self.task(), self.ids(8), substream(5, "shard"))
        for d in a:
            assert np.array_equal(a[d][0]._x, b[d][0]._x)

    def test_full_test_set_shared_by_default(self):
        task = self.task()
        shards = shard_dataset(task, self.ids(8), substream(0, "shard"))
        for _, test in shards.values():
            assert len(test) == task.test_x.shape[0]
        # One read-only shard object that every device holds.
        tests = [test for _, test in shards.values()]
        assert len({id(t) for t in tests}) == 1
        x, _ = tests[0].arrays()
        assert not x.flags.writeable
        assert np.array_equal(x, task.test_x)
        # Both drivers read the global accuracy from that same object.
        sim = Simulation(tiny_cfg(rounds=1))
        assert {id(st.test) for st in sim.state.values()} == {id(sim.full_test)}
        run = VanillaRun(tiny_cfg(rounds=1, consensus="vfl"))
        assert {id(test) for _, test in run.shards.values()} == {id(run.full_test)}
        # Disjoint test shards leave one full copy for the global accuracy.
        sharded = Simulation(tiny_cfg(rounds=1, validator_test="shard"))
        x, _ = sharded.full_test.arrays()
        assert all(
            not np.shares_memory(x, st.test.arrays()[0]) for st in sharded.state.values()
        )
        assert len(sharded.full_test) == 4 * 30

    def test_disjoint_test_shards_option(self):
        task = self.task()
        shards = shard_dataset(
            task, self.ids(8), substream(0, "shard"), validator_test="shard"
        )
        total = sum(len(test) for _, test in shards.values())
        assert total == task.test_x.shape[0]

    def test_label_skew_sorts_labels(self):
        task = self.task(40)
        shards = shard_dataset(task, self.ids(8), substream(0, "shard"), sharding="label_skew")
        first = shards[sorted(shards)[0]][0]
        assert len(np.unique(first._y)) == 1

    def test_too_few_examples(self):
        task = make_blobs_task(
            dim=2, classes=2, train_per_class=2, test_per_class=2, spread=0.3,
            feature_scale=0.5, seed=0,
        )
        with pytest.raises(ValueError, match="smaller"):
            shard_dataset(task, self.ids(5), substream(0, "shard"))


def roles_by_position(device_ids, counts, rng, excluded=frozenset()):
    """A reference for assign_roles, written as a per-position fill: the
    device at position pos of the shuffle works while pos < counts[0], then
    validates while pos < counts[0] + counts[1], then mines. Returns the
    three lists, each sorted by id."""
    active = [d for d in sorted(device_ids) if d not in excluded]
    roles = ([], [], [])
    for pos, idx in enumerate(rng.permutation(len(active))):
        slot = 0 if pos < counts[0] else 1 if pos < counts[0] + counts[1] else 2
        roles[slot].append(active[idx])
    return tuple(sorted(devices) for devices in roles)


class TestRoles:
    def test_counts_respected(self):
        cfg = tiny_cfg()
        ids = [d.id for d in make_devices(20)]
        roles = assign_roles(1, ids, cfg, substream(0, "roles", 1))
        assert [len(devices) for devices in roles] == [12, 5, 3]
        assert sorted(d for devices in roles for d in devices) == sorted(ids)

    def test_rotation_actually_rotates(self):
        cfg = tiny_cfg()
        ids = [d.id for d in make_devices(20)]
        plans = [
            assign_roles(j, ids, cfg, substream(0, "roles", j)) for j in range(1, 101)
        ]
        assert any(plans[0] != p for p in plans[1:])

    def test_blacklisted_excluded_and_workers_shrink_first(self):
        cfg = tiny_cfg()
        ids = [d.id for d in make_devices(20)]
        excluded = frozenset(sorted(ids)[:2])
        roles = assign_roles(1, ids, cfg, substream(0, "roles", 1), excluded=excluded)
        assert not excluded & {d for devices in roles for d in devices}
        assert [len(devices) for devices in roles] == [10, 5, 3]

    @pytest.mark.parametrize("excluded", [0, 2])
    def test_lists_equal_the_per_position_fill(self, excluded):
        # 2 excluded devices shrink the workers from 12 to 10.
        cfg = tiny_cfg()
        ids = [d.id for d in make_devices(20)]
        out = frozenset(sorted(ids)[:excluded])
        counts = (12 - excluded, 5, 3)
        for j in range(1, 101):
            got = assign_roles(j, ids, cfg, substream(0, "roles", j), excluded=out)
            assert got == roles_by_position(ids, counts, substream(0, "roles", j), out)

    def test_miner_of_is_the_partitions_miner(self):
        sim = Simulation(tiny_cfg(rounds=1))
        plan = sim._plan(1, frozenset())
        assert len(plan.workers) == 12 and len(set(plan.w2v.values())) > 1
        for w in plan.workers:
            assert plan.miner_of(w) == plan.v2m[plan.w2v[w]]
        for v in plan.validators:
            assert plan.miner_of(v) == plan.v2m[v]
        for m in plan.miners:
            assert plan.miner_of(m) == m


class TestAssociate:
    def test_every_worker_mapped(self):
        ids = [d.id for d in make_devices(20)]
        w, v, m = ids[:12], ids[12:17], ids[17:]
        w2v, v2m = associate(w, v, m, substream(0, "assoc", 1))
        assert set(w2v) == set(w) and set(w2v.values()) <= set(v)
        assert set(v2m) == set(v) and set(v2m.values()) <= set(m)

    def test_single_validator_degenerate(self):
        ids = [d.id for d in make_devices(5)]
        w2v, _ = associate(ids[:3], ids[3:4], ids[4:], substream(0, "assoc", 1))
        assert set(w2v.values()) == {ids[3]}

    def test_deterministic(self):
        ids = [d.id for d in make_devices(9)]
        a = associate(ids[:5], ids[5:7], ids[7:], substream(4, "assoc", 2))
        b = associate(ids[:5], ids[5:7], ids[7:], substream(4, "assoc", 2))
        assert a == b

    def test_empty_validators_error(self):
        ids = [d.id for d in make_devices(4)]
        with pytest.raises(ValueError):
            associate(ids[:3], [], ids[3:], substream(0, "assoc", 1))


class TestRound:
    def test_benign_round_equals_plain_fedavg(self):
        # With threshold 1.0 every update qualifies (vad never exceeds 1),
        # every tally is all-Positive, and the new global model is exactly
        # the size-weighted average of the 12 worker updates.
        sim = Simulation(tiny_cfg(rounds=1, vh=1.0))
        log = record_messages(sim)
        g_before = {d: st.replica.g for d, st in sim.state.items()}
        m = sim.run_round()
        worker_txs = log[1].worker_txs
        assert len(worker_txs) == 12
        assert all(t.negatives == 0 for t in m.legitimate_block.tallies)
        assert qualified_workers(m) == tuple(t.worker for t in m.legitimate_block.tallies)
        want = fedavg([(tx.update, float(tx.train_size)) for tx in worker_txs])
        ref = sorted(sim.state)[0]
        assert np.array_equal(sim.state[ref].replica.g.values, want.values)
        assert all(
            np.array_equal(sim.state[d].replica.g.values, want.values) for d in sim.state
        )
        assert g_before[ref] != want

    @pytest.mark.parametrize("validator_test", ["full", "shard"])
    def test_round_evaluates_each_update_once(self, monkeypatch, validator_test):
        import vbfl.orchestrator as orchestrator

        calls = count_calls(monkeypatch, orchestrator, "evaluate", "fedavg")
        groups = Counter()  # keys: (id of the test set, validators in the group)
        vote = orchestrator.validate_by_voting

        def voting(update, state, accuracy):
            groups[id(state.test), len(state.pretrain_acc)] += 1
            return vote(update, state, accuracy)

        monkeypatch.setattr(orchestrator, "validate_by_voting", voting)
        sim = Simulation(tiny_cfg(rounds=1, validator_test=validator_test))
        log = record_messages(sim)
        m = sim.run_round()
        # Validators sharing a test set vote as one group, which evaluates
        # each distinct update once; one evaluation per validator's
        # reference, plus the global accuracy; one average for the block
        # all replicas adopt.
        validators = len(m.votes.validators)
        updates = len({id(tx.update) for tx in log[1].worker_txs})
        test_sets = 1 if validator_test == "full" else validators
        assert calls["evaluate"] == updates * test_sets + validators + 1
        assert calls["fedavg"] == 1
        assert m.votes.vad.shape == m.votes.negative.shape == (5, 12)
        # One group of every validator on the shared test set; under
        # "shard" every validator is its own group.
        assert list(groups.values()) == [updates] * test_sets
        assert {size for _, size in groups} == {validators // test_sets}

    def test_round_settles_its_block_once(self, monkeypatch):
        import vbfl.orchestrator as orchestrator

        calls = count_calls(monkeypatch, orchestrator, "append_block", "apply_block", "fedavg")
        sim = Simulation(tiny_cfg(rounds=1))
        sim.run_round()
        # All 20 devices adopt the block from one shared replica, so the
        # transition runs once, not once per device.
        assert calls == {"append_block": 1, "apply_block": 1, "fedavg": 1}
        assert len({id(st.replica) for st in sim.state.values()}) == 1

    def test_benign_round_requires_one_shared_replica(self):
        sim = Simulation(tiny_cfg(rounds=1))
        st = sim.state[sorted(sim.state)[-1]]
        st.replica = dataclasses.replace(st.replica)  # equal, but not shared
        with pytest.raises(InvariantViolation, match="2 replicas"):
            sim.run_round()

    def test_round_trains_its_workers_in_one_call(self, monkeypatch):
        import vbfl.learning as learning
        import vbfl.orchestrator as orchestrator

        trained = []
        train_many = orchestrator.local_train_many

        def training(starts, shards, spec, rngs, epochs=None):
            owner = {id(st.train): d for d, st in sim.state.items()}
            trained.append(([owner[id(shard)] for shard in shards], epochs))
            return train_many(starts, shards, spec, rngs, epochs)

        # Under the learning module's name too, so that training by any
        # other path (local_train included) is counted.
        monkeypatch.setattr(orchestrator, "local_train_many", training)
        monkeypatch.setattr(learning, "local_train_many", training)
        sim = Simulation(tiny_cfg(rounds=1))
        log, plans = record_messages(sim), record_plans(sim)
        sim.run_round()
        # One stacked call holding exactly the round's workers, in worker
        # order, for the configured epochs; then the validators' references,
        # for one epoch each.
        workers, validators = plans[1].workers, plans[1].validators
        epochs = [TINY_TRAIN.epochs] * len(workers) + [1] * len(validators)
        assert trained == [(workers + validators, epochs)]
        assert [tx.worker for tx in log[1].worker_txs] == workers

    def test_round_aggregates_and_encodes_once(self, monkeypatch):
        import vbfl.consensus as consensus
        import vbfl.protocol as protocol

        from test_golden import CASES

        aggregated = count_calls(monkeypatch, consensus, "aggregate_votes")
        encoded = count_calls(monkeypatch, protocol, "encode_model_params")
        encode_tallies = protocol.encode_tallies
        sections = []

        def encoding(tallies, tx_signing_bytes=None):
            # A tally section built from the signed worker bytes; an append
            # re-encodes its block's tallies without them.
            if tx_signing_bytes is not None:
                sections.append(len(tallies))
            return encode_tallies(tallies, tx_signing_bytes)

        monkeypatch.setattr(protocol, "encode_tallies", encoding)
        sim = Simulation(tiny_cfg(rounds=1))
        m = sim.run_round()
        # All 3 miners hold the same 60 votes: one tally set and one tally
        # section for every candidate. A worker's parameters are encoded
        # when it signs and again when the block is appended (votes and the
        # tally section reuse the signed bytes), plus g0 for the genesis
        # block, however many validators vote and miners build candidates.
        workers = len(m.votes.workers)
        assert aggregated["aggregate_votes"] == len(sections) == 1
        assert 0 < encoded["encode_model_params"] <= 3 * workers
        # Under the golden network case's jitter, miners adopt different
        # blocks; still every round that gossips aggregates and encodes once.
        aggregated.clear()
        sections.clear()
        sim = Simulation(CASES["network"])
        log = record_messages(sim)
        sim.run()
        assert aggregated["aggregate_votes"] == len(sections) == len(log) > 0

    def test_votes_sign_a_digest_of_the_worker_bytes(self, monkeypatch):
        # A vote signs the digest of the worker bytes its validator received,
        # not the bytes themselves, and each distinct worker bytes object is
        # hashed at most once in the vote phase.
        import vbfl.protocol as protocol

        sim = Simulation(tiny_cfg(rounds=1))
        sign, payload_hash, validate = sim.signer.sign, protocol.payload_hash, sim._validate
        signed, hashed, worker_bytes = [], [], []

        def signing(payload, device):
            signed.append(len(payload))
            return sign(payload, device)

        def hashing(data):
            hashed.append(len(data))
            return payload_hash(data)

        def validating(plan, received, *args):
            worker_bytes.extend(len(b) for _, b in received)
            with monkeypatch.context() as mp:
                mp.setattr(sim.signer, "sign", signing)
                mp.setattr(protocol, "payload_hash", hashing)
                return validate(plan, received, *args)

        sim._validate = validating
        m = sim.run_round()
        workers = len(m.votes.workers)
        votes = m.votes.negative.size
        assert len(signed) == votes > 0
        assert max(signed) < 256
        assert sum(signed) + sum(hashed) <= workers * max(worker_bytes) + votes * 256

    def test_noisy_worker_as_validator_gets_a_clean_reference(self, monkeypatch):
        # A WORKER_NOISE device distorts the updates it sends as a worker,
        # never the reference it votes against as a validator.
        import vbfl.orchestrator as orchestrator

        references = {}
        vote = orchestrator.validate_by_voting

        def voting(update, state, accuracy):
            owner = {id(st.test): d for d, st in sim.state.items()}
            [references[owner[id(state.test)]]] = state.pretrain_acc.tolist()
            return vote(update, state, accuracy)

        # Each validator holds its own test shard.
        monkeypatch.setattr(orchestrator, "validate_by_voting", voting)
        cfg = tiny_cfg(rounds=1, malicious=tuple(range(20)), validator_test="shard")
        sim = Simulation(cfg)
        m = sim.run_round()
        validators = list(m.votes.validators)
        assert sorted(references) == validators
        for v in validators:
            assert sim._behaves(v, BEHAVIOR_WORKER_NOISE)
            st = sim.state[v]
            batches = substream(cfg.master_seed, "batches", v, 1)
            one = local_train(sim.g0, st.train, dataclasses.replace(cfg.train, epochs=1), batches)
            assert references[v] == evaluate(one, st.test)

    def test_voted_down_updates_excluded(self):
        cfg = tiny_cfg(rounds=1, malicious=(17, 18, 19), vh=0.12)
        sim = Simulation(cfg)
        log = record_messages(sim)
        m = sim.run_round()
        worker_txs = log[1].worker_txs
        mal_workers = [
            tx.worker for tx in worker_txs if tx.worker in sim.malicious_ids
        ]
        if not mal_workers:
            pytest.skip("no malicious device drew the worker role this round")
        assert not set(mal_workers) & set(qualified_workers(m))
        good = [
            (tx.update, float(tx.train_size))
            for tx in worker_txs
            if tx.worker in qualified_workers(m)
        ]
        ref = sorted(sim.state)[0]
        assert np.array_equal(sim.state[ref].replica.g.values, fedavg(good).values)

    def test_all_voted_down_keeps_previous_global(self):
        # A threshold below -1 rejects every update (vad is always > -1).
        sim = Simulation(tiny_cfg(rounds=1, vh=-1.5))
        ref = sorted(sim.state)[0]
        before = sim.state[ref].replica.g
        m = sim.run_round()
        assert qualified_workers(m) == ()
        assert sim.state[ref].replica.g == before
        assert len(round_events(m)) >= 12  # every worker flagged

    def test_round_metrics_fields(self, tmp_path):
        sim = Simulation(tiny_cfg(rounds=1))
        m = sim.run_round()
        assert m.round == 1
        assert 0.0 <= m.global_accuracy <= 1.0
        assert m.legitimate_block is not None and not m.winner_malicious
        assert not m.forked and not m.skip_reason
        assert m.votes.vad.shape == (5, 12)
        out = write_outputs(RunResult(sim.config, sim.metrics, sim, None), tmp_path)
        rows = [row.split(",")[:2] for row in (out / "stake.csv").read_text().splitlines()[1:]]
        assert rows == [["1", d.hex()] for d in sorted(sim.state)]

    def test_miner_never_reads_its_train_shard(self, shard_reads):
        sim = Simulation(tiny_cfg(rounds=1))
        plans = record_plans(sim)
        shard_reads.clear()
        sim.run_round()
        for d in sim.state:
            accesses = shard_reads[id(sim.state[d].train)]
            if d in plans[1].miners:
                assert accesses == 0
            else:
                assert accesses > 0

    def test_seed_isolation_of_roles_and_shards(self):
        # Malicious noise draws come from their own substreams: enabling
        # them must not shift role assignment or data sharding.
        clean = Simulation(tiny_cfg(rounds=1, malicious=()))
        noisy = Simulation(tiny_cfg(rounds=1, malicious=(17, 18, 19)))
        for d in clean.state:
            assert np.array_equal(clean.state[d].train._x, noisy.state[d].train._x)
        plans_clean, plans_noisy = record_plans(clean), record_plans(noisy)
        clean.run_round()
        noisy.run_round()
        assert plans_clean == plans_noisy

    def test_malicious_update_differs_everywhere(self, monkeypatch):
        import vbfl.orchestrator as orchestrator

        noise = orchestrator.inject_gaussian_noise
        distorted = []

        def recording(clean, *args):
            sent = noise(clean, *args)
            distorted.append((clean, sent))
            return sent

        monkeypatch.setattr(orchestrator, "inject_gaussian_noise", recording)
        cfg = tiny_cfg(rounds=1, malicious=tuple(range(20)), vh=1.0)
        sim = Simulation(cfg)
        log = record_messages(sim)
        sim.run_round()
        assert [sent for _, sent in distorted] == [tx.update for tx in log[1].worker_txs]
        for clean, sent in distorted:
            frac = np.mean(clean.values != sent.values)
            assert frac >= 0.99

    def test_flipped_validators_invert_votes(self):
        base = tiny_cfg(rounds=1, malicious=(0, 1, 2, 3, 4, 5, 6, 7), vh=1.0)
        honest = Simulation(base)
        flipped = Simulation(
            dataclasses.replace(
                base,
                malicious_behaviors=(BEHAVIOR_WORKER_NOISE, BEHAVIOR_VALIDATOR_FLIP),
            )
        )
        mh = honest.run_round()
        mf = flipped.run_round()
        flipped_validators = set(mf.votes.validators) & flipped.malicious_ids
        if not flipped_validators:
            pytest.skip("no malicious device drew the validator role this round")
        # A flipping validator sends the inverse of each honest vote; its
        # vad and every other validator's votes stay as they were.
        th, tf = mh.votes, mf.votes
        assert (th.validators, th.workers) == (tf.validators, tf.workers)
        assert np.array_equal(th.vad, tf.vad)
        flips = np.array([v in flipped_validators for v in tf.validators])
        assert np.array_equal(tf.negative[flips], ~th.negative[flips])
        assert np.array_equal(tf.negative[~flips], th.negative[~flips])

    def test_rounds_zero_genesis_only(self):
        result = run_simulation(tiny_cfg(rounds=0))
        assert result.metrics == []
        for st in result.driver.state.values():
            assert len(st.replica.chain) == 1

    def test_chains_identical_and_verified(self):
        sim = Simulation(tiny_cfg(rounds=3))
        sim.run()
        tips = {st.replica.chain.tip_hash for st in sim.state.values()}
        assert len(tips) == 1
        for st in sim.state.values():
            assert st.replica.chain.verify_links()
            assert len(st.replica.chain) == 4

    def test_pow_round_runs(self, tmp_path):
        cfg = tiny_cfg(rounds=2, consensus="pow", pow_difficulty=1)
        result = run_simulation(cfg, out_dir=tmp_path)
        assert all(m.legitimate_block is not None for m in result.metrics)
        rows = (result.out_dir / "rounds.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["1", "POW"], ["2", "POW"]]

    def test_forked_round_under_zero_wait(self):
        cfg = tiny_cfg(
            rounds=2,
            network=NetworkConfig(delay=1.0, jitter=0.0, propagated_block_wait=0.0),
        )
        sim = Simulation(cfg)
        metrics = sim.run()
        assert any(m.forked for m in metrics)

    def test_streak_reset_event_emitted(self):
        # Round 1 flags every worker (threshold below -1 rejects all);
        # loosening the threshold afterwards lets flagged devices clear
        # their streak the next time they serve as workers.
        sim = Simulation(tiny_cfg(rounds=2, vh=-1.5))
        m1 = sim.run_round()
        flagged = {d for d, e in round_events(m1) if e == "FLAGGED"}
        assert len(flagged) == 12
        sim.config = dataclasses.replace(sim.config, vh=1.0)
        m2 = sim.run_round()
        resets = {d for d, e in round_events(m2) if e == "STREAK_RESET"}
        workers_again = flagged & set(m2.votes.workers)
        assert workers_again, "no flagged device drew the worker role again"
        assert resets == workers_again
        ref = sorted(sim.state)[0]
        assert all(sim.state[ref].replica.ledger.streak_of(d) == 0 for d in resets)

    def test_untallied_flagged_worker_keeps_its_streak(self, monkeypatch):
        # Round 1 flags every worker. In round 2 one of them serves as a
        # worker again but sends a forged signature, so no block tallies its
        # update: its streak must neither grow nor reset, or withholding an
        # update would clear a flag.
        import vbfl.orchestrator as orchestrator

        sim = Simulation(tiny_cfg(rounds=2, vh=-1.5, signature_scheme="hmac"))
        flagged = {d for d, e in round_events(sim.run_round()) if e == "FLAGGED"}
        assert len(flagged) == 12
        sim.config = dataclasses.replace(sim.config, vh=1.0)
        forged = []
        sign = orchestrator.sign_worker_tx

        def corrupting_sign(tx, signer, *args):
            tx = sign(tx, signer, *args)
            if not forged and tx.worker in flagged:
                forged.append(tx.worker)
                tx = dataclasses.replace(tx, signature=bytes(b ^ 1 for b in tx.signature))
            return tx

        monkeypatch.setattr(orchestrator, "sign_worker_tx", corrupting_sign)
        plans = record_plans(sim)
        m2 = sim.run_round()
        (bad,) = forged
        assert bad in plans[2].workers
        assert bad not in {t.worker for t in m2.legitimate_block.tallies}
        assert any(e == "STREAK_RESET" for _, e in round_events(m2))
        assert (bad, "STREAK_RESET") not in round_events(m2)
        assert {st.replica.ledger.streak_of(bad) for st in sim.state.values()} == {1}

    def test_blacklisted_devices_absent_from_later_blocks(self):
        # After a device is blacklisted, no later block may carry it as a
        # voter, a tally subject or the miner.
        cfg = tiny_cfg(rounds=12, malicious=(17, 18, 19), vh=0.12, kick_r=2)
        sim = Simulation(cfg)
        metrics = sim.run()
        kicked_at = {}
        for m in metrics:
            for device, event in round_events(m):
                if event == "BLACKLISTED":
                    kicked_at[device] = m.round
        assert kicked_at, "no device was blacklisted in the scenario"
        for m in metrics:
            block = m.legitimate_block
            if block is None:
                continue
            banned = {d for d, r in kicked_at.items() if m.round > r}
            assert block.miner not in banned
            for tally in block.tallies:
                assert tally.worker not in banned
                assert not tally.voters & banned

    def test_duplicate_block_hash_guard(self):
        sim = Simulation(tiny_cfg(rounds=1))
        m = sim.run_round()
        with pytest.raises(InvariantViolation):
            sim._seen_block_hashes_add(m.legitimate_block)

    def test_forged_worker_tx_neither_stored_nor_relayed(self, monkeypatch, tmp_path):
        # The first worker signed this round sends a corrupted signature. Its
        # associated validator rejects it on receipt, so it must not be
        # relayed: exactly one validator ever verifies it.
        import vbfl.orchestrator as orchestrator

        forged = []
        sign, verify = orchestrator.sign_worker_tx, orchestrator.verify_worker_tx

        def corrupting_sign(tx, signer, *args):
            tx = sign(tx, signer, *args)
            if not forged:
                forged.append(tx.worker)
                tx = dataclasses.replace(tx, signature=bytes(b ^ 1 for b in tx.signature))
            return tx

        verified = Counter()

        def counting_verify(tx, signer, *args):
            verified[tx.worker] += 1
            return verify(tx, signer, *args)

        monkeypatch.setattr(orchestrator, "sign_worker_tx", corrupting_sign)
        monkeypatch.setattr(orchestrator, "verify_worker_tx", counting_verify)
        sim = Simulation(tiny_cfg(rounds=1, signature_scheme="hmac"))
        log, plans = record_messages(sim), record_plans(sim)
        m = sim.run_round()
        (bad,) = forged
        validators = set(plans[1].validators)
        assert verified[bad] == 1
        assert all(bad not in {tx.worker for tx in txs} for txs in log[1].by_validator.values())
        assert bad not in {t.worker for t in m.legitimate_block.tallies}
        out = write_outputs(RunResult(sim.config, sim.metrics, sim, None), tmp_path)
        vad_rows = (out / "vad.csv").read_text().splitlines()[1:]
        assert vad_rows and not any(bad.hex() in row for row in vad_rows)
        others = {tx.worker for tx in log[1].worker_txs} - {bad}
        assert len(others) == 11
        # Every validator voted on every other worker's update.
        assert set(m.votes.workers) == others
        assert set(m.votes.validators) == validators

    def test_round_skipped_when_no_validators_remain(self):
        cfg = tiny_cfg(
            rounds=1, n_devices=3, n_workers=1, n_validators=1, n_miners=1
        )
        sim = Simulation(cfg)
        doomed = frozenset(sorted(sim.state)[:2])
        for st in sim.state.values():
            st.replica.ledger.blacklist = st.replica.ledger.blacklist | doomed
        ref = sorted(sim.state)[2]
        before = sim.state[ref].replica.g
        m = sim.run_round()
        assert m.skip_reason
        assert sim.state[ref].replica.g == before

    def test_round_without_workers_appends_an_empty_block(self, tmp_path):
        # Round 1 votes its one worker down (vh -1 rejects every update) and
        # blacklists it at once (kick_r 1); round 2 has a validator and a
        # miner but no worker, so its vote table is empty.
        cfg = tiny_cfg(
            rounds=2, n_devices=3, n_workers=1, n_validators=1, n_miners=1, kick_r=1, vh=-1.0
        )
        sim = Simulation(cfg)
        m1 = sim.run_round()
        (worker, _), (kicked, event) = round_events(m1)
        assert (kicked, event) == (worker, "BLACKLISTED")
        ref = min(set(sim.state) - {worker})
        before = sim.state[ref].replica
        plans = record_plans(sim)
        m2 = sim.run_round()
        assert (len(plans[2].workers), len(plans[2].validators), len(plans[2].miners)) == (0, 1, 1)
        after = sim.state[ref].replica
        block = m2.legitimate_block
        assert not m2.skip_reason and after.chain.blocks == before.chain.blocks + (block,)
        assert (block.round, block.tallies, block.miner_reward) == (2, (), 0)
        assert block.validator_rewards == ()
        assert after.g == before.g
        assert m2.replica is after
        assert after.ledger.stake == before.ledger.stake == m1.replica.ledger.stake
        assert round_events(m2) == ()
        out = write_outputs(RunResult(sim.config, sim.metrics, sim, None), tmp_path)
        rounds = [row.split(",")[0] for row in (out / "vad.csv").read_text().splitlines()[1:]]
        assert rounds == ["1"]

    def test_all_blacklisted_run_still_writes_its_outputs(self, tmp_path):
        # With no active device left, the round metrics and the chain dump
        # both read the lowest-id device's replica.
        from vbfl.protocol import chain_from_jsonl

        sim = Simulation(tiny_cfg(rounds=1))
        for st in sim.state.values():
            st.replica.ledger.blacklist = frozenset(sim.state)
        m = sim.run_round()
        assert m.skip_reason == "all devices blacklisted"
        assert m.votes is None and sim.vote_tables == []
        out = write_outputs(RunResult(sim.config, sim.metrics, sim, None), tmp_path)
        dumped = chain_from_jsonl((out / "chain.jsonl").read_text())
        assert dumped.tip_hash == sim.state[min(sim.state)].replica.chain.tip_hash
        assert (out / "vad.csv").read_text().splitlines()[1:] == []

    def test_forking_network_conserves_stake(self):
        # On this forking network the block of round 32 pays a device the
        # reference ledger had already blacklisted; the ledger credits it
        # nothing, and so must the conservation oracle.
        base = get_preset("VBFL_POS_3_20_VHCAL").config
        cfg = dataclasses.replace(
            apply_overrides(base, rounds=32, seed=1, vh=0.03195),
            network=NetworkConfig(delay=1.0, jitter=0.5, propagated_block_wait=0.2),
        )
        assert len(Simulation(cfg).run()) == 32


def _reachable_params(root) -> list[ModelParams]:
    """Every parameter vector reachable from root through dataclass fields
    and containers."""
    seen: set[int] = set()
    found: list[ModelParams] = []
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, ModelParams):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return found


@pytest.mark.parametrize(
    "driver, consensus", [(Simulation, "vfl"), (VanillaRun, "pos"), (VanillaRun, "pow")]
)
def test_driver_rejects_the_other_drivers_config(driver, consensus):
    with pytest.raises(ConfigError, match="^consensus: "):
        driver(tiny_cfg(consensus=consensus))


@pytest.mark.parametrize("runner", [Simulation, VanillaRun])
def test_metrics_hold_no_message_copies(runner):
    # The round's block is its record: the only parameter vectors a record
    # reaches are its replica's global model and the updates its chain tallies.
    metrics = runner(tiny_cfg(rounds=2, consensus="vfl" if runner is VanillaRun else "pos")).run()
    assert len(metrics) == 2
    for m in metrics:
        kept = []
        if m.replica:
            kept = [m.replica.g, *(t.update for b in m.replica.chain.blocks for t in b.tallies)]
        assert {id(p) for p in _reachable_params(m)} <= {id(p) for p in kept}


class TestVanilla:
    def test_everyone_works_every_round(self, monkeypatch):
        import vbfl.orchestrator as orchestrator

        averaged = []
        average = orchestrator.fedavg

        def recording(updates):
            averaged.append(len(updates))
            return average(updates)

        monkeypatch.setattr(orchestrator, "fedavg", recording)
        run = VanillaRun(tiny_cfg(rounds=1, consensus="vfl"))
        m = run.run_round()
        assert averaged == [20]
        assert m.legitimate_block is None

    def test_everyone_trains_in_one_call(self, monkeypatch):
        import vbfl.orchestrator as orchestrator

        trained = []
        train_many = orchestrator.local_train_many

        def training(starts, shards, spec, rngs, epochs=None):
            owner = {id(train): d for d, (train, _) in run.shards.items()}
            trained.append([owner[id(shard)] for shard in shards])
            return train_many(starts, shards, spec, rngs, epochs)

        monkeypatch.setattr(orchestrator, "local_train_many", training)
        run = VanillaRun(tiny_cfg(rounds=1, consensus="vfl"))
        run.run_round()
        assert trained == [[d.id for d in run.devices]]

    def test_deterministic(self):
        a = run_simulation(tiny_cfg(rounds=2, consensus="vfl"))
        b = run_simulation(tiny_cfg(rounds=2, consensus="vfl"))
        assert [m.global_accuracy for m in a.metrics] == [
            m.global_accuracy for m in b.metrics
        ]

    def test_noise_degrades_accuracy(self):
        clean = run_simulation(tiny_cfg(rounds=3, consensus="vfl", malicious=()))
        noisy = run_simulation(tiny_cfg(rounds=3, consensus="vfl", malicious=tuple(range(10))))
        assert noisy.metrics[-1].global_accuracy < clean.metrics[-1].global_accuracy


class TestOutputs:
    def test_files_written_and_deterministic(self, tmp_path):
        files = ("rounds.csv", "stake.csv", "events.csv", "vad.csv", "chain.jsonl", "manifest.json")
        out_a = run_simulation(tiny_cfg(rounds=2), out_dir=tmp_path / "a").out_dir
        out_b = run_simulation(tiny_cfg(rounds=2), out_dir=tmp_path / "b").out_dir
        for name in files:
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_rounds_csv_schema(self, tmp_path):
        out = run_simulation(tiny_cfg(rounds=2), out_dir=tmp_path).out_dir
        header, *rows = (out / "rounds.csv").read_text().splitlines()
        assert header == "round,consensus,winner,winner_malicious,forked,global_accuracy"
        assert len(rows) == 2
        assert rows[0].startswith("1,POS,")

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_cfg(rounds=1, malicious=(19,))
        out = run_simulation(cfg, out_dir=tmp_path, preset="TEST").out_dir
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["preset"] == "TEST"
        assert manifest["hash_algo"] == "sha256"
        assert len(manifest["code_sha256"]) == 64
        assert len(manifest["device_ids"]) == 20
        assert manifest["config"]["master_seed"] == 11
        assert manifest["malicious_ids"] == [manifest["device_ids"][19]]

    def test_vanilla_outputs(self, tmp_path):
        out = run_simulation(tiny_cfg(rounds=2, consensus="vfl"), out_dir=tmp_path).out_dir
        assert (out / "rounds.csv").read_text().splitlines()[1].startswith("1,VFL,,")
        assert not (out / "chain.jsonl").exists()
        # stake/vad/events exist as header-only files
        assert (out / "stake.csv").read_text().splitlines() == [
            "round,device,stake,is_malicious"
        ]

    def test_stake_csv_keeps_zero_stakes(self, tmp_path):
        # Every device has a row each round, those the ledger holds no
        # stake for among them.
        result = run_simulation(tiny_cfg(rounds=1), out_dir=tmp_path)
        ledger = result.metrics[0].replica.ledger
        ids = sorted(result.driver.state)
        assert not set(ids) <= set(ledger.stake)
        rows = [row.split(",") for row in (tmp_path / "stake.csv").read_text().splitlines()[1:]]
        assert [(d, int(stake)) for _, d, stake, _ in rows] == [
            (d.hex(), ledger.stake_of(d)) for d in ids
        ]

    @staticmethod
    def protocol_run_ending_skipped() -> RunResult:
        # Noisy workers draw flags and blacklistings; then every device is
        # blacklisted, so the last round is skipped.
        cfg = tiny_cfg(rounds=4, malicious=(16, 17, 18, 19), noise_variance=4.0, vh=0.05, kick_r=2)
        sim = Simulation(cfg)
        for _ in range(3):
            sim.run_round()
        for st in sim.state.values():
            st.replica.ledger.blacklist = frozenset(sim.state)
        assert sim.run_round().skip_reason
        events = {event for m in sim.metrics for _, event in round_events(m)}
        assert events >= {"FLAGGED", "BLACKLISTED"}
        return RunResult(cfg, sim.metrics, sim, None)

    @staticmethod
    def plain_fl_run() -> RunResult:
        sim = VanillaRun(tiny_cfg(rounds=2, consensus="vfl"))
        return RunResult(sim.config, sim.run(), sim, None)

    @pytest.mark.parametrize(
        "run, consensus", [("protocol_run_ending_skipped", "POS"), ("plain_fl_run", "VFL")]
    )
    def test_csvs_equal_csv_writer_output(self, tmp_path, run, consensus):
        # Each CSV writer formats its lines itself; its bytes are what
        # csv.writer's default dialect writes for the same rows.
        result = getattr(self, run)()
        out = write_outputs(result, tmp_path)
        metrics, malicious = result.metrics, frozenset(result.driver.malicious_ids)
        devices = sorted(d.id for d in result.driver.devices)
        expected = {
            "rounds.csv": csv_writer_bytes(ROUNDS_CSV_FIELDS, [
                (m.round, consensus, m.legitimate_block.miner.hex() if m.legitimate_block else "",
                 int(m.winner_malicious), int(m.forked), float(m.global_accuracy))
                for m in metrics
            ]),
            "stake.csv": csv_writer_bytes(STAKE_CSV_FIELDS, [
                (m.round, d.hex(), m.replica.ledger.stake_of(d), int(d in malicious))
                for m in metrics if m.replica for d in devices
            ]),
            "events.csv": csv_writer_bytes(EVENTS_CSV_FIELDS, [
                (m.round, d.hex(), event) for m in metrics for d, event in round_events(m)
            ]),
            "vad.csv": csv_writer_bytes(VAD_CSV_FIELDS, vad_rows(result.driver.vote_tables)),
        }
        for name, data in expected.items():
            assert (out / name).read_bytes() == data, name

    def test_chain_dump_streams(self, tmp_path):
        # write_outputs holds about one tally's text of the dump at a time,
        # not a block's line: its traced peak stays under the longest line,
        # which holds twelve tallies.
        cfg = tiny_cfg(rounds=10, arch="mlp", mlp_hidden=64)
        sim = Simulation(cfg)
        result = RunResult(cfg, sim.run(), sim, None)
        tracemalloc.start()
        try:
            write_outputs(result, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lines = (tmp_path / "chain.jsonl").read_text().splitlines()
        assert len(json.loads(lines[-1])["tallies"]) == 12
        assert peak < max(map(len, lines))

    def test_chain_dump_audits(self, tmp_path):
        from vbfl.protocol import chain_from_jsonl

        out = run_simulation(tiny_cfg(rounds=2), out_dir=tmp_path).out_dir
        restored = chain_from_jsonl((out / "chain.jsonl").read_text())
        assert len(restored) == 3
        assert restored.verify_links()
