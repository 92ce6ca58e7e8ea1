import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from conftest import record_messages

from vbfl.datasets import make_blobs_task
from vbfl.errors import ConfigError, InvariantViolation
from vbfl.learning import ModelParams, TrainSpec, fedavg
from vbfl.orchestrator import (
    BEHAVIOR_VALIDATOR_FLIP,
    BEHAVIOR_WORKER_NOISE,
    DatasetConfig,
    NetworkConfig,
    Role,
    RunResult,
    SimConfig,
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
    "dataset.kind": "idx",
    "dataset.dim": 16,
    "dataset.classes": 3,
    "dataset.train_per_class": 50,
    "dataset.test_per_class": 20,
    "dataset.spread": 1.5,
    "dataset.feature_scale": 2.0,
    "dataset.informative_dims": 4,
    "dataset.seed": 5,
    "dataset.idx_dir": "data/mnist",
    "arch": "softmax",
    "mlp_hidden": 8,
    "role_policy": "fixed",
    "role_sequence": ("wwwwwvvvmm", "vvvmmwwwww"),
    "validation_scheme": "legacy",
    "validator_test": "shard",
    "sharding": "label_skew",
    "signature_scheme": "hmac",
}


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
        with pytest.raises(ConfigError, match="hash_rates"):
            SimConfig.from_dict({"hash_rates": []})

    def test_bad_train_spec_named(self):
        with pytest.raises(ConfigError, match="^train: epochs"):
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
        def leaves(cls, prefix=""):
            for f in dataclasses.fields(cls):
                if dataclasses.is_dataclass(f.default):
                    yield from leaves(type(f.default), f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        assert set(leaves(SimConfig)) == set(NON_DEFAULT)
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


class TestDevices:
    def test_stable_and_sorted(self):
        a = make_devices(20)
        b = make_devices(20)
        assert a == b
        ids = [d.id for d in a]
        assert ids == sorted(ids)
        assert len(set(ids)) == 20

    def test_numbering_matches_order(self):
        devs = make_devices(5)
        assert [d.number for d in devs] == list(range(5))


class TestSharding:
    def task(self, train_total=40):
        return make_blobs_task(
            dim=4, classes=4, train_per_class=train_total // 4, test_per_class=5, seed=3
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
        # One read-only buffer, one shard object and access count per device.
        tests = [test for _, test in shards.values()]
        assert len({t.buffer_id for t in tests}) == 1
        assert len({id(t) for t in tests}) == len(tests)
        x, _ = tests[0].arrays()
        assert not x.flags.writeable
        assert np.array_equal(x, task.test_x)
        assert [t.access_count for t in tests] == [1] + [0] * (len(tests) - 1)
        # Both drivers read the global accuracy from that same buffer.
        sim = Simulation(tiny_cfg(rounds=1))
        assert {st.test.buffer_id for st in sim.state.values()} == {sim.full_test.buffer_id}
        run = VanillaRun(tiny_cfg(rounds=1, consensus="vfl"))
        assert {test.buffer_id for _, test in run.shards.values()} == {run.full_test.buffer_id}
        # Disjoint test shards leave one full copy for the global accuracy.
        sharded = Simulation(tiny_cfg(rounds=1, validator_test="shard"))
        assert sharded.full_test.buffer_id not in {
            st.test.buffer_id for st in sharded.state.values()
        }
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
        task = make_blobs_task(dim=2, classes=2, train_per_class=2, test_per_class=2)
        with pytest.raises(ValueError, match="smaller"):
            shard_dataset(task, self.ids(5), substream(0, "shard"))


class TestRoles:
    def test_counts_respected(self):
        cfg = tiny_cfg()
        ids = [d.id for d in make_devices(20)]
        roles = assign_roles(1, ids, cfg, substream(0, "roles", 1))
        counts = {r: sum(1 for v in roles.values() if v is r) for r in Role}
        assert counts == {Role.WORKER: 12, Role.VALIDATOR: 5, Role.MINER: 3}

    def test_rotation_actually_rotates(self):
        cfg = tiny_cfg()
        ids = [d.id for d in make_devices(20)]
        maps = [
            assign_roles(j, ids, cfg, substream(0, "roles", j)) for j in range(1, 101)
        ]
        assert any(maps[0] != m for m in maps[1:])

    def test_fixed_sequence_replays(self):
        seq = ("w" * 12 + "v" * 5 + "m" * 3,)
        cfg = tiny_cfg(role_policy="fixed", role_sequence=seq)
        ids = [d.id for d in make_devices(20)]
        for j in (1, 2, 9):
            roles = assign_roles(j, ids, cfg, substream(0, "roles", j))
            assert roles[sorted(ids)[0]] is Role.WORKER
            assert roles[sorted(ids)[19]] is Role.MINER

    def test_blacklisted_excluded_and_workers_shrink_first(self):
        cfg = tiny_cfg()
        ids = [d.id for d in make_devices(20)]
        excluded = frozenset(sorted(ids)[:2])
        roles = assign_roles(1, ids, cfg, substream(0, "roles", 1), excluded=excluded)
        assert not excluded & set(roles)
        counts = {r: sum(1 for v in roles.values() if v is r) for r in Role}
        assert counts == {Role.WORKER: 10, Role.VALIDATOR: 5, Role.MINER: 3}


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

    def test_round_evaluates_each_update_once(self, monkeypatch):
        import vbfl.orchestrator as orchestrator

        calls = count_calls(monkeypatch, orchestrator, "evaluate", "fedavg")
        sim = Simulation(tiny_cfg(rounds=1))
        log = record_messages(sim)
        m = sim.run_round()
        # One evaluation per distinct update on the shared test set, plus
        # the global accuracy; one average for the block all replicas adopt.
        assert calls["evaluate"] == len({id(tx.update) for tx in log[1].worker_txs}) + 1
        assert calls["fedavg"] == 1
        assert len(m.vad_records) == 12 * 5

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
        import vbfl.orchestrator as orchestrator
        import vbfl.validation as validation

        trained = []
        train_many = orchestrator.local_train_many

        def training(starts, shards, spec, rngs):
            trained.append(([shard.shard_of for shard in shards], spec.epochs))
            return train_many(starts, shards, spec, rngs)

        monkeypatch.setattr(orchestrator, "local_train_many", training)
        monkeypatch.setattr(validation, "local_train_many", training)
        sim = Simulation(tiny_cfg(rounds=1))
        log = record_messages(sim)
        m = sim.run_round()
        # One stacked call holding exactly the round's workers, in worker
        # order; then one holding the validators, for one epoch each.
        workers = [tx.worker for tx in log[1].worker_txs]
        validators = sorted(d for d, r in m.roles.items() if r == Role.VALIDATOR)
        assert trained == [(workers, TINY_TRAIN.epochs), (validators, 1)]
        assert sorted(workers) == sorted(d for d, r in m.roles.items() if r == Role.WORKER)

    def test_round_aggregates_and_encodes_once(self, monkeypatch):
        import vbfl.consensus as consensus
        import vbfl.protocol as protocol

        aggregated = count_calls(monkeypatch, consensus, "aggregate_votes")
        encoded = count_calls(monkeypatch, protocol, "encode_model_params")
        sim = Simulation(tiny_cfg(rounds=1))
        m = sim.run_round()
        # All 3 miners store the same 60 votes: one tally set for every
        # candidate. A worker's parameters are encoded when it signs and
        # again when the block is appended (votes and the shared tally
        # section reuse the signed bytes), plus g0 for the genesis block,
        # however many validators vote and miners build candidates.
        workers = sum(r == Role.WORKER for r in m.roles.values())
        assert aggregated["aggregate_votes"] == 1
        assert 0 < encoded["encode_model_params"] <= 3 * workers

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
        assert len(m.events) >= 12  # every worker flagged

    def test_round_metrics_fields(self):
        sim = Simulation(tiny_cfg(rounds=1))
        m = sim.run_round()
        assert m.round == 1
        assert m.consensus == "POS"
        assert 0.0 <= m.global_accuracy <= 1.0
        assert m.winner is not None and not m.winner_malicious
        assert not m.forked and not m.skipped
        assert set(m.stakes) == set(sim.state)
        assert len(m.vad_records) == 12 * 5

    def test_miner_never_reads_its_train_shard(self):
        sim = Simulation(tiny_cfg(rounds=1))
        before = {d: st.train.access_count for d, st in sim.state.items()}
        m = sim.run_round()
        for d, role in m.roles.items():
            accesses = sim.state[d].train.access_count - before[d]
            if role is Role.MINER:
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
        mc = clean.run_round()
        mn = noisy.run_round()
        assert mc.roles == mn.roles

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
        flipped_validators = {
            d for d, r in mf.roles.items() if r is Role.VALIDATOR
        } & flipped.malicious_ids
        if not flipped_validators:
            pytest.skip("no malicious device drew the validator role this round")
        hv = {(r.validator, r.worker): r.vote for r in mh.vad_records}
        for rec in mf.vad_records:
            if rec.validator in flipped_validators:
                assert rec.vote is not hv[(rec.validator, rec.worker)]

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

    def test_pow_round_runs(self):
        cfg = tiny_cfg(rounds=2, consensus="pow", pow_difficulty=1)
        sim = Simulation(cfg)
        for m in sim.run():
            assert m.consensus == "POW"
            assert m.winner is not None

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
        flagged = {d for d, e in m1.events if e == "FLAGGED"}
        assert len(flagged) == 12
        sim.config = dataclasses.replace(sim.config, vh=1.0)
        m2 = sim.run_round()
        resets = {d for d, e in m2.events if e == "STREAK_RESET"}
        workers_again = flagged & {d for d, r in m2.roles.items() if r is Role.WORKER}
        assert workers_again, "no flagged device drew the worker role again"
        assert resets == workers_again
        ref = sorted(sim.state)[0]
        assert all(sim.state[ref].replica.ledger.streak_of(d) == 0 for d in resets)

    def test_legacy_validation_scheme_runs(self):
        cfg = tiny_cfg(rounds=2, validation_scheme="legacy", malicious=(19,), vh=0.12)
        sim = Simulation(cfg)
        metrics = sim.run()
        assert len(sim.vad_records) == 2 * 12 * 5
        assert all(0 <= m.global_accuracy <= 1 for m in metrics)

    def test_blacklisted_devices_absent_from_later_blocks(self):
        # After a device is blacklisted, no later block may carry it as a
        # voter, a tally subject or the miner.
        cfg = tiny_cfg(rounds=12, malicious=(17, 18, 19), vh=0.12, kick_r=2)
        sim = Simulation(cfg)
        metrics = sim.run()
        kicked_at = {}
        for m in metrics:
            for device, event in m.events:
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
        log = record_messages(sim)
        m = sim.run_round()
        (bad,) = forged
        validators = {d for d, r in m.roles.items() if r is Role.VALIDATOR}
        assert verified[bad] == 1
        assert all(bad not in {tx.worker for tx in txs} for txs in log[1].by_validator.values())
        assert bad not in {t.worker for t in m.legitimate_block.tallies}
        out = write_outputs(RunResult(sim.config, sim.metrics, sim, None), tmp_path)
        vad_rows = (out / "vad.csv").read_text().splitlines()[1:]
        assert vad_rows and not any(bad.hex() in row for row in vad_rows)
        others = {tx.worker for tx in log[1].worker_txs} - {bad}
        assert len(others) == 11
        for w in others:
            assert {r.validator for r in m.vad_records if r.worker == w} == validators

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
        assert m.skipped
        assert sim.state[ref].replica.g == before

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
    # The round's block is its record: no update may stay reachable from
    # the metrics except through legitimate_block.
    metrics = runner(tiny_cfg(rounds=2, consensus="vfl" if runner is VanillaRun else "pos")).run()
    assert len(metrics) == 2
    for m in metrics:
        for f in dataclasses.fields(m):
            if f.name != "legitimate_block":
                assert not _reachable_params(getattr(m, f.name)), f.name


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
        assert m.consensus == "VFL"
        assert m.winner is None

    def test_everyone_trains_in_one_call(self, monkeypatch):
        import vbfl.orchestrator as orchestrator

        trained = []
        train_many = orchestrator.local_train_many

        def training(starts, shards, spec, rngs):
            trained.append([shard.shard_of for shard in shards])
            return train_many(starts, shards, spec, rngs)

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

    def test_chain_dump_audits(self, tmp_path):
        from vbfl.protocol import chain_from_jsonl

        out = run_simulation(tiny_cfg(rounds=2), out_dir=tmp_path).out_dir
        restored = chain_from_jsonl((out / "chain.jsonl").read_text())
        assert len(restored) == 3
        assert restored.verify_links()
