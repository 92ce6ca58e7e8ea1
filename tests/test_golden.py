"""Golden output digests: the run files of short tiny configs, pinned by SHA-256.

Each config runs in a fresh interpreter with a fixed ``PYTHONHASHSEED`` and
one BLAS thread, so the digests also pin determinism across processes, not
only within one; one case is re-run with another hash seed and one with two
BLAS threads. A change that moves any digest changes behaviour: it must say
so and derive the digests again, with the reason. Each run also checks that
every line of its chain dump is canonical JSON.

Every case but ``pos_ragged`` gives each device a 12-row shard;
``pos_ragged`` mixes 12- and 13-row shards, so its workers train in two
groups of equal shard length. Every test set has 120 rows but
``pos_screen``'s, whose 1,024 rows ``learning.evaluate`` screens in
float32. The ``network`` case ends with its devices on
several replicas after rejected appends, so its digests also guard the key
under which a round settles each (replica, block) pair once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import CHOICES, leaf, write_idx

import vbfl.learning as learning
import vbfl.orchestrator as orchestrator
import vbfl.protocol as protocol
from vbfl.config import (
    BEHAVIOR_VALIDATOR_FLIP,
    BEHAVIOR_WORKER_NOISE,
    DatasetConfig,
    NetworkConfig,
    SimConfig,
    TrainSpec,
)
from vbfl.errors import ConfigError, InvariantViolation
from vbfl.orchestrator import Simulation, run_simulation
from vbfl.protocol import BlockRejected
from vbfl.rewards import apply_block

SRC = Path(__file__).resolve().parent.parent / "src"

_RUN = """
import hashlib, json, sys, tempfile
from pathlib import Path
from vbfl.config import SimConfig
from vbfl.orchestrator import run_simulation

cfg = SimConfig.from_dict(json.loads(sys.argv[1]))
with tempfile.TemporaryDirectory() as tmp:
    out = run_simulation(cfg, out_dir=tmp).out_dir
    dump = out / "chain.jsonl"
    lines = dump.read_text().splitlines(keepends=True) if dump.exists() else []
    print(json.dumps({
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out).iterdir()) if p.name != "manifest.json"
    }))
    print(json.dumps([
        n for n, line in enumerate(lines, 1)
        if line != json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\\n"
    ]))
"""


def _tiny(**kw) -> SimConfig:
    base = dict(
        rounds=5,
        master_seed=1,
        dataset=DatasetConfig(
            dim=8, classes=4, train_per_class=60, test_per_class=30,
            spread=0.5, feature_scale=1.0,
        ),
        arch="softmax",
        train=TrainSpec(epochs=2, learning_rate=0.05, batch_size=10),
        malicious=(16, 17, 18, 19),
        noise_variance=4.0,
        vh=0.05,
        kick_r=2,
    )
    base.update(kw)
    return SimConfig(**base)


CASES = {
    "pos_stub": _tiny(arch="mlp", mlp_hidden=6),
    # 244 rows over 20 devices: shards of 13 and of 12 rows train in two groups.
    "pos_ragged": _tiny(
        arch="mlp", mlp_hidden=6,
        dataset=DatasetConfig(
            dim=8, classes=4, train_per_class=61, test_per_class=30,
            spread=0.5, feature_scale=1.0,
        ),
    ),
    "pos_hmac_shard": _tiny(signature_scheme="hmac", validator_test="shard"),
    "pow_race": _tiny(consensus="pow", pow_difficulty=2),
    "network": _tiny(
        rounds=8, network=NetworkConfig(delay=1.0, jitter=0.5, propagated_block_wait=0.2)
    ),
    "vanilla": _tiny(consensus="vfl"),
    "flip_skew": _tiny(
        malicious_behaviors=(BEHAVIOR_WORKER_NOISE, BEHAVIOR_VALIDATOR_FLIP),
        sharding="label_skew",
    ),
    # A 1,024-row shared test set: evaluate screens it in float32.
    "pos_screen": _tiny(
        arch="mlp", mlp_hidden=6,
        dataset=DatasetConfig(
            dim=8, classes=4, train_per_class=60, test_per_class=256,
            spread=0.5, feature_scale=1.0,
        ),
    ),
}

GOLDEN = {
    "flip_skew": {
        "chain.jsonl": "9d1724d1214a3cb736f5d27b969e5fa4e664315011c5405faa97f2cbbd3b7a50",
        "events.csv": "da3ed4fb45b21d68026dad889a0375d3c72ab3049f38b337a1a6e903009d066a",
        "rounds.csv": "06bce2d5f090fb61d7aaba539200044ae9ef8bd560063cb14f3dd2664cd7c3c2",
        "stake.csv": "01f36fac45d070632a666696b8b83cea6dd1ac1cd4e7e00a5b6992d3fe751eef",
        "vad.csv": "e9a842e5bfab07db1a61ea8fe863bfaf6cbb653530ed68a8d6c0c35e2e27b9f8",
    },
    "network": {
        "chain.jsonl": "dbb0e3dcee9f1d43123b5b4ab0c8944807b31a51a27d668b532decff8364fc56",
        "events.csv": "1ed7b5ae8ac8edffcb238a8a391b0d24bed0f6651e3ede58fb5991c9e1fcf0d4",
        "rounds.csv": "ae8e567a2c0204aad7167727de16baa5c3de9b0c780f77ddb41b2b85d938ca60",
        "stake.csv": "5c735645566de81a0cd35522065609d382ba0c1f755d4009c899e848b14caee8",
        "vad.csv": "8dd012416c029138cfa56350b6e2d29cfeb418786617296f86544aaaeb9e8c0d",
    },
    "pos_hmac_shard": {
        "chain.jsonl": "5b48e643a3c559769a72a5527b15d1857c6b1002a3f3c3632663451d09190026",
        "events.csv": "950bdcd750772e0e9dd09f7dffb0a2909d425ef84e25a7d13638c3183d978e82",
        "rounds.csv": "f28599e079aa337471ff51dd3c51e5204b85e31894a69ed10fa9cc99aca46af7",
        "stake.csv": "51c9f6e428d0e4db40f4209c3b0336f6f4c5800627fe976a12787af7b82df25e",
        "vad.csv": "c5b5daf3d6f568aa2df0afeb1562ca9ae8ed69e8441803951140eda3324b98c2",
    },
    "pos_ragged": {
        "chain.jsonl": "07f06b5b536507eb200fb5d66543d939d6b3cb59799147f9ede54ae881b40ae3",
        "events.csv": "c6015bddff28a144727b53e6c271b11b76ee64055c14d9ac0f5c1bad5cf13621",
        "rounds.csv": "5ec49359f3de4233398d6242f12c32a14ffc17f1a94ac254ce89d6c8ba4efb4c",
        "stake.csv": "05b021706cd3c3150ef71e20e225ddb98b6996c5b0bc6d87f8544c2e479706c9",
        "vad.csv": "ec2fb5e4fad0118e20782d12bfda06a02a0f245544f911ce0dc1c96dcade570d",
    },
    "pos_screen": {
        "chain.jsonl": "5158cf24d0c15598bcb79e6eb496a57b9531e95d8fe87a4e7a2553e70ad7d9ec",
        "events.csv": "1d320a8b7f42e00135bfeffbcd81232d9451f2c7356fbe50216c228c56947eec",
        "rounds.csv": "9de361a3512d933b4a1499acc98692c94a72e209c898370fe95dc4f1105eb564",
        "stake.csv": "391fc30d92830cf895f11f570aaaf9a72dcb1904e957bbaabeacf1cae71daac2",
        "vad.csv": "d4e0bb8eaab5f4814d4a3df1cbd3b8f030ce65cab9a4830ed8efa4051cead594",
    },
    "pos_stub": {
        "chain.jsonl": "c18d0afc6354ef851cfab0dbbbd63276d9bbdc6c9ecb44079b4e921b3dc9dd20",
        "events.csv": "1d320a8b7f42e00135bfeffbcd81232d9451f2c7356fbe50216c228c56947eec",
        "rounds.csv": "535b1936912f64efd5a8e3b8aa9fb679fb5a48902467a56a1c235cabbe9bfad8",
        "stake.csv": "391fc30d92830cf895f11f570aaaf9a72dcb1904e957bbaabeacf1cae71daac2",
        "vad.csv": "f94be612ed173df9a39d4534f082a3f0b1adc1a64645fb6b6c1672aafb3b5488",
    },
    "pow_race": {
        "chain.jsonl": "3fbed6b75583c8334b14b73ec7d1b383b6540f7b07c8571e38dd690e16f5bfd8",
        "events.csv": "96ce8ae849d59c09cbdf59e46ceb8ea2fd0a3704ec95b0d6de5200f760e532c8",
        "rounds.csv": "c646fdcd122b9a529f224c618da1cccf99fe3070fd2dc55fe756e6cc54f0da75",
        "stake.csv": "37c7d9624777efdb212ab0c8785fcbf29421e5abf245d20c20a2f3366d87ab8f",
        "vad.csv": "9ca06db64af69cdbc6012d3955356b493410c614c094cde664e7568a32e94135",
    },
    "vanilla": {
        "events.csv": "460a0c234029345ac9df73337c5baa51964c014336e5df268644c7baeeb00f40",
        "rounds.csv": "1d8d372bdc958cdbe2fbe2757f8cb0a565b77d23282c34931f68695b0b766286",
        "stake.csv": "edf55a94065564c54e005745f23ba03b37b5b679e72ff9ab3eaa1e04f3fe4a52",
        "vad.csv": "0641e18a8dbf41f709eca8a7d5f4c2b20e3f6f060f3274f2c9df84f631bf8b71",
    },
}


def _digests(cfg: SimConfig, hash_seed: str = "0", blas_threads: str = "1") -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(cfg.to_dict())],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digests, non_canonical = map(json.loads, proc.stdout.splitlines())
    # Every dump line is canonical JSON: what json.dumps writes, keys sorted
    # and no whitespace, for the object it holds.
    assert non_canonical == []
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name):
    assert _digests(CASES[name]) == GOLDEN[name]


def test_digests_independent_of_hash_seed():
    assert _digests(CASES["pos_stub"], hash_seed="7") == GOLDEN["pos_stub"]


@pytest.mark.parametrize("name", ["pos_stub", "pos_screen"])
def test_digests_independent_of_blas_threads(name):
    # A two-thread sgemm rounds the screen's float32 logits differently;
    # the accuracies, and so every digest, must not move.
    assert _digests(CASES[name], blas_threads="2") == GOLDEN[name]


def test_screen_case_runs_the_screen(monkeypatch):
    # pos_screen's digests guard the float32 screen only if its test set is
    # screened and the screen decides it, not the float64 pass alone.
    results = []
    screen = learning._screen

    def recording(*args):
        results.append(screen(*args))
        return results[-1]

    monkeypatch.setattr(learning, "_screen", recording)
    Simulation(CASES["pos_screen"]).run()
    assert any(correct is not None for correct in results)


def test_network_case_splits_replicas(monkeypatch):
    # The network case's digests guard the settle memo's (replica, block)
    # key only if its devices end on several replicas and some appends fail.
    rejected = []
    append = orchestrator.append_block

    def counting(*args):
        try:
            return append(*args)
        except BlockRejected:
            rejected.append(args[1])
            raise

    monkeypatch.setattr(orchestrator, "append_block", counting)
    sim = Simulation(CASES["network"])
    sim.run()
    assert len({id(st.replica) for st in sim.state.values()}) >= 2
    assert rejected


def count_seals(monkeypatch) -> Counter:
    """Wrap seal_block as the orchestrator calls it; the Counter fills with
    the seals per round."""
    seals = Counter()
    seal = protocol.seal_block

    def counting(block, *args):
        seals[block.round] += 1
        return seal(block, *args)

    monkeypatch.setattr(protocol, "seal_block", counting)
    return seals


def test_benign_round_seals_only_its_block(monkeypatch):
    # Selection reads no hash, so of the round's candidates only the one the
    # miners adopt is ever hashed and signed.
    seals = count_seals(monkeypatch)
    metrics = Simulation(CASES["pos_stub"]).run()
    decided = [m.round for m in metrics if not m.skip_reason]
    assert decided
    assert seals == Counter(decided)


def test_network_case_seals_each_adopted_block_once(monkeypatch):
    seals = count_seals(monkeypatch)
    adopted = Counter()
    select = Simulation._select

    def recording(self, plan, *args):
        choice = select(self, plan, *args)
        adopted[plan.round] = len({b.miner for b in choice.values()})
        return choice

    monkeypatch.setattr(Simulation, "_select", recording)
    Simulation(CASES["network"]).run()
    assert max(adopted.values()) >= 2  # miners adopt different blocks
    assert seals == +adopted


def test_replica_edited_in_place_fails_replay():
    sim = Simulation(CASES["network"])
    ref = sorted(sim.state)[0]

    def tamper(metrics):
        if metrics.round == 3:
            ledger = sim.state[ref].replica.ledger
            ledger.stake[ref] = ledger.stake_of(ref) + 1

    with pytest.raises(InvariantViolation, match="!= replay"):
        sim.run(tamper)


def test_replica_with_other_tip_events_fails_replay():
    # The replay check compares each replica's tip events, not only its
    # chain, ledger and model.
    sim = Simulation(CASES["pos_stub"])
    ref = sorted(sim.state)[0]

    def tamper(metrics):
        if metrics.round == sim.config.rounds:
            st = sim.state[ref]
            st.replica = dataclasses.replace(st.replica, events=(*st.replica.events, (ref, "x")))

    with pytest.raises(InvariantViolation, match="!= replay"):
        sim.run(tamper)


def test_network_case_reports_only_what_its_reporting_replica_adopted():
    # A round reports a block, and that block's events, exactly when the
    # reporting replica's chain grew by it. The network case has rounds in
    # which it rejected every block while its tip still holds events.
    sim = Simulation(CASES["network"])
    missed = 0
    for _ in range(sim.config.rounds):
        ref = sim._roster()[2]
        before = sim.state[ref].replica
        m = sim.run_round()
        after = sim.state[ref].replica
        assert m.replica is after
        if len(after.chain) > len(before.chain):
            block = after.chain.blocks[-1]
            assert m.legitimate_block is block
            assert after.events == apply_block(before.ledger, block)[1]
        else:
            assert after is before
            assert m.legitimate_block is None
            missed += bool(after.events)
    assert missed


@pytest.mark.parametrize("name", sorted(set(CASES) - {"vanilla"}))
def test_chain_dump_alone_rebuilds_the_ledger(name, tmp_path):
    # The blocks of chain.jsonl, extended from genesis, give the last
    # round's stake.csv and all of events.csv: no other input is needed.
    cfg = CASES[name]
    out = run_simulation(cfg, out_dir=tmp_path).out_dir
    chain = protocol.chain_from_jsonl((out / "chain.jsonl").read_text())
    sim = Simulation(cfg)
    replica, events = sim.genesis, []
    for block in chain.blocks[1:]:
        replica = orchestrator.extend(replica, block, sim.signer)
        events += [f"{block.round},{d.hex()},{e}" for d, e in replica.events]
    rows = [line.split(",") for line in (out / "stake.csv").read_text().splitlines()[1:]]
    last = max(int(row[0]) for row in rows)
    stakes = {d: int(stake) for r, d, stake, _ in rows if int(r) == last}
    assert len(stakes) == cfg.n_devices
    assert stakes == {d: replica.ledger.stake_of(bytes.fromhex(d)) for d in stakes}
    assert events and events == (out / "events.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize(
    "cfg",
    [CASES["network"], _tiny(malicious=(0, 1, 2, 3))],
    ids=["network", "first_device_blacklisted"],
)
def test_chain_dump_is_the_last_records_chain(cfg, tmp_path):
    # chain.jsonl and rounds.csv describe one replica, the one the last round
    # reported: the network case ends on several replicas, and once the
    # lowest-id device is blacklisted its replica goes stale.
    result = run_simulation(cfg, out_dir=tmp_path)
    last = result.metrics[-1]
    assert len({id(st.replica) for st in result.driver.state.values()}) > 1
    chain = protocol.chain_from_jsonl((tmp_path / "chain.jsonl").read_text())
    assert chain == last.replica.chain
    assert last.legitimate_block == chain.blocks[-1]
    winner = (tmp_path / "rounds.csv").read_text().splitlines()[-1].split(",")[2]
    assert winner == chain.blocks[-1].miner.hex()


def test_protocol_run_of_no_round_dumps_genesis(tmp_path):
    result = run_simulation(dataclasses.replace(CASES["pos_stub"], rounds=0), out_dir=tmp_path)
    assert result.metrics == []
    chain = protocol.chain_from_jsonl((tmp_path / "chain.jsonl").read_text())
    assert chain == result.driver.genesis.chain and len(chain) == 1


@pytest.fixture(scope="module")
def golden_chain(tmp_path_factory) -> protocol.Blockchain:
    """pos_stub's chain, read back from its dump, which holds its digest."""
    out = run_simulation(CASES["pos_stub"], out_dir=tmp_path_factory.mktemp("pos_stub")).out_dir
    dump = (out / "chain.jsonl").read_bytes()
    assert hashlib.sha256(dump).hexdigest() == GOLDEN["pos_stub"]["chain.jsonl"]
    return protocol.chain_from_jsonl(dump.decode())


def _tampered(chain: protocol.Blockchain, tamper: str) -> protocol.Blockchain:
    """The chain with one fault that only one of verify_links' checks sees."""
    *blocks, last = chain.blocks
    if tamper == "bad link":  # a block dropped: the next one links past it
        return protocol.Blockchain((*blocks[:-1], last))
    if tamper == "bad hash":  # a reward raised without re-hashing
        last = dataclasses.replace(last, miner_reward=last.miner_reward + 1)
    else:  # the last block under its predecessor's round, re-hashed
        last = dataclasses.replace(last, round=blocks[-1].round)
        last = dataclasses.replace(last, content_hash=protocol.compute_content_hash(last))
    return protocol.Blockchain((*blocks, last))


@pytest.mark.parametrize("tamper", ["bad link", "bad hash", "round does not advance"])
def test_tampered_golden_chain_fails_its_link_check(golden_chain, tamper):
    assert golden_chain.verify_links()
    assert len(golden_chain) == 1 + CASES["pos_stub"].rounds
    assert not _tampered(golden_chain, tamper).verify_links()


def _idx_case(idx_dir, **kw) -> SimConfig:
    return _tiny(rounds=2, dataset=DatasetConfig(idx_dir=str(idx_dir)), **kw)


def test_every_choice_runs():
    # Each value of each choice field runs in a golden case or in the IDX
    # test below, so no choice-valued knob goes untested.
    ran = {
        (key, choice)
        for cfg in (*CASES.values(), _idx_case("idx"))
        for key in CHOICES
        for value in (leaf(cfg, key),)
        for choice in (value if isinstance(value, tuple) else (value,))
    }
    assert {(key, c) for key, choices in CHOICES.items() for c in choices} <= ran


def test_idx_dataset_runs(tmp_path):
    # 240 training rows give each of 20 devices a 12-row shard; 12 test rows
    # serve every device under validator_test="full" but not one each
    # under "shard". One file is gzipped, so find() falls back to ".gz".
    rng = np.random.default_rng(0)
    idx_dir = tmp_path / "idx"
    idx_dir.mkdir()
    for split, rows in (("train", 240), ("t10k", 12)):
        images = rng.integers(0, 256, size=(rows, 3, 3)).astype(">u1")
        write_idx(idx_dir / f"{split}-images-idx3-ubyte", images, 0x08)
        labels = (np.arange(rows) % 4).astype(">u1")
        gz = split == "train"
        name = f"{split}-labels-idx1-ubyte" + (".gz" if gz else "")
        write_idx(idx_dir / name, labels, 0x08, compress=gz)
    out = run_simulation(_idx_case(idx_dir), out_dir=tmp_path / "out").out_dir
    assert len((out / "rounds.csv").read_text().splitlines()) == 1 + 2
    assert len(protocol.chain_from_jsonl((out / "chain.jsonl").read_text()).blocks) == 1 + 2
    with pytest.raises(ConfigError, match="^dataset: 12 test rows for 20 devices"):
        run_simulation(_idx_case(idx_dir, validator_test="shard"))
