"""End-to-end acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line (run with ``pytest -s`` to see them as they go). Runs are
cached and shared across criteria; the three experiment seeds and the
calibration seed are fixed constants of the suite.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import record_messages, round_events

from vbfl.consensus import aggregate_votes
from vbfl.learning import ModelParams, softmax_arch
from vbfl.orchestrator import RunResult, Simulation, run_simulation
from vbfl.presets import apply_overrides, get_preset
from vbfl.protocol import Vote, VoteTally, WorkerTransaction, ZERO_HASH, Block
from vbfl.rewards import (
    EVENT_BLACKLISTED,
    EVENT_FLAGGED,
    StakeLedger,
    apply_block,
)
from vbfl.validation import suggest_threshold

SEEDS = (1, 2, 5)
CALIBRATION_SEED = 7
RUN_TIME_BUDGET_S = 120.0

_cache: dict = {}
_messages: dict = {}


def run(preset_name: str, seed: int, rounds: int | None = None, vh: float | None = None):
    key = (preset_name, seed, rounds, vh)
    if key not in _cache:
        preset = get_preset(preset_name)
        config = apply_overrides(preset.config, rounds=rounds, seed=seed, vh=vh)
        t0 = time.perf_counter()
        if config.consensus == "vfl":
            result = run_simulation(config)
        else:
            sim = Simulation(config)
            _messages[key] = record_messages(sim)
            result = RunResult(config, sim.run(), sim, None)
        _cache[key] = (result, time.perf_counter() - t0)
    return _cache[key]


def messages(preset_name: str, seed: int, rounds: int | None = None, vh: float | None = None):
    """Each round's gossip of the cached protocol run, by round number."""
    run(preset_name, seed, rounds, vh)
    return _messages[(preset_name, seed, rounds, vh)]


@pytest.fixture(scope="module")
def calibrated_vh() -> float:
    result, _ = run("CALIBRATE_VH", CALIBRATION_SEED)
    tables = result.driver.vote_tables
    # Full delivery: 30 rounds x 12 workers x 5 validators.
    assert [t.vad.shape for t in tables] == [(5, 12)] * 30
    return suggest_threshold(tables)["suggested_vh"]


def final_acc(result) -> float:
    return result.metrics[-1].global_accuracy


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_1_benign_equivalence():
    # Clean 30-round runs of the full protocol (threshold 1.0) and plain FL
    # agree within 0.02 per seed, each run inside the time budget.
    details = []
    for seed in SEEDS:
        vfl, t_vfl = run("VFL_0_20", seed, rounds=30)
        vbfl, t_vbfl = run("VBFL_POS_0_20_VH1", seed, rounds=30)
        diff = abs(final_acc(vbfl) - final_acc(vfl))
        assert diff <= 0.02, f"seed {seed}: benign gap {diff:.4f} > 0.02"
        assert t_vfl <= RUN_TIME_BUDGET_S and t_vbfl <= RUN_TIME_BUDGET_S
        details.append(f"seed {seed}: gap {diff:.4f}")
    report("criterion 1 (benign equivalence)", "; ".join(details))


def test_criterion_2_poisoning_collapse_and_recovery(calibrated_vh):
    details = []
    for seed in SEEDS:
        clean = final_acc(run("VFL_0_20", seed)[0])
        noisy = final_acc(run("VFL_3_20", seed)[0])
        defended = final_acc(run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)[0])
        assert noisy <= 0.5 * clean, f"seed {seed}: no collapse ({noisy:.3f} vs {clean:.3f})"
        assert defended >= 2.0 * noisy, f"seed {seed}: weak recovery ({defended:.3f} vs {noisy:.3f})"
        assert defended >= 0.85 * clean, f"seed {seed}: defended run too far below clean"
        details.append(
            f"seed {seed}: clean {clean:.3f} noisy {noisy:.3f} defended {defended:.3f}"
        )
    report("criterion 2 (collapse and recovery)", "; ".join(details))


def test_criterion_3_malicious_validator_robustness(calibrated_vh):
    # At seeds 1 and 5 the vote flips move no accuracy or stake at all: only
    # the 3 malicious devices flip, and a flip decides a tally only as part
    # of a majority of the round's 5 validators.
    details = []
    for seed in SEEDS:
        base = final_acc(run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)[0])
        mv = final_acc(run("VBFL_POS_3_20_VHCAL_MV", seed, vh=calibrated_vh)[0])
        diff = abs(mv - base)
        assert diff <= 0.03, f"seed {seed}: vote-flipping moved accuracy by {diff:.4f}"
        details.append(f"seed {seed}: diff {diff:.4f}")
    report("criterion 3 (malicious validators)", "; ".join(details))


def test_criterion_4_miner_selection(calibrated_vh):
    pos_counts, d1_counts, d2_counts = [], [], []
    for seed in SEEDS:
        pos, _ = run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        d1, _ = run("VBFL_POW_3_20_VHCAL_D1", seed, vh=calibrated_vh)
        d2, _ = run("VBFL_POW_3_20_VHCAL_D2", seed, vh=calibrated_vh)
        pos_counts.append(sum(m.winner_malicious for m in pos.metrics))
        d1_counts.append(sum(m.winner_malicious for m in d1.metrics))
        d2_counts.append(sum(m.winner_malicious for m in d2.metrics))
    assert pos_counts == [0, 0, 0], f"stake selection picked malicious miners: {pos_counts}"
    assert sum(1 for c in d1_counts if c >= 1) >= 2, f"difficulty-1 counts {d1_counts}"
    assert sum(1 for c in d2_counts if c >= 1) >= 2, f"difficulty-2 counts {d2_counts}"
    report(
        "criterion 4 (miner selection)",
        f"stake {pos_counts}, race d1 {d1_counts}, race d2 {d2_counts}",
    )


def test_consensus_choice_moves_winners_not_the_model(calibrated_vh):
    # Every miner builds its candidate from the same verified votes, so every
    # block adopted in a round carries the same tallies: the stake rule and
    # the mining race pick whose rewards a round credits, not the global
    # model. Criterion 4's runs show it; a change that lets the consensus
    # move the model must change this test on purpose.
    details = []
    for seed in SEEDS:
        pos, _ = run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        for name in ("VBFL_POW_3_20_VHCAL_D1", "VBFL_POW_3_20_VHCAL_D2"):
            race, _ = run(name, seed, vh=calibrated_vh)
            accuracy = [[m.global_accuracy for m in r.metrics] for r in (pos, race)]
            assert accuracy[0] == accuracy[1], f"seed {seed}: {name} moved the accuracy"
            tables = pos.driver.vote_tables, race.driver.vote_tables
            assert len(tables[0]) == len(tables[1]) == len(pos.metrics)
            for a, b in zip(*tables):
                assert (a.round, a.validators, a.workers) == (b.round, b.validators, b.workers)
                assert np.array_equal(a.vad, b.vad) and np.array_equal(a.negative, b.negative)
            differ = sum(
                m.legitimate_block.miner != n.legitimate_block.miner
                for m, n in zip(pos.metrics, race.metrics)
            )
            assert differ >= 1, f"seed {seed}: {name} picked the stake rule's winners"
            details.append(f"seed {seed} {name[-2:]}: {differ} winners differ")
    report("consensus moves winners, not the model", "; ".join(details))


def test_criterion_5_stake_plateau(calibrated_vh):
    details = []
    for seed in SEEDS:
        result, _ = run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        # A device holds one role per round, so the stake change of a worker
        # whose update the round tallied is its worker reward.
        late_gains = []
        prev: dict[bytes, int] = {}
        for m in result.metrics:
            workers = set(m.votes.workers) if m.votes else set()
            for d in sorted(result.driver.malicious_ids):
                gain = m.replica.ledger.stake_of(d) - prev.get(d, 0)
                if m.round > 20 and d in workers and gain:
                    late_gains.append((m.round, d.hex()[:8], gain))
            prev = m.replica.ledger.stake
        assert late_gains == [], f"seed {seed}: malicious worker rewards after round 20"
        details.append(f"seed {seed}: 0 late worker rewards")
    report("criterion 5 (stake plateau)", "; ".join(details))


def _oracle_round_rewards(metrics, msgs, unit: int) -> dict[bytes, dict[str, int]]:
    """Recompute every device's round rewards from the round's raw messages,
    calling no reward function of the code under test."""
    out: dict[bytes, dict[str, int]] = {}

    def credit(device, source, amount):
        out.setdefault(device, {"worker": 0, "validator": 0, "miner": 0})
        out[device][source] += amount

    if metrics.legitimate_block is None:
        return out
    winner = metrics.legitimate_block.miner
    winner_votes = msgs.by_miner[winner]
    # Workers: recount votes over the rows the winner verified.
    votes: dict[bytes, list[Vote]] = {}
    for v in winner_votes:
        votes.setdefault(v.worker, []).append(v.vote)
    for tx in msgs.worker_txs:
        tallied = votes.get(tx.worker, [])
        if not tallied:
            continue  # zero-vote workers stay unrewarded
        positives = sum(1 for v in tallied if v is Vote.POSITIVE)
        negatives = len(tallied) - positives
        due = tx.epochs * tx.train_size * unit
        if positives >= negatives and tx.expected_reward == due:
            credit(tx.worker, "worker", due)
    # Validators: one unit per verified transaction plus one per vote cast.
    for validator, txs in msgs.by_validator.items():
        n_votes = sum(1 for v in winner_votes if v.validator == validator)
        assert n_votes <= len(txs), "a validator voted on a transaction it did not verify"
        credit(validator, "validator", (len(txs) + n_votes) * unit)
    # The winning miner: one unit per verified vote.
    credit(winner, "miner", len(winner_votes) * unit)
    return out


def test_criterion_6_reward_oracle(calibrated_vh):
    rounds_checked = 0
    for seed in SEEDS:
        result, _ = run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        log = messages("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        prev: dict[bytes, int] = {}
        for m in result.metrics:
            want = _oracle_round_rewards(m, log.get(m.round), result.config.unit_reward)
            for device in result.driver.state:
                stake = m.replica.ledger.stake_of(device)
                expected = sum(want.get(device, {}).values())
                assert stake - prev.get(device, 0) == expected, (
                    f"seed {seed} round {m.round} device {device.hex()[:8]}: "
                    f"stake change {stake - prev.get(device, 0)} != recomputed {expected}"
                )
            block = m.legitimate_block
            if block is not None:
                assert dict(block.validator_rewards) == {
                    d: r["validator"] for d, r in want.items() if r["validator"]
                }
                assert block.miner_reward == want[block.miner]["miner"]
            prev = m.replica.ledger.stake
            rounds_checked += 1
    report("criterion 6 (reward oracle)", f"{rounds_checked} rounds, exact match")


def test_criterion_7_vote_aggregation_oracle(calibrated_vh):
    rounds_checked = 0
    for seed in SEEDS:
        result, _ = run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        log = messages("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        for m in result.metrics:
            if m.legitimate_block is None:
                continue
            txs = log[m.round].worker_txs
            for miner, votes in log[m.round].by_miner.items():
                # Brute-force recount of the rows the miner verified.
                by_worker: dict[bytes, dict] = {}
                for v in votes:
                    g = by_worker.setdefault(v.worker, {"pos": 0, "neg": 0, "voters": set()})
                    g["pos"] += v.vote is Vote.POSITIVE
                    g["neg"] += v.vote is Vote.NEGATIVE
                    g["voters"].add(v.validator)
                # The same votes as aggregate_votes' column input.
                validators = sorted({v.validator for v in votes})
                column = {tx.worker: j for j, tx in enumerate(txs)}
                kept = np.zeros((len(validators), len(txs)), dtype=bool)
                signed = np.zeros(kept.shape, dtype=np.uint8)
                for v in votes:
                    cell = validators.index(v.validator), column[v.worker]
                    assert not kept[cell], "a (validator, worker) vote held twice"
                    kept[cell], signed[cell] = True, v.vote.value
                got = aggregate_votes(txs, validators, kept, signed)
                assert len(got) == len(by_worker)
                for tally in got:
                    want = by_worker[tally.worker]
                    assert (tally.positives, tally.negatives) == (want["pos"], want["neg"])
                    assert tally.voters == frozenset(want["voters"])
            # The adopted block tallies the same votes.
            assert m.legitimate_block.tallies == got
            rounds_checked += 1
    report("criterion 7 (vote aggregation oracle)", f"{rounds_checked} rounds, exact match")


def _tally(worker: bytes, pos: int, neg: int) -> VoteTally:
    arch = softmax_arch(2, 2)
    tx = WorkerTransaction(
        round=1, worker=worker,
        update=ModelParams(np.zeros(6), arch),
        expected_reward=750, epochs=5, train_size=150,
    )
    return VoteTally(tx, pos, neg, frozenset(bytes([60 + i]) * 16 for i in range(pos + neg)))


def _block(tallies, round_no: int) -> Block:
    return Block(
        round=round_no, miner=bytes([40]) * 16, prev_hash=ZERO_HASH,
        tallies=tuple(tallies), miner_reward=0, validator_rewards=(),
    )


def test_criterion_8_blacklisting_timing():
    # Scripted scenario: a device flagged in exactly six consecutive
    # worker-serving rounds is blacklisted on the sixth, never earlier;
    # validator-duty rounds in between do not break the streak, while one
    # positively voted worker round resets it.
    target = bytes([1]) * 16
    ledger = StakeLedger(unit_reward=1, kick_r=6)
    round_no = 0

    def outcome(ledger, events):
        """The ledger, and the flagged and the newly blacklisted devices."""
        kinds = (EVENT_FLAGGED, EVENT_BLACKLISTED)
        return ledger, *({d for d, e in events if e == kind} for kind in kinds)

    def worker_round(ledger, flagged: bool):
        nonlocal round_no
        round_no += 1
        votes = (0, 3) if flagged else (3, 0)
        block = _block([_tally(target, *votes)], round_no)
        return outcome(*apply_block(ledger, block))

    def bystander_round(ledger):
        nonlocal round_no
        round_no += 1
        block = _block([_tally(bytes([2]) * 16, 3, 0)], round_no)
        return outcome(*apply_block(ledger, block))

    # Five flagged worker rounds with a validator round wedged in: streak
    # survives the non-worker round and stays below the threshold.
    for i in range(5):
        ledger, flagged, blacklisted = worker_round(ledger, flagged=True)
        assert target in flagged and not blacklisted
        if i == 2:
            ledger, _, blacklisted = bystander_round(ledger)
            assert not blacklisted
    assert ledger.streak_of(target) == 5
    assert target not in ledger.blacklist

    # One positively voted worker round wipes the streak.
    ledger, flagged, blacklisted = worker_round(ledger, flagged=False)
    assert target not in flagged and not blacklisted
    assert ledger.streak_of(target) == 0

    # Six consecutive flagged worker rounds: blacklisted exactly on the 6th.
    for i in range(1, 7):
        ledger, _, blacklisted = worker_round(ledger, flagged=True)
        if i < 6:
            assert not blacklisted, f"blacklisted early, flagged round {i}"
        else:
            assert blacklisted == {target}
    assert target in ledger.blacklist
    report("criterion 8 (blacklisting timing)", "kick on 6th flagged worker round; reset works")


def test_criterion_8_end_to_end_flag_counts(calibrated_vh):
    # Corroboration on a live run: each malicious device collects exactly
    # six FLAGGED events before its BLACKLISTED event.
    result, _ = run("VBFL_POS_3_20_VHCAL", SEEDS[0], vh=calibrated_vh)
    events = [(m.round, d, e) for m in result.metrics for d, e in round_events(m)]
    for device in result.driver.malicious_ids:
        mine = [(r, e) for r, d, e in events if d == device]
        kicked = [r for r, e in mine if e == "BLACKLISTED"]
        assert kicked, f"{device.hex()[:8]} never blacklisted"
        flags_before = [r for r, e in mine if e == "FLAGGED" and r <= kicked[0]]
        assert len(flags_before) == 6
    report("criterion 8 (end-to-end)", "6 flags per malicious device before kick")


def test_criterion_9_determinism(tmp_path):
    budget_presets = [("CALIBRATE_VH", None), ("VFL_3_20", 30)]
    checked = []
    for preset_name, rounds in budget_presets:
        preset = get_preset(preset_name)
        config = apply_overrides(preset.config, rounds=rounds, seed=13)
        out_a, out_b = (
            run_simulation(config, out_dir=tmp_path / f"{preset_name}-{k}", preset=preset_name).out_dir
            for k in "ab"
        )
        names = [p.name for p in sorted(out_a.iterdir())]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{preset_name}: {name} differs between identical runs"
            )
        checked.append(f"{preset_name}: {len(names)} files identical")
    report("criterion 9 (determinism)", "; ".join(checked))


def test_criterion_10_consensus_safety(calibrated_vh):
    details = []
    for seed in SEEDS:
        result, _ = run("VBFL_POS_3_20_VHCAL", seed, vh=calibrated_vh)
        assert all(not m.forked for m in result.metrics), f"seed {seed}: forked round"
        # Per-round chain equality is enforced by the runtime invariant
        # check (the run would have failed); verify the end state too.
        sim = result.driver
        actives, _ = sim._roster()
        replicas = {id(sim.state[d].replica): sim.state[d].replica for d in actives}
        assert len(replicas) == 1, f"seed {seed}: active devices on {len(replicas)} replicas"
        (replica,) = replicas.values()
        assert replica.chain.verify_links()
        details.append(f"seed {seed}: forked=0, {len(actives)} devices share one chain")
    report("criterion 10 (consensus safety)", "; ".join(details))
