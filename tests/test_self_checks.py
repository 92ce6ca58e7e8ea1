"""Each runtime self-check fires when the one thing it guards breaks.

Every test breaks that thing with a monkeypatch on a tiny benign run and
asserts the error that names it: three of the four checks of
``Simulation._check_round_invariants`` (the fourth, two replicas among
actives, is ``test_orchestrator.py``'s
``test_benign_round_requires_one_shared_replica``), the end-of-run replay
check that ``Simulation.run`` makes also when a replayed append rejects,
and the round skip when no miner is left a block to adopt.
"""

from __future__ import annotations

import re

import pytest

import vbfl.consensus as consensus
import vbfl.orchestrator as orchestrator
from vbfl.errors import InvariantViolation
from vbfl.orchestrator import Simulation
from vbfl.protocol import ChainLinkError


def patch_stakes(monkeypatch, edit):
    """Wrap apply_block as the orchestrator calls it: edit(before, after,
    block) changes the stakes of the ledger it returns."""
    apply = orchestrator.apply_block

    def edited(ledger, block):
        after, events = apply(ledger, block)
        edit(ledger, after, block)
        return after, events

    monkeypatch.setattr(orchestrator, "apply_block", edited)


def test_stake_credited_beyond_the_block_rewards(monkeypatch, tiny_config):
    def one_unit_too_many(before, after, block):
        after.stake[block.miner] += 1

    patch_stakes(monkeypatch, one_unit_too_many)
    with pytest.raises(InvariantViolation) as caught:
        Simulation(tiny_config).run_round()
    found = re.fullmatch(r"round 1: stake increase (\d+) != block rewards (\d+)", str(caught.value))
    assert found and int(found[1]) == int(found[2]) + 1


def test_stake_taken_away(monkeypatch, tiny_config):
    taken = []

    def one_unit_less(before, after, block):
        if not taken and before.stake:
            device = min(before.stake)
            after.stake[device] = before.stake[device] - 1
            taken.append(device)

    patch_stakes(monkeypatch, one_unit_less)
    sim = Simulation(tiny_config)
    sim.run_round()  # pays the first stakes
    assert not taken
    with pytest.raises(InvariantViolation) as caught:
        sim.run_round()
    assert str(caught.value) == f"stake of {taken[0].hex()[:8]} decreased"


def test_fork_flag_on_a_benign_network(monkeypatch, tiny_config):
    report = Simulation._report

    def forked(self, ref, **observed):
        if "forked" in observed:
            observed["forked"] = True
        return report(self, ref, **observed)

    monkeypatch.setattr(Simulation, "_report", forked)
    with pytest.raises(InvariantViolation, match="round 1: fork under a benign network"):
        Simulation(tiny_config).run_round()


def test_replay_whose_append_rejects(monkeypatch, tiny_config):
    # The rounds append as usual; only the end-of-run replay is refused.
    def refuse(*args):
        raise ChainLinkError("refused")

    def after_last_round(metrics):
        if metrics.round == tiny_config.rounds:
            monkeypatch.setattr(orchestrator, "append_block", refuse)

    with pytest.raises(InvariantViolation, match=r"replica [0-9a-f]{8} != replay"):
        Simulation(tiny_config).run(after_last_round)


def test_round_without_an_eligible_block_is_skipped(monkeypatch, tiny_config):
    sim = Simulation(tiny_config)
    first = sim.run_round()
    stakes = dict(first.replica.ledger.stake)
    replicas = {d: st.replica for d, st in sim.state.items()}

    def none_eligible(blocks, ledger):
        raise consensus.NoEligibleBlock("all candidate blocks came from blacklisted miners")

    monkeypatch.setattr(consensus, "pos_select", none_eligible)
    second = sim.run_round()
    assert second.skip_reason == "no eligible legitimate block"
    assert second.legitimate_block is None
    assert all(sim.state[d].replica is r for d, r in replicas.items())
    assert second.replica.ledger.stake == stakes
