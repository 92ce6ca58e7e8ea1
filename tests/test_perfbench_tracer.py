"""The benchmark's layer tracer still fits the simulator.

perfbench/tracer.py wraps module-level names of ``vbfl`` from outside; a
renamed or removed name would only crash a traced benchmark run. This test
installs the tracer, runs one tiny round of each driver the way
perfbench/measure.py does, and checks that the traced run writes the same
files as an untraced one. It reads perfbench/ and changes nothing there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import vbfl.learning as learning
import vbfl.orchestrator as orchestrator
from vbfl.config import DatasetConfig, SimConfig, TrainSpec
from vbfl.orchestrator import RunResult, Simulation, VanillaRun

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(driver_cls, cfg: SimConfig, out_dir: Path, tracer=None) -> dict[str, bytes]:
    construct = driver_cls if tracer is None else tracer.wrapped("orchestrator.setup", driver_cls)
    driver = construct(cfg)
    if tracer is not None:
        tracer.note_test_sets(driver)
    metrics = driver.run()
    orchestrator.write_outputs(RunResult(cfg, metrics, driver, None), out_dir)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("driver_cls,consensus", [(Simulation, "pos"), (VanillaRun, "vfl")])
def test_traced_round_writes_untraced_outputs(tmp_path, driver_cls, consensus):
    cfg = SimConfig(
        rounds=1,
        master_seed=3,
        consensus=consensus,
        dataset=DatasetConfig(
            dim=8, classes=4, train_per_class=60, test_per_class=30,
            spread=0.5, feature_scale=1.0,
        ),
        arch="mlp",
        mlp_hidden=6,
        train=TrainSpec(epochs=2, learning_rate=0.05, batch_size=10),
    )
    plain = _run(driver_cls, cfg, tmp_path / "plain")
    tracer = _tracer_module().Tracer("test")
    tracer.install()
    try:
        traced = _run(driver_cls, cfg, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert orchestrator.evaluate is learning.evaluate  # uninstalled
    layers = tracer.layer_metrics([1.0] * len(tracer.spans))
    assert layers["orchestrator.round.calls"] == 1.0
    assert layers["learning.evaluate.calls"] >= 1.0
    if driver_cls is Simulation:
        # Every accuracy goes through the one evaluate name: the 12 updates
        # on the shared test set, the 5 validators' references, the global.
        assert layers["learning.evaluate.calls"] == 12 + 5 + 1
        # One vote call per (update, test set) pair: 12 updates, one shared set.
        assert layers["validation.vote.calls"] == 12
        assert layers["consensus.aggregate_votes.calls"] == 1.0
        # Every message is signed once and verified once per hop: the 12
        # worker transactions and the 60 votes (5 validators x 12 updates).
        assert layers["protocol.sign.calls"] == layers["protocol.verify.calls"] == 12 + 60
        # The 60 vote rows of 103 bytes each are among the encoded bytes.
        assert layers["protocol.encode.bytes"] == 45667
        # The whole chain dump is written inside the one wrapped call.
        assert layers["protocol.chain_to_jsonl.calls"] == 1.0
        # Not checked: validation.pretrain.{calls,s} read 0, because the
        # tracer wraps orchestrator.pretrain_one_epoch and the round trains
        # its references in the workers' local_train_many call (ROADMAP
        # item 1).
