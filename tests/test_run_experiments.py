"""Smoke test of the sweep script: one round, one seed, every setup."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_round_sweep_prints_a_row_per_setup(capsys):
    script = load_script()
    assert script.main(["--rounds", "1", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in script.SETUPS:
        rows = [line for line in lines if line.startswith(name + " ")]
        assert len(rows) == 1, name
