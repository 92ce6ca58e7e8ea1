"""Smoke test of the sweep script: one round, one seed, every setup."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from vbfl import cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """(script, stdout lines, output root) of a one-round, one-seed sweep."""
    script = load_script()
    out = tmp_path_factory.mktemp("sweep")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert script.main(["--rounds", "1", "--seeds", "1", "--out", str(out)]) == 0
    return script, stdout.getvalue().splitlines(), out


def summary(lines: list[str]) -> list[str]:
    """The table and matrix lines, from the table header on."""
    start = next(k for k, line in enumerate(lines) if line.startswith("group "))
    return [line for line in lines[start:] if line and not line.startswith("total ")]


def test_one_round_sweep_prints_a_table_and_a_matrix_row_per_setup(sweep):
    script, lines, _ = sweep
    for name in script.SETUPS:
        rows = [line for line in lines if line.startswith(name + " ")]
        assert len(rows) == 2, name


def test_sweep_summary_equals_compare_over_its_run_directories(sweep, capsys):
    script, lines, out = sweep
    dirs = [out / f"{name.lower()}-seed1" for name in script.SETUPS]
    assert cli.main(["compare", *map(str, dirs)]) == 0
    compared = capsys.readouterr().out.splitlines()
    assert summary(compared) == summary(lines)
    ratios = compared.index("final-accuracy ratios (row / column):")
    headers = compared[ratios + 1].split()
    assert sorted(headers) == sorted(script.SETUPS)
