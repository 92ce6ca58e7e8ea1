"""The paired-benchmark summary on fixed numbers, without running perfbench."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [194.0, 197.0, 204.0, 196.0, 199.0, 210.0, 195.0, 198.0, 202.0, 200.0]


def test_quartiles(script):
    assert script.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert script.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_clear_gain_holds(script):
    change = [p - 25 for p in PARENT]
    s = script.summarize(list(zip(PARENT, change)), "lower")
    assert s["wins"] == s["pairs"] == 10
    assert s["parent"] == (196.25, 198.5, 201.5)
    assert s["change"] == (171.25, 173.5, 176.5)
    assert s["gain"]


def test_nine_wins_and_a_tie_are_enough(script):
    change = [p - 25 for p in PARENT[:9]] + [PARENT[9]]
    s = script.summarize(list(zip(PARENT, change)), "lower")
    assert s["wins"] == 9 and s["gain"]


def test_eight_wins_are_not(script):
    change = [p - 25 for p in PARENT[:8]] + [PARENT[8] + 1, PARENT[9]]
    s = script.summarize(list(zip(PARENT, change)), "lower")
    assert s["wins"] == 8 and not s["gain"]


def test_a_gain_inside_the_parent_spread_is_not(script):
    # Every pair won, but by 2 ms against a parent IQR of 5.25 ms.
    change = [p - 2 for p in PARENT]
    s = script.summarize(list(zip(PARENT, change)), "lower")
    assert s["wins"] == 10 and not s["gain"]


def test_higher_is_better(script):
    parent = [0.5, 0.6, 0.55, 0.52]
    s = script.summarize([(p, p + 0.5) for p in parent], "higher")
    assert s["wins"] == 4 and s["gain"]
    s = script.summarize([(p, p - 0.5) for p in parent], "higher")
    assert s["wins"] == 0 and not s["gain"]
