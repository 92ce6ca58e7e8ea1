"""The paired-benchmark summary on fixed numbers, without running perfbench."""

import importlib.util
import json
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


def test_fewer_than_ten_pairs_are_no_gain(script):
    # Nine of nine won, far outside the parent's spread: still too few pairs.
    change = [p - 25 for p in PARENT[:9]]
    s = script.summarize(list(zip(PARENT[:9], change)), "lower")
    assert s["wins"] == s["pairs"] == 9 and not s["gain"]


def test_higher_is_better(script):
    parent = [0.5, 0.6, 0.55, 0.52, 0.58, 0.51, 0.57, 0.54, 0.56, 0.53]
    s = script.summarize([(p, p + 0.5) for p in parent], "higher")
    assert s["wins"] == 10 and s["gain"]
    s = script.summarize([(p, p - 0.5) for p in parent], "higher")
    assert s["wins"] == 0 and not s["gain"]


def test_bound_is_measured_against_the_parent_median(script):
    # Parent median 198.5 ms; a 0.2 bound allows a change median up to 238.2.
    s = script.summarize([(p, p + 39) for p in PARENT], "lower", 0.2)
    assert s["change"][1] == 237.5 and s["within_bound"]
    s = script.summarize([(p, p + 40) for p in PARENT], "lower", 0.2)
    assert s["change"][1] == 238.5 and not s["within_bound"]
    # Getting better is always within the bound.
    s = script.summarize([(p, p - 100) for p in PARENT], "lower", 0.2)
    assert s["within_bound"] and s["gain"]
    assert script.summarize([(p, p + 40) for p in PARENT], "lower")["within_bound"] is None


def test_bound_when_higher_is_better(script):
    # Parent median 0.535; a 0.1 bound allows a change median down to 0.4815.
    parent = [0.5, 0.6, 0.55, 0.52]
    s = script.summarize([(p, p - 0.05) for p in parent], "higher", 0.1)
    assert s["within_bound"] and s["wins"] == 0
    s = script.summarize([(p, p - 0.06) for p in parent], "higher", 0.1)
    assert not s["within_bound"]


def test_a_spread_wider_than_the_bound_is_unresolved(script):
    # Parent quartiles 150 / 200 / 250: an IQR of 100 ms against a 0.2 bound
    # of 40 ms, so a change median 1 ms worse cannot be told apart.
    parent = [100.0, 150.0, 200.0, 250.0, 300.0]
    s = script.summarize([(p, p + 1) for p in parent], "lower", 0.2)
    assert s["within_bound"] and s["unresolved"] and s["wins"] == 0
    # Outside the bound stays outside; unresolved only replaces "within".
    s = script.summarize([(p, p + 50) for p in parent], "lower", 0.2)
    assert not s["within_bound"] and not s["unresolved"]
    # No bound, nothing to resolve.
    assert not script.summarize([(p, p + 1) for p in parent], "lower")["unresolved"]


def test_a_change_that_beats_every_parent_run_is_resolved(script):
    parent = [100.0, 150.0, 200.0, 250.0, 300.0]
    s = script.summarize([(p, 99.0) for p in parent], "lower", 0.2)
    assert s["within_bound"] and not s["unresolved"]
    # One change run no better than the best parent run leaves it open.
    s = script.summarize([(p, 99.0) for p in parent[1:]] + [(100.0, 100.0)], "lower", 0.2)
    assert s["within_bound"] and s["unresolved"]
    # The same rule when higher is better.
    s = script.summarize([(p, 301.0) for p in parent], "higher", 0.2)
    assert s["within_bound"] and not s["unresolved"]


def test_ratio_of_medians(script):
    s = script.summarize([(p, p * 0.75) for p in PARENT], "lower")
    assert s["ratio"] == pytest.approx(0.75)
    assert script.summarize([(0.0, 1.0), (0.0, 2.0)], "lower")["ratio"] is None


def test_main_prints_each_metric_against_its_bound(script, tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "round_ms.p50", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}))
    values = {"parent": {"round_ms.p50": 200.0, "peak_rss_mb": 80.0},
              "change": {"round_ms.p50": 150.0, "peak_rss_mb": 90.0}}

    def run_once(checkout, workload, seconds, seed):
        side = "change" if checkout == tmp_path else "parent"
        return {"correct": True, "failed": 0,
                "metrics": {k: {"value": v} for k, v in values[side].items()}}

    monkeypatch.setattr(script, "run_once", run_once)
    assert script.main([str(tmp_path / "parent"), str(tmp_path), "--workload", "w",
                        "--pairs", "2"]) == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert lines["round_ms.p50"].endswith("within bound")
    assert "change/parent 0.750 of 200 " in lines["round_ms.p50"]
    assert lines["peak_rss_mb"].endswith("OUTSIDE BOUND")
    assert "change/parent 1.125 of 80 " in lines["peak_rss_mb"]


def test_a_failing_perfbench_run_is_reported(script, tmp_path, capsys):
    # The parent runs first in pair 1, and its perfbench exits 3.
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text(
        "import sys\nprint('setting up', file=sys.stderr)\n"
        "print('no such workload: w', file=sys.stderr)\nsys.exit(3)\n"
    )
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    assert script.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    err = capsys.readouterr().err
    assert "parent run of pair 1 exited 3" in err
    assert err.rstrip().endswith("setting up\nno such workload: w")


@pytest.mark.parametrize("stdout", ["", "done\n", "[1, 2]\n"])
def test_a_run_without_a_json_record_is_reported(script, tmp_path, capsys, stdout):
    # The parent runs first in pair 1, exits 0, and its last line is no record.
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text(f"print({stdout!r}, end='')\n")
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    assert script.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    err = capsys.readouterr().err
    assert "parent run of pair 1 exited 0, but its last stdout line is not a JSON object" in err


ENV = {"python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.30",
       "blas_threads": 1, "OPENBLAS_NUM_THREADS": "1", "nproc": 2,
       "loadavg_at_start": [0.5, 0.4, 0.3], "git_sha": "a" * 40, "src_sha256": "b" * 64}


def perfbench_stdout(**env) -> str:
    """What perfbench/run.py prints for one run, its env fields replaced by env."""
    return (
        "workload w, seed 1, trace 0; record in .perfbench_out/result-w-seed1-trace0.json\n"
        "  run_s                                       0.5 s\n"
        "  ops_failed                                    0 share  0 of 3 simulations\n"
        f"env: {json.dumps({**ENV, **env})}\n"
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"run_s": {"value": 0.5, "unit": "s"}}}\n'
    )


def test_parse_run_reads_the_env_line(script):
    record = script.parse_run(perfbench_stdout())
    assert record["correct"] and record["metrics"]["run_s"]["value"] == 0.5
    assert record["env"] == ENV
    assert script.parse_run('{"correct": true}\n')["env"] == {}


@pytest.mark.parametrize("change_env, warning", [
    ({"git_sha": "c" * 40, "loadavg_at_start": [1.9, 1.0, 0.7]}, None),
    ({"blas_threads": 2, "OPENBLAS_NUM_THREADS": "2", "git_sha": "c" * 40},
     "  WARNING: parent and change ran with different blas_threads, OPENBLAS_NUM_THREADS"),
], ids=["same", "blas-threads-differ"])
def test_main_prints_each_side_environment(script, tmp_path, monkeypatch, capsys,
                                           change_env, warning):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2},
    ]}))

    def run_once(checkout, workload, seconds, seed):
        return script.parse_run(perfbench_stdout(**(change_env if checkout == tmp_path else {})))

    monkeypatch.setattr(script, "run_once", run_once)
    assert script.main([str(tmp_path / "parent"), str(tmp_path), "--workload", "w",
                        "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    blas = change_env.get("blas_threads", 1)
    openblas = change_env.get("OPENBLAS_NUM_THREADS", "1")
    assert lines[1:3] == [
        "  parent env: blas_threads=1, OPENBLAS_NUM_THREADS=1, nproc=2, numpy=2.4.6, "
        "python=3.11.7",
        f"  change env: blas_threads={blas}, OPENBLAS_NUM_THREADS={openblas}, nproc=2, "
        "numpy=2.4.6, python=3.11.7",
    ]
    assert [line for line in lines if "WARNING" in line] == ([warning] if warning else [])
