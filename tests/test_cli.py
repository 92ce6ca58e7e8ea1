import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import write_idx

from vbfl import cli
from vbfl.errors import InvariantViolation

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"

TINY_CONFIG = {
    "rounds": 2,
    "master_seed": 4,
    "arch": "softmax",
    "train": {"epochs": 1, "learning_rate": 0.05, "batch_size": 10},
    "dataset": {
        "dim": 8, "classes": 4, "train_per_class": 60, "test_per_class": 30,
        "spread": 0.5, "feature_scale": 1.0,
    },
}


# The header of a one-dimensional IDX file of 200 items; % fills in the dtype code.
IDX_200 = b"\x00\x00%c\x01\x00\x00\x00\xc8"


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def unreadable(path, content: bytes | None):
    """path holding content, or a directory when content is None."""
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    return path


def write_tiny_config(tmp_path, **extra):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**TINY_CONFIG, **extra}))
    return path


class TestRun:
    def test_config_file_row_count(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        rows = (out / "rounds.csv").read_text().splitlines()
        assert len(rows) == 1 + 2
        assert "round   1" in capsys.readouterr().out

    def test_rounds_override(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--rounds", 4, "--out", out, "--quiet") == 0
        assert len((out / "rounds.csv").read_text().splitlines()) == 5

    def test_preset_row_count(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--preset", "VBFL_POS_0_20_VH1", "--rounds", 3, "--seed", 7,
            "--out", out, "--quiet",
        )
        assert code == 0
        assert len((out / "rounds.csv").read_text().splitlines()) == 1 + 3

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("run", "--config", cfg, "--seed", 9, "--out", out, "--quiet") == 0
            outs.append(out)
        for fname in ("rounds.csv", "stake.csv", "vad.csv", "events.csv", "chain.jsonl", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, gremlin=True)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "gremlin" in capsys.readouterr().err

    def test_wrong_typed_config_value_exits_one(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, train={"epochs": "5"})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "train.epochs" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: config: file not found: {path}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [b"{not json", b"\xff{}", None],
                             ids=["not-json", "not-utf8", "a-directory"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, content):
        path = unreadable(tmp_path / "exp.json", content)
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith(f"error: config: cannot read {path} as JSON: ")
        assert not (tmp_path / "o").exists()

    def test_preset_and_config_mutually_exclusive(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert run_cli("run", "--preset", "VFL_0_20", "--config", cfg) == 1

    def test_vhcal_requires_threshold(self, capsys):
        assert run_cli("run", "--preset", "VBFL_POS_3_20_VHCAL", "--rounds", 1) == 1
        err = capsys.readouterr().err
        assert "vh" in err and "CALIBRATE_VH" in err

    def test_vhcal_accepts_explicit_vh(self, tmp_path):
        code = run_cli(
            "run", "--preset", "VBFL_POS_3_20_VHCAL", "--rounds", 1,
            "--seed", 1, "--vh", 0.05, "--out", tmp_path / "o", "--quiet",
        )
        assert code == 0

    def test_calibration_writes_threshold_file(self, tmp_path):
        out = tmp_path / "cal"
        code = run_cli(
            "run", "--preset", "CALIBRATE_VH", "--rounds", 4, "--seed", 7,
            "--out", out, "--quiet",
        )
        assert code == 0
        data = json.loads((out / "vh_calibration.json").read_text())
        assert set(data) >= {"suggested_vh", "legit_vad_p90", "malicious_vad_p10"}

    @pytest.mark.parametrize("argv", [("--malicious", 0, "--rounds", 1), ("--rounds", 0)])
    def test_calibration_without_both_populations_exits_one(self, tmp_path, capsys, argv):
        # No malicious device, or no round at all, leaves suggest_threshold
        # one population short: a named error, and no threshold file.
        out = tmp_path / "cal"
        code = run_cli("run", "--preset", "CALIBRATE_VH", *argv, "--out", out, "--quiet")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: calibration: ")
        assert "no vh_calibration.json was written" in err
        assert (out / "rounds.csv").exists()
        assert not (out / "vh_calibration.json").exists()

    def test_vh_file_flag(self, tmp_path):
        vh_file = tmp_path / "vh_calibration.json"
        vh_file.write_text(json.dumps({"suggested_vh": 0.04}))
        code = run_cli(
            "run", "--preset", "VBFL_POS_3_20_VHCAL", "--rounds", 1, "--seed", 1,
            "--vh-file", vh_file, "--out", tmp_path / "o", "--quiet",
        )
        assert code == 0

    @pytest.mark.parametrize("vh", [
        True, "0.05", None, math.nan, math.inf, -math.inf,
        pytest.param(10**400, id="int-beyond-float"),
    ])
    def test_vh_file_not_a_number_exits_one(self, tmp_path, capsys, vh):
        # As in a config, a threshold is a finite JSON number: true would run
        # as 1.0, and NaN, Infinity (which json writes) or an integer beyond
        # float range is no threshold.
        vh_file = tmp_path / "vh_calibration.json"
        vh_file.write_text(json.dumps({"suggested_vh": vh}))
        code = run_cli(
            "run", "--preset", "VBFL_POS_3_20_VHCAL", "--rounds", 1, "--seed", 1,
            "--vh-file", vh_file, "--out", tmp_path / "o", "--quiet",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: vh-file: ") and "must be a finite number" in err
        assert not (tmp_path / "o").exists()

    def test_missing_vh_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        code = run_cli("run", "--preset", "VBFL_POS_3_20_VHCAL", "--vh-file", path,
                       "--out", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"error: vh-file: file not found: {path}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [b"0.05 0.06", b'{"vh": 0.05}', b"\xff{}", None],
                             ids=["not-json", "no-suggested-vh", "not-utf8", "a-directory"])
    def test_unreadable_vh_file_exits_one(self, tmp_path, capsys, content):
        path = unreadable(tmp_path / "vh_calibration.json", content)
        code = run_cli("run", "--preset", "VBFL_POS_3_20_VHCAL", "--vh-file", path,
                       "--out", tmp_path / "o")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: vh-file: cannot read suggested_vh from {path}: ")
        assert not (tmp_path / "o").exists()

    def test_cwd_calibration_file_is_not_read(self, tmp_path, monkeypatch, capsys):
        # The threshold comes from --vh or --vh-file alone, never from a
        # calibration file that happens to lie in the working directory.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "vh_calibration.json").write_text(json.dumps({"suggested_vh": 0.04}))
        code = run_cli(
            "run", "--preset", "VBFL_POS_3_20_VHCAL", "--rounds", 1, "--seed", 1,
            "--out", tmp_path / "o", "--quiet",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: vh: preset VBFL_POS_3_20_VHCAL needs a calibrated threshold; "
            "run CALIBRATE_VH first and pass --vh or --vh-file\n"
        )
        assert not (tmp_path / "o").exists()

    def test_cwd_calibration_does_not_leak_into_other_presets(self, tmp_path, monkeypatch):
        # A stray calibration file must not override the all-Positive
        # threshold of a calibration or clean run.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "vh_calibration.json").write_text(json.dumps({"suggested_vh": -2.0}))
        out = tmp_path / "o"
        code = run_cli(
            "run", "--preset", "VBFL_POS_0_20_VH1", "--rounds", 1, "--seed", 1,
            "--out", out, "--quiet",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["vh"] == 1.0

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
        cfg = write_tiny_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--quiet") == 0
        assert (tmp_path / "envout" / "exp-seed4" / "rounds.csv").exists()

    def test_out_is_a_file_exits_one_before_round_one(self, tmp_path):
        # Run as a process, so that a traceback would show on stderr.
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        done = subprocess.run(
            [sys.executable, "-m", "vbfl.cli", "run", "--preset", "VFL_3_20",
             "--rounds", "1", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: out: ")
        assert "Traceback" not in done.stderr
        assert "round" not in done.stdout
        assert out.read_text() == "not a directory\n"

    def test_out_under_a_file_exits_one(self, tmp_path, capsys):
        # The output directory's parent is a regular file, so it cannot be made.
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        cfg = write_tiny_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--out", taken / "sub", "--quiet") == 1
        assert capsys.readouterr().err.startswith(f"error: out: cannot use {taken / 'sub'} ")
        assert taken.read_text() == "not a directory\n"

    def test_plain_fl_run_removes_an_earlier_chain_dump(self, tmp_path):
        out = tmp_path / "o"
        for preset in ("VBFL_POS_0_20_VH1", "VFL_0_20"):
            assert run_cli("run", "--preset", preset, "--rounds", 1, "--out", out, "--quiet") == 0
        assert not (out / "chain.jsonl").exists()
        assert json.loads((out / "manifest.json").read_text())["preset"] == "VFL_0_20"

    def test_invariant_violation_exits_two(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise InvariantViolation("synthetic failure")

        monkeypatch.setattr(cli, "run_simulation", boom)
        cfg = write_tiny_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "synthetic failure" in capsys.readouterr().err

    def test_malicious_override(self, tmp_path):
        cfg = write_tiny_config(tmp_path)
        out = tmp_path / "o"
        assert run_cli(
            "run", "--config", cfg, "--malicious", 2, "--out", out, "--quiet"
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["malicious"] == [18, 19]

    def test_malicious_override_range_checked_on_config_file(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--malicious", 21, "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: malicious: count")

    def test_too_few_test_rows_for_shards_named(self, tmp_path, capsys):
        # 2 classes x 5 test rows cannot give each of 20 devices a test shard.
        dataset = {**TINY_CONFIG["dataset"], "classes": 2, "test_per_class": 5}
        cfg = write_tiny_config(tmp_path, validator_test="shard", dataset=dataset)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: dataset")

    def test_too_few_train_rows_named(self, tmp_path, capsys):
        dataset = {**TINY_CONFIG["dataset"], "classes": 2, "train_per_class": 5}
        cfg = write_tiny_config(tmp_path, dataset=dataset)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 1
        assert capsys.readouterr().err.startswith("error: dataset")

    def test_pow_difficulty_beyond_digest_exits_one(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path, consensus="pow", pow_difficulty=65)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: pow_difficulty: ") and len(err.splitlines()) == 1

    def test_batch_larger_than_shard_exits_one(self, tmp_path, capsys):
        # 4 x 60 training rows give each of 20 devices a shard of 12.
        cfg = write_tiny_config(tmp_path, train={**TINY_CONFIG["train"], "batch_size": 13})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train.batch_size: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "suffix, data",
        [
            ("", b"\x00\x00"), ("", b"\x00\x00\x08\x03"), (".gz", b"not gzip"),
            # a gzip header, then a deflate block of the invalid type 3
            pytest.param(".gz", b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff",
                         id="corrupt-deflate"),
            # 200 one-pixel images and labels, one label -1 (signed bytes) or
            # 0.5 (floats): only unsigned bytes read, so the dtype code fails
            pytest.param("", IDX_200 % 0x09 + bytes([255] + [0, 1] * 99 + [1]),
                         id="signed-byte-dtype"),
            pytest.param("", IDX_200 % 0x0D + np.array([0.5] + [0, 1] * 99 + [1], ">f4").tobytes(),
                         id="float-dtype"),
        ],
    )
    def test_malformed_idx_file_exits_one(self, tmp_path, capsys, suffix, data):
        idx_dir = tmp_path / "idx"
        idx_dir.mkdir()
        for stem in (
            "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
        ):
            (idx_dir / (stem + suffix)).write_bytes(data)
        cfg = write_tiny_config(tmp_path, dataset={"idx_dir": str(idx_dir)})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataset.idx_dir: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("swapped, rank, want", [
        ("train-images-idx3-ubyte", 1, 3), ("t10k-labels-idx1-ubyte", 3, 1),
    ], ids=["labels-as-images", "images-as-labels"])
    def test_idx_file_of_wrong_rank_exits_one(self, tmp_path, capsys, swapped, rank, want):
        # 240 training and 120 test rows of 2 x 2 pixels, one file of each
        # split replaced by the other kind of file of that split.
        idx_dir = tmp_path / "idx"
        idx_dir.mkdir()
        for split, rows in (("train", 240), ("t10k", 120)):
            images = np.arange(rows * 4, dtype=">u1").reshape(rows, 2, 2)
            labels = np.arange(rows, dtype=">u1") % 4
            for kind, arr in (("images-idx3", images), ("labels-idx1", labels)):
                stem = f"{split}-{kind}-ubyte"
                if stem == swapped:
                    arr = images if arr is labels else labels
                write_idx(idx_dir / stem, arr, 0x08)
        cfg = write_tiny_config(tmp_path, dataset={"idx_dir": str(idx_dir)})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 1
        assert capsys.readouterr().err == (
            f"error: dataset.idx_dir: {idx_dir / swapped}: rank {rank}, not {want}\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset", ["VFL_3_20", "VBFL_POS_0_20_VH1"])
    def test_manifest_config_reproduces_run(self, tmp_path, preset):
        # The manifest's config alone names the run, plain FL included.
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli(
            "run", "--preset", preset, "--rounds", 2, "--seed", 3, "--out", first, "--quiet"
        ) == 0
        cfg = tmp_path / "manifest_config.json"
        cfg.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
        assert run_cli("run", "--config", cfg, "--out", again, "--quiet") == 0
        files = ["rounds.csv", "stake.csv", "vad.csv", "events.csv"]
        if preset.startswith("VFL_"):
            assert not (first / "chain.jsonl").exists()
            assert not (again / "chain.jsonl").exists()
        else:
            files.append("chain.jsonl")
        for name in files:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name


class TestCompare:
    def make_runs(self, tmp_path, seeds=(1, 2)):
        cfg = write_tiny_config(tmp_path)
        dirs = []
        for seed in seeds:
            out = tmp_path / f"run{seed}"
            assert run_cli("run", "--config", cfg, "--seed", seed, "--out", out, "--quiet") == 0
            dirs.append(out)
        return dirs

    def test_summary_table(self, tmp_path, capsys):
        dirs = self.make_runs(tmp_path)
        assert run_cli("compare", *dirs) == 0
        out = capsys.readouterr().out
        assert "final acc" in out
        assert "exp" in out
        assert "ratios" not in out  # single group, no ratio table

    def test_single_run_rejected(self, tmp_path, capsys):
        dirs = self.make_runs(tmp_path, seeds=(1,))
        assert run_cli("compare", dirs[0]) == 1
        assert "two" in capsys.readouterr().err

    def test_not_a_run_dir(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run_cli("compare", tmp_path / "empty", tmp_path / "empty") == 1

    @pytest.mark.parametrize("damage", [
        ("manifest.json", lambda text: text[:-3], "JSONDecodeError"),
        ("manifest.json", lambda text: json.dumps({"preset": "exp"}), "'config'"),
        ("manifest.json", lambda text: json.dumps({"preset": "exp", "config": [1]}),
         "'config' is not a mapping"),
        ("rounds.csv", lambda text: text.replace(text.splitlines()[-1].split(",")[-1], "high"),
         "'high'"),
        ("rounds.csv", lambda text: text.replace(",0,0,", ",no,0,"), "'no'"),
        ("rounds.csv", lambda text: text.replace("global_accuracy", "accuracy"),
         " has an incompatible schema"),
        ("rounds.csv", lambda text: text.splitlines(keepends=True)[0], " is empty"),
    ], ids=["manifest-not-json", "manifest-without-config", "config-not-a-mapping",
            "accuracy-not-a-number", "winner-malicious-not-a-number", "another-header",
            "no-rows"])
    def test_damaged_run_dir_exits_one(self, tmp_path, capsys, damage):
        name, edit, cause = damage
        dirs = self.make_runs(tmp_path)
        path = dirs[1] / name
        path.write_text(edit(path.read_text()))
        capsys.readouterr()
        assert run_cli("compare", *dirs) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: compare: ")
        assert str(path) in err and cause in err

    def test_cross_group_ratios(self, tmp_path, capsys):
        cfg_a = write_tiny_config(tmp_path)
        out_a = tmp_path / "a"
        assert run_cli("run", "--config", cfg_a, "--out", out_a, "--quiet") == 0
        cfg_b = tmp_path / "other.json"
        cfg_b.write_text(json.dumps({**TINY_CONFIG, "vh": 0.5}))
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", cfg_b, "--out", out_b, "--quiet") == 0
        assert run_cli("compare", out_a, out_b) == 0
        assert "ratios" in capsys.readouterr().out

    def test_summary_of_records(self, capsys):
        # Two labels that share their first 12 characters, one with a zero
        # mean: full headers, population std, and an infinite ratio.
        runs = [
            {"label": "VBFL_POS_3_20_VHCAL", "final_accuracy": acc, "malicious_winner_rounds": m}
            for acc, m in ((0.5, 1), (0.7, 2))
        ] + [{"label": "VBFL_POS_3_20_VHCAL_MV", "final_accuracy": 0.0,
              "malicious_winner_rounds": 0}]
        cli.print_summary(runs)
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["VBFL_POS_3_20_VHCAL", "2", "0.6000", "±", "0.1000", "1.5"]
        assert lines[-3].split() == ["VBFL_POS_3_20_VHCAL", "VBFL_POS_3_20_VHCAL_MV"]
        assert lines[-2].split() == ["VBFL_POS_3_20_VHCAL", "1.00", "inf"]
        assert lines[-1].split() == ["VBFL_POS_3_20_VHCAL_MV", "0.00", "inf"]


def test_readme_flag_list_matches_parser():
    # README's "Flags:" paragraph names every option of `vbfl run` and
    # `vbfl compare`, and no other.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for name in ("run", "compare")
        for action in sub.choices[name]._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }
    text = README.read_text()
    flags = text[text.index("\nFlags: "):].split("\n\n")[0]
    assert set(re.findall(r"--[a-z][a-z-]*", flags)) == options
