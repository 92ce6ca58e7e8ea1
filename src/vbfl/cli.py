"""Command-line front end: run experiments, compare finished runs.

Exit codes: 0 on success, 1 on configuration or usage errors, 2 when a
runtime invariant check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import defaultdict
from pathlib import Path
from statistics import fmean, pstdev
from typing import Mapping, Sequence

from .config import SimConfig, fits
from .errors import ConfigError, InvariantViolation
from .orchestrator import ROUNDS_CSV_FIELDS, RoundMetrics, run_simulation
from .presets import PRESETS, apply_overrides, get_preset
from .validation import VoteTable, suggest_threshold

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2

OUT_DIR_ENV = "VBFL_OUT"
CALIBRATION_FILE = "vh_calibration.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vbfl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="named experiment setup")
    run_p.add_argument("--config", type=Path, help="JSON config file (one experiment)")
    run_p.add_argument("--rounds", type=int, help="communication rounds")
    run_p.add_argument("--seed", type=int, help="master seed")
    run_p.add_argument("--vh", type=float, help="validator threshold")
    run_p.add_argument("--vh-file", type=Path, help="calibration file with suggested_vh")
    run_p.add_argument("--malicious", type=int, help="number of malicious devices")
    run_p.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"output directory (default: ${OUT_DIR_ENV} or ./runs/<name>)",
    )
    run_p.add_argument("--quiet", action="store_true", help="suppress per-round lines")

    cmp_p = sub.add_parser("compare", help="summarize two or more finished runs")
    cmp_p.add_argument("dirs", nargs="+", type=Path, help="run output directories")
    return parser


def _load_config_file(path: Path) -> SimConfig:
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"config: cannot read {path} as JSON: {exc}") from None
    return SimConfig.from_dict(data)


def _read_vh_file(path: Path) -> float:
    """suggested_vh from a calibration file: a finite JSON number."""
    if not path.exists():
        raise ConfigError(f"vh-file: file not found: {path}")
    try:
        # An integer too large for a float parses as inf, not OverflowError.
        value = json.loads(path.read_text(), parse_int=float)["suggested_vh"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"vh-file: cannot read suggested_vh from {path}: {exc}") from None
    if not (fits(value, float) and math.isfinite(value)):
        raise ConfigError(
            f"vh-file: suggested_vh in {path} must be a finite number, got {value!r}"
        )
    return value


def _resolve_vh(args) -> float | None:
    """The threshold --vh gives, else the one in --vh-file, else None."""
    if args.vh is not None:
        return args.vh
    return None if args.vh_file is None else _read_vh_file(args.vh_file)


def _default_out_dir(name: str, seed: int) -> Path:
    return Path(os.environ.get(OUT_DIR_ENV) or "runs") / f"{name.lower()}-seed{seed}"


def _round_line(m: RoundMetrics) -> str:
    winner = m.legitimate_block.miner.hex()[:8] if m.legitimate_block else "-"
    return (
        f"round {m.round:3d}  acc={m.global_accuracy:.4f}  winner={winner:<8}  "
        f"malicious={int(m.winner_malicious)}  forked={int(m.forked)}"
        + ("  [skipped: " + m.skip_reason + "]" if m.skip_reason else "")
    )


def write_calibration(tables: list[VoteTable], out_dir) -> dict:
    """suggest_threshold over a calibration run's vote tables, written as
    CALIBRATION_FILE into out_dir unless it is None. Raises ConfigError,
    named ``calibration``, when the run cannot suggest a threshold."""
    try:
        suggestion = suggest_threshold(tables)
    except ValueError as exc:
        raise ConfigError(f"calibration: {exc}; no {CALIBRATION_FILE} was written") from None
    if out_dir is not None:
        path = Path(out_dir) / CALIBRATION_FILE
        path.write_text(json.dumps(suggestion, sort_keys=True, indent=2) + "\n")
    return suggestion


def _cmd_run(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("preset: give exactly one of --preset or --config")
    preset = None if args.preset is None else get_preset(args.preset)
    vh = _resolve_vh(args)
    if preset is not None:
        if preset.requires_vh and vh is None:
            raise ConfigError(
                f"vh: preset {preset.name} needs a calibrated threshold; run "
                f"CALIBRATE_VH first and pass --vh or --vh-file"
            )
        base, name = preset.config, preset.name
    else:
        base, name = _load_config_file(args.config), args.config.stem
    config = apply_overrides(
        base, rounds=args.rounds, seed=args.seed, vh=vh, malicious=args.malicious
    )
    out_dir = args.out or _default_out_dir(name, config.master_seed)
    progress = None if args.quiet else lambda m: print(_round_line(m))
    result = run_simulation(config, out_dir=out_dir, preset=name, progress=progress)
    if args.preset == "CALIBRATE_VH":
        suggestion = write_calibration(result.driver.vote_tables, out_dir)
        print(f"suggested vh: {suggestion['suggested_vh']:.4f} "
              f"(written to {Path(out_dir) / CALIBRATION_FILE})")
    print(f"done: {len(result.metrics)} rounds, outputs in {out_dir}")
    return EXIT_OK


def _read_run(path: Path) -> dict:
    manifest_path = path / "manifest.json"
    rounds_path = path / "rounds.csv"
    if not manifest_path.exists() or not rounds_path.exists():
        raise ConfigError(f"compare: {path} is not a finished run directory")
    try:
        manifest = json.loads(manifest_path.read_text())
        config = manifest["config"]
        if not isinstance(config, dict):
            raise TypeError("'config' is not a mapping")
        label = manifest.get("preset") or config["consensus"]
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or no config mapping
        raise ConfigError(f"compare: cannot read {manifest_path}: {exc!r}") from None
    with rounds_path.open() as fh:
        rows = list(csv.DictReader(fh))
    if rows and tuple(rows[0]) != ROUNDS_CSV_FIELDS:
        raise ConfigError(f"compare: {path}/rounds.csv has an incompatible schema")
    if not rows:
        raise ConfigError(f"compare: {path}/rounds.csv is empty")
    try:
        return {
            "label": label,
            "final_accuracy": float(rows[-1]["global_accuracy"]),
            "malicious_winner_rounds": sum(int(r["winner_malicious"]) for r in rows),
        }
    except (TypeError, ValueError) as exc:  # a non-numeric or missing cell
        raise ConfigError(f"compare: {rounds_path}: {exc}") from None


def print_summary(runs: Sequence[Mapping]) -> None:
    """Print the summary of finished runs, each a record as :func:`_read_run`
    returns it: per label, the run count, final accuracy mean ± std and mean
    malicious winning-miner rounds; then, for two labels or more, the matrix
    of mean final-accuracy ratios (row / column). Labels are never cut: the
    first column is as wide as the longest, each matrix column as its own."""
    groups: dict[str, list[Mapping]] = defaultdict(list)
    for run in runs:
        groups[run["label"]].append(run)
    labels = sorted(groups)
    w = max(len(label) for label in [*labels, "group"])
    print(f"{'group':<{w}} {'runs':>4} {'final acc':>19} {'mal-winner rounds':>18}")
    means = {}
    for label in labels:
        accs = [r["final_accuracy"] for r in groups[label]]
        means[label] = fmean(accs)
        mal = fmean(r["malicious_winner_rounds"] for r in groups[label])
        print(
            f"{label:<{w}} {len(accs):>4} "
            f"{means[label]:>10.4f} ± {pstdev(accs):.4f} {mal:>18.1f}"
        )
    if len(labels) > 1:
        print("\nfinal-accuracy ratios (row / column):")
        widths = {b: max(len(b), 6) for b in labels}
        print(" " * w + "".join(f" {b:>{widths[b]}}" for b in labels))
        for a in labels:
            print(f"{a:<{w}}" + "".join(
                f" {means[a] / means[b] if means[b] else float('inf'):>{widths[b]}.2f}"
                for b in labels
            ))


def _cmd_compare(args) -> int:
    if len(args.dirs) < 2:
        raise ConfigError("compare: need at least two run directories")
    print_summary([_read_run(p) for p in args.dirs])
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
