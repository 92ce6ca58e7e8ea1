#!/usr/bin/env python3
"""Reproduce the headline robustness comparison at desk scale.

Runs the calibration preset once to pick a validator threshold, then every
named setup over three seeds, and prints a summary table: final accuracy
mean/std per setup, malicious winning-miner rounds, and the accuracy ratio
of each setup against the poisoned plain-FL baseline.

Usage:
    python scripts/run_experiments.py [--rounds N] [--seeds 1 2 5] [--out DIR]

With default settings the whole sweep takes a few minutes on a laptop.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from vbfl.cli import write_calibration
from vbfl.orchestrator import run_simulation
from vbfl.presets import apply_overrides, get_preset

SETUPS = (
    "VFL_0_20",
    "VFL_3_20",
    "VBFL_POS_0_20_VH1",
    "VBFL_POS_3_20_VHCAL",
    "VBFL_POS_3_20_VHCAL_MV",
    "VBFL_POW_3_20_VHCAL_D1",
    "VBFL_POW_3_20_VHCAL_D2",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 5])
    parser.add_argument("--calibration-seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None, help="also write metric files here")
    args = parser.parse_args(argv)

    t0 = time.time()
    cal_preset = get_preset("CALIBRATE_VH")
    cal_cfg = apply_overrides(cal_preset.config, seed=args.calibration_seed)
    cal_dir = args.out / "calibrate_vh" if args.out else None
    cal = run_simulation(cal_cfg, out_dir=cal_dir, preset=cal_preset.name)
    suggestion = write_calibration(cal.driver.vote_tables, cal_dir)
    vh = suggestion["suggested_vh"]
    print(f"calibrated threshold: {vh:.4f} "
          f"(legit p90 {suggestion['legit_vad_p90']:.4f}, "
          f"malicious p10 {suggestion['malicious_vad_p10']:.4f})")

    results: dict[str, list] = {}
    for name in SETUPS:
        preset = get_preset(name)
        for seed in args.seeds:
            cfg = apply_overrides(
                preset.config,
                rounds=args.rounds,
                seed=seed,
                vh=vh if preset.requires_vh else None,
            )
            out_dir = args.out / f"{name.lower()}-seed{seed}" if args.out else None
            result = run_simulation(cfg, out_dir=out_dir, preset=name)
            mal_winner_rounds = sum(m.winner_malicious for m in result.metrics)
            results.setdefault(name, []).append(
                (result.metrics[-1].global_accuracy, mal_winner_rounds)
            )
            print(f"  {name} seed {seed}: final acc "
                  f"{result.metrics[-1].global_accuracy:.4f}, "
                  f"malicious winners {mal_winner_rounds}")

    def mean(xs):
        return sum(xs) / len(xs)

    def std(xs):
        mu = mean(xs)
        return (sum((x - mu) ** 2 for x in xs) / len(xs)) ** 0.5

    baseline = mean([acc for acc, _ in results["VFL_3_20"]])
    print(f"\n{'setup':<26} {'final acc':>16} {'mal winners':>12} {'vs VFL_3_20':>12}")
    for name in SETUPS:
        accs = [acc for acc, _ in results[name]]
        winners = [w for _, w in results[name]]
        print(
            f"{name:<26} {mean(accs):>8.4f} ± {std(accs):.4f} "
            f"{mean(winners):>10.1f} {mean(accs) / baseline:>11.2f}x"
        )
    print(f"\ntotal {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
