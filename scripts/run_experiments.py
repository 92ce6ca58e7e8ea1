#!/usr/bin/env python3
"""Reproduce the headline robustness comparison at desk scale.

Runs the calibration preset once to pick a validator threshold, then every
named setup over three seeds, and prints the summary that ``vbfl compare``
prints for the same runs: final accuracy mean/std and malicious
winning-miner rounds per setup, then the matrix of accuracy ratios between
setups, whose VFL_3_20 column is the ratio against the poisoned plain-FL
baseline.

Usage:
    python scripts/run_experiments.py [--rounds N] [--seeds 1 2 5] [--out DIR]

With default settings the whole sweep takes a few minutes on a laptop.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from vbfl.cli import print_summary, write_calibration
from vbfl.orchestrator import run_simulation
from vbfl.presets import PRESETS, apply_overrides, get_preset

# Every preset but the calibration run, in the presets' order.
SETUPS = tuple(n for n in PRESETS if n != "CALIBRATE_VH")


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

    runs = []
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
            run = {
                "label": name,
                "final_accuracy": result.metrics[-1].global_accuracy,
                "malicious_winner_rounds": sum(m.winner_malicious for m in result.metrics),
            }
            runs.append(run)
            print(f"  {name} seed {seed}: final acc {run['final_accuracy']:.4f}, "
                  f"malicious winners {run['malicious_winner_rounds']}")

    print()
    print_summary(runs)
    print(f"\ntotal {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
