#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, judged by the rule for claiming a gain.

Runs ``perfbench/run.py`` in PARENT_DIR and in CHANGE_DIR once per pair,
alternating which side runs first, and parses each run's last JSON line.
For every end-to-end metric in CHANGE_DIR's BENCHMARK.json it prints each
side's median and quartiles and how many pairs the change won (ties count
for neither). The gain rule holds for a metric when at least ten pairs
ran, the change wins at least nine tenths of them and the medians differ,
in the metric's better direction, by more than the parent's interquartile
range; with fewer pairs it fails, whatever they read. It also
prints the ratio of the change's median to the parent's, with the parent's
median as its base, and whether the change's median is within the metric's
``bound``: worse than the parent's median by at most that fraction of it.
Within the bound reads ``unresolved`` when the parent's own interquartile
range is wider than that fraction of its median, unless every change run
beats every parent run: the spread then hides a change the bound forbids.

It also prints each side's environment from perfbench's ``env:`` line (BLAS
threads, ``OPENBLAS_NUM_THREADS``, CPUs, numpy and Python versions) and warns
when the two sides differ in it; git sha and load average are left out.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
        [--pairs 10] [--seconds 12] [--seed 1]

Stops at the first perfbench run that exits non-zero, printing its side,
pair, exit code and the tail of its stderr, and exits 1; it does the same,
naming side and pair, for a run whose last stdout line is not a JSON object.
It also exits 1 when a run reports incorrect outputs or failed simulations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # the gain rule judges no fewer pairs than this
# The fields of perfbench's environment that two sides of a pair should share.
ENV_KEYS = ("blas_threads", "OPENBLAS_NUM_THREADS", "nproc", "numpy", "python")


def parse_run(stdout: str) -> dict:
    """A perfbench run's record, its last stdout line, with the fields of
    its ``env:`` line under "env" (empty without one)."""
    lines = stdout.strip().splitlines() or [""]
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        record = None
    if not isinstance(record, dict):
        raise ValueError(f"its last stdout line is not a JSON object: {lines[-1][:200]!r}")
    env = [json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")]
    return {**record, "env": env[-1] if env else {}}


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One untraced perfbench run in checkout; its parsed record."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return parse_run(done.stdout)


def environment_lines(results: dict[str, list[dict]]) -> list[str]:
    """A line per side naming its runs' ENV_KEYS values (several, joined by
    "|", when its runs differ), then a warning line if the sides differ."""
    seen = {
        side: {key: sorted({str(r.get("env", {}).get(key)) for r in runs}) for key in ENV_KEYS}
        for side, runs in results.items()
    }
    lines = [f"  {side} env: " + ", ".join(f"{k}={'|'.join(v)}" for k, v in values.items())
             for side, values in seen.items()]
    differ = [key for key in ENV_KEYS if seen["parent"][key] != seen["change"][key]]
    if differ:
        lines.append("  WARNING: parent and change ran with different " + ", ".join(differ))
    return lines


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(
    pairs: list[tuple[float, float]], better: str, bound: float | None = None
) -> dict:
    """Judge (parent, change) value pairs of one metric whose ``better`` is
    "lower" or "higher", and whose median may get worse by at most the
    fraction ``bound`` of the parent's (``within_bound`` is None without
    one; ``unresolved`` says the parent's spread is too wide to tell).
    ``ratio`` is the change's median over the parent's (None when the
    parent's is 0)."""
    sign = 1 if better == "lower" else -1
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    gain = (
        len(pairs) >= MIN_PAIRS
        and 10 * wins >= 9 * len(pairs)
        and sign * (parent[1] - change[1]) > parent[2] - parent[0]
    )
    within = None if bound is None else sign * (change[1] - parent[1]) <= bound * abs(parent[1])
    beats_all = min(sign * p for p, _ in pairs) > max(sign * c for _, c in pairs)
    unresolved = bool(within) and parent[2] - parent[0] > bound * abs(parent[1]) and not beats_all
    return {"parent": parent, "change": change, "wins": wins, "pairs": len(pairs), "gain": gain,
            "within_bound": within, "unresolved": unresolved,
            "ratio": change[1] / parent[1] if parent[1] else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                results[side].append(run_once(sides[side], args.workload, args.seconds, args.seed))
            except subprocess.CalledProcessError as exc:
                tail = "\n".join(exc.stderr.splitlines()[-20:])
                print(f"{side} run of pair {i + 1} exited {exc.returncode}; its stderr ends:\n"
                      f"{tail}", file=sys.stderr)
                return 1
            except ValueError as exc:
                print(f"{side} run of pair {i + 1} exited 0, but {exc}", file=sys.stderr)
                return 1
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    bad = [f"{side} run {i + 1}" for side, runs in results.items()
           for i, r in enumerate(runs) if not r["correct"] or r["failed"]]
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}; values are q1 / median / q3")
    print("\n".join(environment_lines(results)))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"])]
        s = summarize(pairs, metric["better"], metric.get("bound"))
        fmt = " / ".join(["{:.4g}"] * 3)
        verdict = {None: "no bound", True: "within bound", False: "OUTSIDE BOUND"}
        ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.3f}"
        print(f"  {name:14s} parent {fmt.format(*s['parent']):26s} "
              f"change {fmt.format(*s['change']):26s} {metric['unit']:3s} "
              f"change/parent {ratio} of {s['parent'][1]:.4g}  "
              f"wins {s['wins']}/{s['pairs']}  gain rule {'holds' if s['gain'] else 'fails'}  "
              f"{'unresolved' if s['unresolved'] else verdict[s['within_bound']]}")
    if bad:
        print("incorrect or failed runs: " + ", ".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
