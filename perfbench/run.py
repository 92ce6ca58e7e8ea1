"""Benchmark of the vbfl simulator: host time per round, set-up time and memory.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pos20 [--seed 1] [--seconds 25] [--trace 0|1]

With ``--trace 0`` it prints the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced simulations and prints
the per-layer metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. A full record, with the
environment and every simulation's timings and digests, goes to
``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# The seed the output digests in digests.json are pinned for.
DEFAULT_SEED = 1
# Extra driver constructions before the simulations; with one per
# simulation they make the sample that setup_s is the median of.
SETUP_REPEATS = 8


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="pos20, pos100, vfl20 or priv20")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    try:
        libs = {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    from vbfl.orchestrator import code_fingerprint

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "git_sha": git_sha(),
        "src_sha256": code_fingerprint(),
    }


class Session:
    """Attempts, failures and the output checks shared by every simulation."""

    def __init__(self, workload, seed: int):
        import measure

        self.measure = measure
        self.probe = measure.Probe(workload.probe_weights)
        self.workload = workload
        self.seed = seed
        self.sim_dir = OUT / workload.name / "sim"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        pinned = seed == DEFAULT_SEED and bool(workload.digests)
        self.reference = dict(workload.digests) if pinned else None
        self.reference_kind = "pinned" if pinned else "first simulation of this run"
        self.audited = False

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)
        print(f"perfbench: {why}", file=sys.stderr)

    def attempt(self, tracer=None, memory=False):
        """One simulation; None if it raised. Output mismatches count as failures."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            run = self.measure.run_simulation(
                self.workload, self.seed, self.sim_dir, self.probe, tracer, memory
            )
        except Exception:
            traceback.print_exc()
            self.fail(f"simulation {self.attempted} raised")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.reference is None:
            self.reference = run.digests
        bad = sorted(k for k in set(run.digests) | set(self.reference)
                     if run.digests.get(k) != self.reference.get(k))
        if bad:
            self.fail(f"simulation {self.attempted}: {', '.join(bad)} differ from the "
                      f"{self.reference_kind}")
        elif not self.audited:
            self.audited = True
            for problem in self.measure.audit(self.workload, self.seed, self.sim_dir):
                self.fail(f"audit: {problem}")
        return run


def repeat(step, seconds: float) -> list:
    """Results of step() until None, or until another call would overrun seconds.

    step runs at least once; the time of its last call predicts the next.
    """
    results = []
    start = perf_counter()
    while True:
        t = perf_counter()
        result = step()
        if result is None:
            return results
        results.append(result)
        now = perf_counter()
        if now - start + (now - t) > seconds:
            return results


def measure_end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    m = session.measure
    setups = [m.timed_setup(session.workload, session.seed, session.probe)
              for _ in range(SETUP_REPEATS)]
    runs = repeat(session.attempt, seconds)
    if not runs:
        return {}, {}
    rounds = [ms for r in runs for ms in r.round_ms]
    tail, tail_pct = m.tail(rounds)
    setups += [r.setup_s for r in runs]
    metrics = {
        "setup_s": median(setups),
        "run_s": median(r.run_s for r in runs),
        "round_ms.p50": median(rounds),
        "round_ms.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} constructions",
        "run_s": f"median of {len(runs)} simulations of {session.workload.rounds} rounds",
        "round_ms.p50": f"{len(rounds)} rounds",
        "round_ms.tail": (f"p{tail_pct:.1f} of {len(rounds)} rounds, 10 beyond it"
                          if tail_pct < 100 else
                          f"max of {len(rounds)} rounds; under 20 rounds no percentile "
                          "above the median has 10 beyond it"),
        "peak_rss_mb": "peak resident set of this process",
        "_runs": [vars(r) for r in runs],
    }
    return metrics, notes


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer, write_span_file

    def pair():
        run = session.attempt()
        if run is None:
            return None
        tracer = Tracer(f"{session.workload.name}-seed{session.seed}-{session.attempted}")
        trun = session.attempt(tracer, memory=True)
        return None if trun is None else (run, tracer, trun)

    pairs = repeat(pair, seconds)
    if not pairs:
        return {}, {}
    per_run, scaled = [], []
    for _, tracer, trun in pairs:
        scales = tracer.segment_scales(trun.setup_scale, trun.round_scales, trun.final_scale)
        layers = tracer.layer_metrics(scales)
        layers.update(trun.memory_mb)
        gap = abs(layers["trace.round_self_sum_s"] - layers["orchestrator.round.s"])
        if gap > 1e-9 * max(1.0, layers["orchestrator.round.s"]):
            session.fail(f"{tracer.run_id}: self times sum to "
                         f"{layers['trace.round_self_sum_s']} s, rounds took "
                         f"{layers['orchestrator.round.s']} s")
        per_run.append(layers)
        scaled.append((tracer, scales))
    OUT.mkdir(parents=True, exist_ok=True)
    span_path = OUT / f"spans-{session.workload.name}-seed{session.seed}.jsonl.gz"
    write_span_file(span_path, scaled)
    keys = set().union(*per_run)
    metrics = {k: median(layers.get(k, 0.0) for layers in per_run) for k in keys}
    untraced = median(run.run_s for run, _, _ in pairs)
    traced = median(trun.run_s for _, _, trun in pairs)
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    notes = {
        "trace.overhead_share": f"median of {len(pairs)} traced vs {len(pairs)} untraced "
                                "simulations, interleaved",
        "spans": str(span_path.relative_to(ROOT)),
        "_runs": [vars(sim) for run, _, trun in pairs for sim in (run, trun)],
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vbfl" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import vbfl

    if Path(vbfl.__file__).resolve().parent != (SRC / "vbfl").resolve():
        print(f"perfbench: imported vbfl from {vbfl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    logging.getLogger("vbfl").setLevel(logging.ERROR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    session = Session(WORKLOADS[args.workload], args.seed)
    measured, notes = (measure_layers if args.trace else measure_end_to_end)(session, args.seconds)
    if not measured:
        print("perfbench: no simulation completed", file=sys.stderr)
        return 1
    metrics = {
        w["name"]: {"value": float(measured.get(w["name"], 0.0)), "unit": w["unit"]}
        for w in wanted
    }
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "env": env, "result": result, "all_metrics": measured,
              "notes": notes, "problems": session.problems,
              "digests": notes["_runs"][0]["digests"]}
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"record in {record_path.relative_to(ROOT)}")
    for name, entry in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']:6s} {note}")
    print(f"  {'ops_failed':36s} {session.failed / session.attempted:14.6g} share  "
          f"{session.failed} of {session.attempted} simulations")
    print("env: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
