"""One timed simulation through the public API, plus the checks on its outputs.

Host speed on a shared machine drifts by up to 2x over seconds to minutes,
and process CPU time drifts with it, so neither wall nor CPU time repeats
from run to run. Every timed segment (one driver construction, one round,
the final link check plus output writing) is therefore bracketed by a short
:class:`Probe`, and its host time is divided by the mean of the two probe
readings around it: the result reads as host time at the speed where each
probe kernel takes its reference time. Probes run between segments, never
inside a timed interval.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import shutil
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import vbfl.orchestrator as orchestrator
from vbfl.learning import ModelParams
from vbfl.protocol import chain_from_jsonl
from vbfl.rewards import block_reward_total

from tracer import SETUP, Tracer

OUTPUT_FILES = ("rounds.csv", "stake.csv", "vad.csv", "events.csv", "chain.jsonl")


class Probe:
    """Fixed kernels shaped like the simulator's three kinds of work.

    Slowdown differs by kind of work: small numpy calls driven from Python
    slow down most, hashing least. A workload's probe therefore mixes the
    kernels in the shares of time its trace showed for each kind, so that
    it slows down as the workload does. The kernels use only numpy and
    hashlib, never the simulator, so a faster simulator leaves them as
    they are.
    """

    # Seconds per kernel at the uncontended speed of a 2-core x86-64 box
    # (AVX-512, numpy 2.4 with single-threaded OpenBLAS). Only a scale.
    REF_S = {"train": 0.0005, "evaluate": 0.0005, "encode": 0.00007}

    def __init__(self, weights: dict[str, float]):
        rng = np.random.default_rng(20210108)
        self.weights = weights
        self._x = rng.standard_normal((10, 128))
        self._w1 = rng.standard_normal((128, 16))
        self._w2 = rng.standard_normal((16, 10))
        # Eight test-set-sized arrays, visited in turn: the simulator's
        # devices each hold their own copy, so evaluation is not cache-hot.
        # Allocated only when the workload's probe evaluates, since they
        # count towards the process's peak memory.
        copies = 8 if "evaluate" in weights else 0
        self._tests = [rng.standard_normal((2000, 128)) for _ in range(copies)]
        self._turn = 0
        self._vec = rng.standard_normal(2218)
        self._kernels = {"train": self._train, "evaluate": self._evaluate, "encode": self._encode}

    def _train(self) -> None:
        """40 forward/backward passes of one 10-example MLP minibatch."""
        for _ in range(40):
            h = np.maximum(self._x @ self._w1, 0.0)
            z = h @ self._w2
            e = np.exp(z - z.max(axis=1, keepdims=True))
            h.T @ (e / e.sum(axis=1, keepdims=True))

    def _evaluate(self) -> None:
        """One MLP evaluation over a 2000-example test set."""
        self._turn = (self._turn + 1) % len(self._tests)
        h = np.maximum(self._tests[self._turn] @ self._w1, 0.0)
        np.argmax(h @ self._w2, axis=1)

    def _encode(self) -> None:
        """Four canonical encodings of a parameter vector, each hashed."""
        for i in range(4):
            body = b"\x02" + struct.pack(">Q", i) + self._vec.astype("<f8").tobytes()
            hashlib.sha256(body + struct.pack(">QQ", i, i)).digest()

    def __call__(self) -> float:
        """Weighted slowness: 1.0 when every kernel takes its reference time."""
        total = 0.0
        for kind, weight in self.weights.items():
            kernel = self._kernels[kind]
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                kernel()
                best = min(best, perf_counter() - t0)
            total += weight * best / self.REF_S[kind]
        return total


def _scale(before: float, after: float) -> float:
    return 2.0 / (before + after)


@dataclass
class SimRun:
    """Scaled timings of one simulation and its output digests."""

    setup_s: float
    round_ms: list[float]
    run_s: float
    setup_scale: float
    round_scales: list[float]
    final_scale: float
    digests: dict[str, str]
    memory_mb: dict[str, float] = field(default_factory=dict)


def _timed_construct(construct, cfg, probe: Probe):
    """(driver, scaled seconds, scale, probe reading after) of one construction."""
    p0 = probe()
    t0 = perf_counter()
    driver = construct(cfg)
    t1 = perf_counter()
    p1 = probe()
    scale = _scale(p0, p1)
    return driver, (t1 - t0) * scale, scale, p1


def timed_setup(workload, seed: int, probe: Probe) -> float:
    """Scaled seconds of one driver construction, discarded afterwards."""
    return _timed_construct(workload.driver, workload.config(seed), probe)[1]


def run_simulation(
    workload,
    seed: int,
    out_dir: Path,
    probe: Probe,
    tracer: Tracer | None = None,
    memory: bool = False,
) -> SimRun:
    """Construct, run all rounds and write outputs, timing each segment."""
    cfg = workload.config(seed)
    shutil.rmtree(out_dir, ignore_errors=True)
    construct = workload.driver if tracer is None else tracer.wrapped(SETUP, workload.driver)
    driver, setup_s, setup_scale, p1 = _timed_construct(construct, cfg, probe)
    if tracer is not None:
        tracer.note_test_sets(driver)
    round_ms: list[float] = []
    round_scales: list[float] = []
    mark = [0.0, p1]

    def on_round(_metrics) -> None:
        t = perf_counter()
        p = probe()
        s = _scale(mark[1], p)
        round_scales.append(s)
        round_ms.append((t - mark[0]) * s * 1000.0)
        mark[1] = p
        mark[0] = perf_counter()

    mark[0] = perf_counter()
    metrics = driver.run(on_round)
    orchestrator.write_outputs(orchestrator.RunResult(cfg, metrics, driver, None), out_dir)
    t2 = perf_counter()
    final_scale = _scale(mark[1], probe())
    run = SimRun(
        setup_s=setup_s,
        round_ms=round_ms,
        run_s=sum(round_ms) / 1000.0 + (t2 - mark[0]) * final_scale,
        setup_scale=setup_scale,
        round_scales=round_scales,
        final_scale=final_scale,
        digests=output_digests(out_dir),
    )
    if memory:
        run.memory_mb = {
            "orchestrator.test_set_copies_mb": held_test_set_bytes(driver) / 2**20,
            "orchestrator.metrics_params_mb": params_bytes(metrics) / 2**20,
        }
    return run


# --- output checks ---------------------------------------------------------------


def output_digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
        if (out_dir / name).exists()
    }


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def audit(workload, seed: int, out_dir: Path) -> list[str]:
    """Problems found by re-deriving what the output files must agree on."""
    cfg = workload.config(seed)
    problems = []
    rounds = _rows(out_dir / "rounds.csv")
    if [int(r[0]) for r in rounds] != list(range(1, cfg.rounds + 1)):
        problems.append("rounds.csv does not list every round once")
    stake = _rows(out_dir / "stake.csv")
    vad = _rows(out_dir / "vad.csv")
    if workload.is_vanilla:
        if stake or vad or _rows(out_dir / "events.csv"):
            problems.append("plain FL wrote stake, vad or event rows")
        if (out_dir / "chain.jsonl").exists():
            problems.append("plain FL wrote a chain")
        return problems
    chain = chain_from_jsonl((out_dir / "chain.jsonl").read_text())
    if not chain.verify_links():
        problems.append("chain.jsonl fails hash-link verification")
    won = sum(1 for r in rounds if r[2])
    if len(chain) != 1 + won:
        problems.append(f"chain has {len(chain)} blocks for {won} decided rounds")
    staked = Counter()
    for r in stake:
        staked[int(r[0])] += int(r[2])
    voted = Counter(int(r[0]) for r in vad)
    granted = 0
    by_round = {b.round: b for b in chain.blocks[1:]}
    for j in range(1, cfg.rounds + 1):
        block = by_round.get(j)
        if block is not None:
            granted += block_reward_total(block, cfg.unit_reward)
        if staked[j] != granted:
            problems.append(f"round {j}: stake total {staked[j]} != rewards granted {granted}")
        tallied = sum(t.positives + t.negatives for t in block.tallies) if block else 0
        if voted[j] != tallied:
            problems.append(f"round {j}: vad.csv has {voted[j]} votes, the block tallies {tallied}")
    return problems


# --- memory held by the simulation ---------------------------------------------------


def _buffer(a: np.ndarray) -> np.ndarray:
    return a if a.base is None else a.base


def held_test_set_bytes(driver) -> int:
    """Bytes of distinct test-set buffers held by the devices and the driver."""
    shards = [st.test for st in getattr(driver, "state", {}).values()] + [driver.full_test]
    buffers = {}
    for shard in shards:
        for a in shard.arrays():
            buffers[id(_buffer(a))] = _buffer(a).nbytes
    return sum(buffers.values())


def params_bytes(root) -> int:
    """Bytes of distinct parameter vectors reachable from the round metrics."""
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, enum.Enum)) or obj is None:
            continue
        seen.add(id(obj))
        if isinstance(obj, ModelParams):
            buffers[id(_buffer(obj.values))] = _buffer(obj.values).nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return sum(buffers.values())


# --- summaries -------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with 10 samples beyond it.

    Below 20 samples that percentile would fall under the median, so the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n
