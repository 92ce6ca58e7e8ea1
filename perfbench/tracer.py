"""Layer trace taken from outside the simulator.

A :class:`Tracer` replaces public functions by timing wrappers in the module
that calls them: ``vbfl.orchestrator.local_train`` rather than
``vbfl.learning.local_train``, because the orchestrator imported the name
and looks it up in its own namespace. No file of the simulator changes.
Each call records a span ``[name, start, end, parent, run_id]`` in memory;
spans are written out once, after the measurement.

A span's self time is its duration minus that of its direct children, so the
self times of every span under a round add up to the round's duration.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

import vbfl.consensus as consensus
import vbfl.orchestrator as orchestrator
import vbfl.protocol as protocol

SETUP = "orchestrator.setup"
ROUND = "orchestrator.round"
WRITE = "orchestrator.write_outputs"


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Spans and counters of one traced simulation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._vote_pairs: set[tuple[bytes, bytes]] = set()
        self._test_keys: dict[int, tuple[object, bytes]] = {}

    # -- wrappers -------------------------------------------------------------

    def wrapped(self, name: str, fn, after=None):
        """fn with a span around each call; after(result, *args) runs outside it."""
        spans, stack, counts, run_id = self.spans, self._stack, self.counts, self.run_id

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        o, p, c = orchestrator, protocol, consensus
        targets = [
            (o.Simulation, "run_round", ROUND, None),
            (o.VanillaRun, "run_round", ROUND, None),
            (o, "write_outputs", WRITE, None),
            (o, "make_blobs_task", "datasets.make_blobs_task", None),
            (o, "shard_dataset", "orchestrator.shard_dataset", None),
            (o, "make_genesis", "protocol.make_genesis", None),
            (o, "local_train", "learning.local_train", self._count_sgd_steps),
            (o, "evaluate", "learning.evaluate", None),
            (o, "fedavg", "learning.fedavg", None),
            (o, "inject_gaussian_noise", "learning.noise", None),
            (o, "pretrain_one_epoch", "validation.pretrain", None),
            (o, "validate_by_voting", "validation.vote", self._note_vote),
            (o, "write_vad_csv", "validation.write_vad_csv", None),
            (o, "sign_worker_tx", "protocol.sign", None),
            (o, "sign_validator_tx", "protocol.sign", None),
            (o, "verify_worker_tx", "protocol.verify", None),
            (o, "verify_validator_tx", "protocol.verify", None),
            (o, "append_block", "protocol.append", None),
            (o, "chain_to_jsonl", "protocol.chain_to_jsonl", None),
            (o, "apply_block", "rewards.apply_block", None),
            (p, "worker_tx_signing_bytes", "protocol.encode", self._count_bytes),
            (p, "validator_tx_signing_bytes", "protocol.encode", self._count_bytes),
            (p, "block_body_bytes", "protocol.encode", self._count_bytes),
            (p.Blockchain, "verify_links", "protocol.verify_links", None),
            (c, "aggregate_votes", "consensus.aggregate_votes", None),
            (c, "build_candidate", "consensus.build_candidate", None),
            (c, "collect_blocks", "consensus.select", None),
            (c, "pos_select", "consensus.select", None),
        ]
        for owner, attr, name, after in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrapped(name, original, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- counters, updated outside the spans -------------------------------------

    def _count_sgd_steps(self, result, start, shard, spec, rng):
        self.counts["learning.sgd_steps"] += spec.epochs * math.ceil(len(shard) / spec.batch_size)

    def _count_bytes(self, result, *args):
        self.counts["protocol.encode.bytes"] += len(result)

    def note_test_sets(self, driver) -> None:
        """Content keys of every device's test set, taken before the rounds."""
        for st in getattr(driver, "state", {}).values():
            self._test_keys[id(st.test)] = (st.test, _digest(*st.test.arrays()))

    def _note_vote(self, result, update, state, *args):
        self._vote_pairs.add((_digest(update.values), self._test_keys[id(state.test)][1]))

    # -- aggregation ------------------------------------------------------------

    def segment_scales(self, setup: float, rounds: list[float], final: float) -> list[float]:
        """Speed scale of every span, taken from the segment its root span ran in.

        Roots before the first round belong to set-up, round spans take
        their round's scale in order, and roots after the rounds (the final
        link check and the output writing) take the final scale.
        """
        scales = [1.0] * len(self.spans)
        k = 0
        current = setup
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                scales[i] = scales[parent]
                continue
            if name == ROUND:
                current = rounds[k]
                k += 1
            elif k:
                current = final
            scales[i] = current
        return scales

    def layer_metrics(self, scales: list[float]) -> dict[str, float]:
        """Calls, scaled self seconds and counters per span name."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        root_round = [False] * n
        in_rounds = 0.0
        round_total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own = (end - start - child[i]) * scales[i]
            self_s[name] += own
            root_round[i] = name == ROUND if parent < 0 else root_round[parent]
            if root_round[i]:
                in_rounds += own
            if name == ROUND:
                round_total += (end - start) * scales[i]
        out = {f"{name}.calls": float(v) for name, v in calls.items()}
        out.update({f"{name}.s": v for name, v in self_s.items()})
        out.update({k: float(v) for k, v in self.counts.items()})
        votes = calls["validation.vote"]
        out["validation.vote.distinct_share"] = len(self._vote_pairs) / votes if votes else 0.0
        out["protocol.append.rejected"] = float(self.counts["protocol.append.raised"])
        out["orchestrator.round.s"] = round_total
        out["orchestrator.round.self_s"] = self_s[ROUND]
        out["orchestrator.write_outputs.self_s"] = self_s[WRITE]
        out["trace.round_self_sum_s"] = in_rounds
        out["trace.spans"] = float(n)
        return out

    def write_spans(self, fh, scales: list[float]) -> None:
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {"run": run_id, "id": i, "parent": parent, "name": name,
                     "start": start, "end": end, "scale": scales[i]},
                    separators=(",", ":"),
                )
                + "\n"
            )


def write_span_file(path, traced: list[tuple[Tracer, list[float]]]) -> None:
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for tracer, scales in traced:
            tracer.write_spans(fh, scales)
