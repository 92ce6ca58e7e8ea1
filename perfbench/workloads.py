"""The benchmark's workloads: one simulator configuration each, built from a preset.

Each workload runs a fixed number of rounds per simulation, so that the
per-simulation time (``run_s``), the memory peak and the output digests
describe the same amount of work on every run. Changing ``rounds`` changes
all three; the digests pinned in digests.json must then be derived again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from vbfl import SimConfig, get_preset
from vbfl.orchestrator import Simulation, VanillaRun

# suggest_threshold() over the CALIBRATE_VH preset at master seed 7, the
# calibration seed of the acceptance suite. Pinned so that a run does not
# pay for a 30-round calibration first.
CALIBRATED_VH = 0.031950000000000006


def _pos20(seed: int) -> SimConfig:
    return replace(get_preset("VBFL_POS_3_20_VHCAL").config, vh=CALIBRATED_VH, master_seed=seed)


def _pos100(seed: int) -> SimConfig:
    cfg = replace(_pos20(seed), n_devices=100, n_workers=60, n_validators=25, n_miners=15)
    return replace(cfg, malicious=tuple(range(85, 100)))


def _vfl20(seed: int) -> SimConfig:
    return replace(get_preset("VFL_3_20").config, master_seed=seed)


def _priv20(seed: int) -> SimConfig:
    return replace(_pos20(seed), validator_test="shard", signature_scheme="hmac")


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    driver: type
    base_config: Callable[[int], SimConfig]
    # Shares of traced time by kind of work (see measure.Probe), from this
    # workload's layer trace at seed 1: training-like small numpy calls,
    # full test-set evaluation, and canonical encoding with hashing.
    probe_weights: dict[str, float]

    def config(self, seed: int) -> SimConfig:
        cfg = replace(self.base_config(seed), rounds=self.rounds)
        cfg.validate()
        return cfg

    @property
    def digests(self) -> dict[str, str]:
        """SHA-256 of each output file at seed 1, from digests.json.

        manifest.json is left out because it embeds the source fingerprint.
        """
        return json.loads((Path(__file__).parent / "digests.json").read_text())[self.name]

    @property
    def is_vanilla(self) -> bool:
        return self.driver is VanillaRun


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pos20", 40, Simulation, _pos20,
                 {"train": 0.57, "evaluate": 0.23, "encode": 0.20}),
        Workload("pos100", 6, Simulation, _pos100,
                 {"train": 0.06, "evaluate": 0.28, "encode": 0.66}),
        Workload("vfl20", 40, VanillaRun, _vfl20, {"train": 1.0}),
        Workload("priv20", 40, Simulation, _priv20, {"train": 0.72, "encode": 0.28}),
    )
}
