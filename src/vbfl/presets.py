"""Named experiment presets mirroring the five benchmark setups.

All presets share one desk-scale task (synthetic blobs) and the standard
20-device split of 12 workers, 5 validators and 3 miners. A preset is only
a named config: the ``VFL_*`` presets run plain FL because their config
says ``consensus="vfl"``, and a run's manifest config reproduces the run. Malicious devices
are always the highest-numbered ones, so cold-start stake ties (broken by
lowest id) never hand round 1 to a malicious miner by accident.

The ``*_VHCAL`` presets deliberately ship without a validator threshold:
run CALIBRATE_VH first and feed its suggestion back via --vh/--vh-file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .config import BEHAVIOR_VALIDATOR_FLIP, BEHAVIOR_WORKER_NOISE, SimConfig
from .errors import ConfigError

VH_ALL_POSITIVE = 1.0  # vad can never exceed 1, so every vote is Positive


def _malicious_tail(config: SimConfig, k: int) -> tuple[int, ...]:
    if k < 0 or k > config.n_devices:
        raise ConfigError("malicious: count must lie in [0, n_devices]")
    return tuple(range(config.n_devices - k, config.n_devices))


_BASE = SimConfig(rounds=100)


@dataclass(frozen=True)
class Preset:
    name: str
    requires_vh: bool
    config: SimConfig


def _make_presets() -> dict[str, Preset]:
    base = _BASE
    noisy3 = replace(base, malicious=_malicious_tail(base, 3))
    presets = [
        Preset("VFL_0_20", False, replace(base, malicious=(), consensus="vfl")),
        Preset("VFL_3_20", False, replace(noisy3, consensus="vfl")),
        Preset(
            "VBFL_POS_0_20_VH1",
            False,
            replace(base, malicious=(), vh=VH_ALL_POSITIVE, consensus="pos"),
        ),
        Preset("VBFL_POS_3_20_VHCAL", True, replace(noisy3, consensus="pos")),
        Preset(
            "VBFL_POS_3_20_VHCAL_MV",
            True,
            replace(
                noisy3,
                consensus="pos",
                malicious_behaviors=(BEHAVIOR_WORKER_NOISE, BEHAVIOR_VALIDATOR_FLIP),
            ),
        ),
        Preset("VBFL_POW_3_20_VHCAL_D1", True, replace(noisy3, consensus="pow", pow_difficulty=1)),
        Preset("VBFL_POW_3_20_VHCAL_D2", True, replace(noisy3, consensus="pow", pow_difficulty=2)),
        Preset(
            "CALIBRATE_VH",
            False,
            replace(noisy3, consensus="pos", vh=VH_ALL_POSITIVE, rounds=30),
        ),
    ]
    return {p.name: p for p in presets}


PRESETS = _make_presets()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"preset: unknown preset {name!r} (known: {known})") from None


def apply_overrides(
    config: SimConfig,
    rounds: int | None = None,
    seed: int | None = None,
    vh: float | None = None,
    consensus: str | None = None,
    pow_difficulty: int | None = None,
    malicious: int | None = None,
) -> SimConfig:
    """A preset's or a config file's config plus command-line overrides, in
    one ``replace``, so the new config is checked once, as a whole."""
    changes = {
        "rounds": rounds,
        "master_seed": seed,
        "vh": vh,
        "consensus": consensus,
        "pow_difficulty": pow_difficulty,
        "malicious": None if malicious is None else _malicious_tail(config, malicious),
    }
    return replace(config, **{k: v for k, v in changes.items() if v is not None})
