import math

import pytest

from vbfl.errors import ConfigError
from vbfl.presets import PRESETS, apply_overrides, get_preset


EXPECTED_NAMES = {
    "VFL_0_20",
    "VFL_3_20",
    "VBFL_POS_0_20_VH1",
    "VBFL_POS_3_20_VHCAL",
    "VBFL_POS_3_20_VHCAL_MV",
    "VBFL_POW_3_20_VHCAL_D1",
    "VBFL_POW_3_20_VHCAL_D2",
    "CALIBRATE_VH",
}


def test_preset_names():
    assert set(PRESETS) == EXPECTED_NAMES


def test_every_preset_validates():
    for preset in PRESETS.values():
        preset.config.validate()


def test_unknown_preset_named():
    with pytest.raises(ConfigError, match="NOPE"):
        get_preset("NOPE")


def test_malicious_presets_use_highest_numbered_devices():
    cfg = get_preset("VBFL_POS_3_20_VHCAL").config
    assert cfg.malicious == (17, 18, 19)


def test_vh1_preset_votes_everything_positive():
    cfg = get_preset("VBFL_POS_0_20_VH1").config
    assert cfg.vh == 1.0 and cfg.malicious == ()


def test_vhcal_presets_marked():
    assert get_preset("VBFL_POS_3_20_VHCAL").requires_vh
    assert get_preset("VBFL_POW_3_20_VHCAL_D2").requires_vh
    assert not get_preset("CALIBRATE_VH").requires_vh


def test_pow_presets_difficulties():
    assert get_preset("VBFL_POW_3_20_VHCAL_D1").config.pow_difficulty == 1
    assert get_preset("VBFL_POW_3_20_VHCAL_D2").config.pow_difficulty == 2


def test_mv_preset_flips_votes():
    cfg = get_preset("VBFL_POS_3_20_VHCAL_MV").config
    assert "VALIDATOR_FLIP" in cfg.malicious_behaviors


def test_default_network_is_benign():
    for preset in PRESETS.values():
        net = preset.config.network
        assert net.delay == 0.0 and net.jitter == 0.0
        assert math.isinf(net.propagated_block_wait)


def test_overrides():
    cfg = apply_overrides(
        get_preset("VFL_0_20").config, rounds=7, seed=3, malicious=2,
    )
    assert cfg.rounds == 7
    assert cfg.master_seed == 3
    assert cfg.malicious == (18, 19)


def test_bad_malicious_count():
    with pytest.raises(ConfigError):
        apply_overrides(get_preset("VFL_0_20").config, malicious=21)
