"""Golden output digests: the run files of short tiny configs, pinned by SHA-256.

Each config runs in a fresh interpreter with a fixed ``PYTHONHASHSEED`` and
one BLAS thread, so the digests also pin determinism across processes, not
only within one; one case is re-run with another hash seed and one with two
BLAS threads. A change that moves any digest changes behaviour: it must say
so and derive the digests again, with the reason.

Every case but ``pos_ragged`` gives each device a 12-row shard;
``pos_ragged`` mixes 12- and 13-row shards, so its workers train in two
groups of equal shard length.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vbfl.learning import TrainSpec
from vbfl.orchestrator import (
    BEHAVIOR_VALIDATOR_FLIP,
    BEHAVIOR_WORKER_NOISE,
    DatasetConfig,
    NetworkConfig,
    SimConfig,
)

SRC = Path(__file__).resolve().parent.parent / "src"

_RUN = """
import hashlib, json, sys, tempfile
from pathlib import Path
from vbfl.orchestrator import RunResult, SimConfig, Simulation, VanillaRun, write_outputs

cfg = SimConfig.from_dict(json.loads(sys.argv[1]))
driver = (VanillaRun if sys.argv[2] == "vanilla" else Simulation)(cfg)
metrics = driver.run()
with tempfile.TemporaryDirectory() as tmp:
    out = write_outputs(RunResult(cfg, metrics, driver, None), tmp)
    print(json.dumps({
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out).iterdir()) if p.name != "manifest.json"
    }))
"""


def _tiny(**kw) -> SimConfig:
    base = dict(
        rounds=5,
        master_seed=1,
        dataset=DatasetConfig(
            dim=8, classes=4, train_per_class=60, test_per_class=30,
            spread=0.5, feature_scale=1.0,
        ),
        arch="softmax",
        train=TrainSpec(epochs=2, learning_rate=0.05, batch_size=10),
        malicious=(16, 17, 18, 19),
        noise_variance=4.0,
        vh=0.05,
        kick_r=2,
    )
    base.update(kw)
    return SimConfig(**base)


CASES = {
    "pos_stub": ("vbfl", _tiny(arch="mlp", mlp_hidden=6)),
    # 244 rows over 20 devices: shards of 13 and of 12 rows train in two groups.
    "pos_ragged": (
        "vbfl",
        _tiny(
            arch="mlp", mlp_hidden=6,
            dataset=DatasetConfig(
                dim=8, classes=4, train_per_class=61, test_per_class=30,
                spread=0.5, feature_scale=1.0,
            ),
        ),
    ),
    "pos_hmac_shard": ("vbfl", _tiny(signature_scheme="hmac", validator_test="shard")),
    "pow_race": ("vbfl", _tiny(consensus="pow", pow_difficulty=2)),
    "network": (
        "vbfl",
        _tiny(rounds=8, network=NetworkConfig(delay=1.0, jitter=0.5, propagated_block_wait=0.2)),
    ),
    "vanilla": ("vanilla", _tiny()),
    "legacy_flip_skew": (
        "vbfl",
        _tiny(
            validation_scheme="legacy",
            malicious_behaviors=(BEHAVIOR_WORKER_NOISE, BEHAVIOR_VALIDATOR_FLIP),
            sharding="label_skew",
        ),
    ),
}

GOLDEN = {
    "legacy_flip_skew": {
        "chain.jsonl": "56770d28057892e7636f2419370eb98681c2bf744cf73189ce6b39d5719abf3b",
        "events.csv": "76d8e6bb8366736b73a701b27781ff14020e7d7b246a567c292931ea59db41bd",
        "rounds.csv": "cf43fef9b713ed92494a442151a1850af3fdc815f6d901b164219007e545d271",
        "stake.csv": "893ed24519b919267cbe2b6c2096f8df2625d9ca0fcb4a61f7bc5e6922720fc1",
        "vad.csv": "d4ade09bda624165444c7595b94ec4fdeb14ac94dd3a01561dbbd42fffbe49a2",
    },
    "network": {
        "chain.jsonl": "dbb0e3dcee9f1d43123b5b4ab0c8944807b31a51a27d668b532decff8364fc56",
        "events.csv": "1ed7b5ae8ac8edffcb238a8a391b0d24bed0f6651e3ede58fb5991c9e1fcf0d4",
        "rounds.csv": "ae8e567a2c0204aad7167727de16baa5c3de9b0c780f77ddb41b2b85d938ca60",
        "stake.csv": "5c735645566de81a0cd35522065609d382ba0c1f755d4009c899e848b14caee8",
        "vad.csv": "8dd012416c029138cfa56350b6e2d29cfeb418786617296f86544aaaeb9e8c0d",
    },
    "pos_hmac_shard": {
        "chain.jsonl": "5b48e643a3c559769a72a5527b15d1857c6b1002a3f3c3632663451d09190026",
        "events.csv": "950bdcd750772e0e9dd09f7dffb0a2909d425ef84e25a7d13638c3183d978e82",
        "rounds.csv": "f28599e079aa337471ff51dd3c51e5204b85e31894a69ed10fa9cc99aca46af7",
        "stake.csv": "51c9f6e428d0e4db40f4209c3b0336f6f4c5800627fe976a12787af7b82df25e",
        "vad.csv": "c5b5daf3d6f568aa2df0afeb1562ca9ae8ed69e8441803951140eda3324b98c2",
    },
    "pos_ragged": {
        "chain.jsonl": "07f06b5b536507eb200fb5d66543d939d6b3cb59799147f9ede54ae881b40ae3",
        "events.csv": "c6015bddff28a144727b53e6c271b11b76ee64055c14d9ac0f5c1bad5cf13621",
        "rounds.csv": "5ec49359f3de4233398d6242f12c32a14ffc17f1a94ac254ce89d6c8ba4efb4c",
        "stake.csv": "05b021706cd3c3150ef71e20e225ddb98b6996c5b0bc6d87f8544c2e479706c9",
        "vad.csv": "ec2fb5e4fad0118e20782d12bfda06a02a0f245544f911ce0dc1c96dcade570d",
    },
    "pos_stub": {
        "chain.jsonl": "c18d0afc6354ef851cfab0dbbbd63276d9bbdc6c9ecb44079b4e921b3dc9dd20",
        "events.csv": "1d320a8b7f42e00135bfeffbcd81232d9451f2c7356fbe50216c228c56947eec",
        "rounds.csv": "535b1936912f64efd5a8e3b8aa9fb679fb5a48902467a56a1c235cabbe9bfad8",
        "stake.csv": "391fc30d92830cf895f11f570aaaf9a72dcb1904e957bbaabeacf1cae71daac2",
        "vad.csv": "f94be612ed173df9a39d4534f082a3f0b1adc1a64645fb6b6c1672aafb3b5488",
    },
    "pow_race": {
        "chain.jsonl": "3fbed6b75583c8334b14b73ec7d1b383b6540f7b07c8571e38dd690e16f5bfd8",
        "events.csv": "96ce8ae849d59c09cbdf59e46ceb8ea2fd0a3704ec95b0d6de5200f760e532c8",
        "rounds.csv": "c646fdcd122b9a529f224c618da1cccf99fe3070fd2dc55fe756e6cc54f0da75",
        "stake.csv": "37c7d9624777efdb212ab0c8785fcbf29421e5abf245d20c20a2f3366d87ab8f",
        "vad.csv": "9ca06db64af69cdbc6012d3955356b493410c614c094cde664e7568a32e94135",
    },
    "vanilla": {
        "events.csv": "460a0c234029345ac9df73337c5baa51964c014336e5df268644c7baeeb00f40",
        "rounds.csv": "1d8d372bdc958cdbe2fbe2757f8cb0a565b77d23282c34931f68695b0b766286",
        "stake.csv": "edf55a94065564c54e005745f23ba03b37b5b679e72ff9ab3eaa1e04f3fe4a52",
        "vad.csv": "0641e18a8dbf41f709eca8a7d5f4c2b20e3f6f060f3274f2c9df84f631bf8b71",
    },
}


def _digests(
    mode: str, cfg: SimConfig, hash_seed: str = "0", blas_threads: str = "1"
) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, json.dumps(cfg.to_dict()), mode],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name):
    mode, cfg = CASES[name]
    assert _digests(mode, cfg) == GOLDEN[name]


def test_digests_independent_of_hash_seed():
    mode, cfg = CASES["pos_stub"]
    assert _digests(mode, cfg, hash_seed="7") == GOLDEN["pos_stub"]


def test_digests_independent_of_blas_threads():
    mode, cfg = CASES["pos_stub"]
    assert _digests(mode, cfg, blas_threads="2") == GOLDEN["pos_stub"]
