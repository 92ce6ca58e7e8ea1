"""Deterministic simulator for a blockchained federated-learning protocol
with decentralized validator voting and stake-based block selection."""

from .config import SimConfig, TrainSpec
from .learning import (
    DataShard,
    ModelParams,
    evaluate,
    fedavg,
    init_global_model,
    inject_gaussian_noise,
    local_train,
)
from .orchestrator import (
    RoundMetrics,
    RunResult,
    Simulation,
    run_simulation,
)
from .presets import PRESETS, get_preset

__version__ = "0.1.0"

__all__ = [
    "DataShard",
    "ModelParams",
    "TrainSpec",
    "evaluate",
    "fedavg",
    "init_global_model",
    "inject_gaussian_noise",
    "local_train",
    "RoundMetrics",
    "RunResult",
    "SimConfig",
    "Simulation",
    "run_simulation",
    "PRESETS",
    "get_preset",
    "__version__",
]
