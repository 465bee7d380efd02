"""Deterministic single-process simulator of split-learning protocols.

Modules:
    nn         dense-network engine: forward/backward, losses, optimizers
    splitting  cut-layer partitioning, smashed-data transport, server rounds
    protocols  ssl / psl / fl / sfl / slr / sgl / sglr engines
    comm       analytic communication and training-time model, byte ledger
    data       IDX ingestion, synthetic blobs, IID partitioning
    leakage    histogram mutual-information leakage proxy
    harness    config-driven runs, sweeps, metrics emission
    cli        `splitsim` command-line entry point

The top level re-exports what the demos and the README's library example
use, plus the error classes; every other name is imported from its module.
"""

from .comm import (
    CommLedger,
    CostParams,
    comm_per_client,
    reconcile,
    reduction_percent,
    total_comm,
    training_time,
)
from .data import synth_dataset
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    InputError,
    NumericError,
    SplitSimError,
)
from .leakage import draw_pairs, smashed_leakage_score
from .nn import build_mlp
from .protocols import ProtocolConfig, SplitTrainer, keyed_rng, split_lr
from .splitting import SplitModel

__all__ = [
    "CommLedger",
    "ConfigError",
    "CostParams",
    "DimensionError",
    "FormatError",
    "InputError",
    "NumericError",
    "ProtocolConfig",
    "SplitModel",
    "SplitSimError",
    "SplitTrainer",
    "build_mlp",
    "comm_per_client",
    "draw_pairs",
    "keyed_rng",
    "reconcile",
    "reduction_percent",
    "smashed_leakage_score",
    "split_lr",
    "synth_dataset",
    "total_comm",
    "training_time",
]

__version__ = "0.1.0"
