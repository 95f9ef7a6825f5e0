"""The assembled simulator: decoupled FDP frontend + consuming backend."""

from repro.core.backend import Backend, CommitTrainer, DecodeQueue
from repro.core.metrics import RunResult, ftq_storage_bits, ftq_storage_bytes
from repro.core.simulator import Simulator, simulate

__all__ = [
    "Backend",
    "CommitTrainer",
    "DecodeQueue",
    "RunResult",
    "ftq_storage_bits",
    "ftq_storage_bytes",
    "simulate",
    "Simulator",
]
