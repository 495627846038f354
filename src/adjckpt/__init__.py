"""Checkpoint/recompute scheduling with lossy checkpoint compression.

The package bundles five pieces that together let you run and reason about
memory-constrained adjoint (forward-then-reverse) computations:

* ``schedule``   Revolve (binomial) checkpoint schedules and their accounting,
* ``perfmodel``  an analytical wall-time model for checkpointing with and
  without compressed checkpoints, plus sweep generation,
* ``codecs``     the checkpoint compression contract and three codecs,
* ``store``      a byte-budgeted checkpoint slot manager,
* ``driver``     a schedule executor and a toy acoustic wave operator used
  for end-to-end verification and calibration.
"""

from .codecs import CodecStats, get_codec, profile
from .driver import (
    ExecutionStats,
    WaveParams,
    WaveStepper,
    dot_test,
    execute,
    misfit,
    reference_adjoint,
    ricker_wavelet,
    simulate,
)
from .perfmodel import (
    PerfParams,
    RegimeReport,
    classify_regime,
    slots,
    sweep,
)
from .schedule import (
    ScheduleStats,
    generate_schedule,
    recompute_count,
    schedule_counts,
    schedule_stats,
)
from .store import CheckpointStore

__version__ = "0.1.0"
