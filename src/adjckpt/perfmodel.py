"""Analytical wall-time model for checkpointed adjoint sweeps.

The model predicts whether compressing checkpoints pays off.  Reversing
``nsteps`` steps costs a floor of one forward plus one reverse pass.  With
``m`` checkpoint slots the generated schedule replays ``p(nsteps, m)``
extra steps (Revolve's count, ``schedule.recompute_count``), and every
checkpoint write or read moves ``state_bytes`` across memory at
``bandwidth``.  Compression multiplies the slot count by ``ratio`` (so the
replay count drops) but charges ``compress_time``/``decompress_time`` per
write/read and shrinks each copy by the same ratio.  One formula prices a
sweep with ``m`` slots:

    t(m) = 2 * step_cost * nsteps + p(N, m) * step_cost
           + W * (S / (F B) + t_c) + R * (S / (F B) + t_d)

W and R are the write/read counts of the concrete generated schedule.
Compressed checkpoints give ``t_combined``; plain ones give ``t_revolve``,
the same formula fed the zero-cost codec's numbers: F = 1 and
t_c = t_d = 0.  ``_breakdown`` is the one place these terms are assembled,
each side split into forward, adjoint, recompute, copy, encode and decode
time, which ``predict`` returns.  ``evaluate`` is the one place a
prediction becomes a ``SweepRow``; ``sweep``, ``adjckpt advise`` and
``adjckpt run`` all print rows it built.  A budget that holds compressed
states but no raw one prices the combined side alone: the plain side is
infeasible there, which is when only compression lets the sweep run.
Speedup is quoted against the plain-checkpointing time, so values above
1.0 mean compression wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

from .errors import InfeasibleConfigurationError, InvalidArgumentError
from .schedule import ScheduleStats, recompute_count, schedule_counts

__all__ = [
    "PerfParams",
    "CostBreakdown",
    "RegimeReport",
    "SweepRow",
    "SWEEP_HEADER",
    "REGIME_CHECKPOINT_REQUIRED",
    "REGIME_COMPRESSION_FITS",
    "REGIME_NO_ACTION_NEEDED",
    "t_naive",
    "slots",
    "recompute_overhead",
    "storage_overhead_plain",
    "storage_overhead_compressed",
    "predict",
    "evaluate",
    "classify_regime",
    "sweep",
    "rows_to_csv",
]

REGIME_CHECKPOINT_REQUIRED = "checkpoint-required"
REGIME_COMPRESSION_FITS = "compression-fits"
REGIME_NO_ACTION_NEEDED = "no-action-needed"


@dataclass(frozen=True)
class PerfParams:
    """One configuration of the cost model; every field finite, the codec
    times non-negative, the ratio at least 1 and the rest strictly positive."""

    step_cost: float  # seconds per primal (or adjoint) step
    nsteps: int
    state_bytes: float  # uncompressed bytes per checkpointed state
    bandwidth: float  # bytes per second for checkpoint copies
    memory_bytes: float  # budget for checkpoint storage
    ratio: float = 1.0  # compression ratio, >= 1
    compress_time: float = 0.0  # seconds to compress one state
    decompress_time: float = 0.0  # seconds to decompress one state

    def __post_init__(self):
        # each test is false for nan and exact for ints too large for a float
        for name in ("step_cost", "nsteps", "state_bytes", "bandwidth", "memory_bytes"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidArgumentError(f"{name} must be finite and strictly positive")
        if not 1.0 <= self.ratio < math.inf:
            raise InvalidArgumentError(f"ratio must be finite and >= 1, got {self.ratio}")
        if not (0 <= self.compress_time < math.inf and 0 <= self.decompress_time < math.inf):
            raise InvalidArgumentError("codec times must be finite and non-negative")


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    threshold_compressed_fit: float  # bytes at which the compressed trajectory fits
    threshold_uncompressed_fit: float  # bytes at which the raw trajectory fits


def t_naive(p: PerfParams) -> float:
    return 2.0 * p.step_cost * p.nsteps


def slots(p: PerfParams, compressed: bool) -> int:
    """Checkpoint slots that fit in the memory budget."""
    per_state = p.state_bytes / p.ratio if compressed else p.state_bytes
    count = p.memory_bytes / per_state if per_state else math.inf  # S / F can underflow
    if count == math.inf:
        raise InvalidArgumentError(f"memory {p.memory_bytes:.3g} B holds no finite count of states")
    if count < 1:
        raise InfeasibleConfigurationError(
            f"memory {p.memory_bytes:.3g} B cannot hold even one "
            f"{'compressed ' if compressed else ''}state of {per_state:.3g} B"
        )
    return math.floor(count)


def recompute_overhead(p: PerfParams, m: int) -> float:
    return recompute_count(p.nsteps, m) * p.step_cost


# A codec as the model prices it: (ratio, compress_time, decompress_time).
# Plain checkpoints are the zero-cost codec at ratio 1.
_Codec = tuple[float, float, float]
_RAW: _Codec = (1.0, 0.0, 0.0)


def _codec(p: PerfParams) -> _Codec:
    return p.ratio, p.compress_time, p.decompress_time


def _storage(p: PerfParams, counts: ScheduleStats, codec: _Codec) -> tuple[float, float, float]:
    """(copy, encode, decode) seconds for the generated schedule's writes and reads."""
    ratio, compress_time, decompress_time = codec
    w, r = counts.writes, counts.reads
    copy = (w + r) * p.state_bytes / (ratio * p.bandwidth)
    return copy, w * compress_time, r * decompress_time


def storage_overhead_plain(p: PerfParams, m: int) -> float:
    return sum(_storage(p, schedule_counts(p.nsteps, m), _RAW))


def storage_overhead_compressed(p: PerfParams, m_compressed: int) -> float:
    return sum(_storage(p, schedule_counts(p.nsteps, m_compressed), _codec(p)))


@dataclass(frozen=True)
class CostBreakdown:
    """Predicted seconds of one checkpointed sweep, term by term."""

    forward: float  # the first forward pass
    adjoint: float  # the reverse pass
    recompute: float  # replayed forward steps
    copy: float  # moving checkpoint bytes at ``bandwidth``
    encode: float  # compressing every write
    decode: float  # decompressing every read

    @property
    def total(self) -> float:
        return self.forward + self.adjoint + self.recompute + self.copy + self.encode + self.decode


def _breakdown(p: PerfParams, m: int, codec: _Codec) -> CostBreakdown:
    counts = schedule_counts(p.nsteps, m)  # one count of the schedule prices every term
    sweep_s = p.step_cost * p.nsteps
    recompute = counts.recompute_steps * p.step_cost
    return CostBreakdown(sweep_s, sweep_s, recompute, *_storage(p, counts, codec))


def predict(p: PerfParams, m_plain: int, m_comb: int) -> tuple[CostBreakdown, CostBreakdown]:
    """Per-term predictions for plain checkpoints in ``m_plain`` slots and
    compressed ones in ``m_comb`` slots, in that order."""
    return _breakdown(p, m_plain, _RAW), _breakdown(p, m_comb, _codec(p))


def classify_regime(p: PerfParams) -> RegimeReport:
    """Which of the three memory regimes the configuration sits in.

    Boundaries are inclusive on the fits side: exactly fitting needs no
    checkpointing.
    """
    fit_raw = p.nsteps * p.state_bytes
    fit_compressed = fit_raw / p.ratio
    if p.memory_bytes >= fit_raw:
        regime = REGIME_NO_ACTION_NEEDED
    elif p.memory_bytes >= fit_compressed:
        regime = REGIME_COMPRESSION_FITS
    else:
        regime = REGIME_CHECKPOINT_REQUIRED
        slots(p, compressed=True)  # surfaces infeasible budgets
    return RegimeReport(
        regime=regime,
        threshold_compressed_fit=fit_compressed,
        threshold_uncompressed_fit=fit_raw,
    )


# ---------------------------------------------------------------------------
# Sweeps behind the speedup figures
# ---------------------------------------------------------------------------

_AXIS_FIELDS = {"memory": "memory_bytes", "compute-cost": "step_cost", "nsteps": "nsteps"}
SWEEP_AXES = tuple(_AXIS_FIELDS)


@dataclass(frozen=True)
class SweepRow:
    """One point of the model.  ``m_plain`` 0 marks a budget that holds no
    raw state: the plain side is infeasible, and its time, its replay count
    and the speedup are None (empty CSV cells)."""

    x: float
    speedup: float | None
    t_revolve_s: float | None
    t_combined_s: float
    m_plain: int
    m_compressed: int
    p_plain: int | None
    p_compressed: int

    def csv(self) -> str:
        return ",".join("" if (v := getattr(self, f.name)) is None else repr(v) for f in fields(self))


SWEEP_HEADER = ",".join(f.name for f in fields(SweepRow))


def _axis_values(axis: str, lo: float, hi: float, samples: int) -> list[float]:
    if samples < 1:
        raise InvalidArgumentError("samples must be >= 1")
    if not 0 < lo <= hi < math.inf:
        raise InvalidArgumentError(f"need finite 0 < lo <= hi, got {lo}..{hi}")
    if samples == 1 or lo == hi:
        return [float(lo)]
    # numpy's spacing fixes the sweep's bytes; a one-point query never loads it
    import numpy as np

    if axis == "nsteps":
        vals = np.linspace(lo, hi, samples)
        return sorted({float(max(1, round(v))) for v in vals})
    # memory and compute-cost span orders of magnitude; sample geometrically
    return [float(v) for v in np.geomspace(lo, hi, samples)]


def evaluate(p: PerfParams, x: float, m_plain: int, m_comb: int) -> SweepRow:
    """The model's row for plain checkpoints in ``m_plain`` slots (0: none
    fit) against compressed ones in ``m_comb`` slots, labelled ``x``, if the
    times it prices are finite."""
    tr = _breakdown(p, m_plain, _RAW).total if m_plain else None
    tc = _breakdown(p, m_comb, _codec(p)).total
    times = [t for t in (tr, tc) if t is not None]
    if not all(map(math.isfinite, times)):
        shown = " and ".join(f"{t!r} s" for t in times)
        raise InvalidArgumentError(f"predicted times {shown} overflow a float")
    return SweepRow(
        x=x,
        speedup=tr / tc if m_plain else None,
        t_revolve_s=tr,
        t_combined_s=tc,
        m_plain=m_plain,
        m_compressed=m_comb,
        p_plain=recompute_count(p.nsteps, m_plain) if m_plain else None,
        p_compressed=recompute_count(p.nsteps, m_comb),
    )


def _eval_point(p: PerfParams, axis: str, x: float) -> SweepRow:
    q = PerfParams(**{**vars(p), _AXIS_FIELDS[axis]: int(x) if axis == "nsteps" else x})
    m_comb = slots(q, compressed=True)  # refuses a budget that holds no state at all
    try:
        m_plain = slots(q, compressed=False)
    except InfeasibleConfigurationError:
        m_plain = 0
    return evaluate(q, x, m_plain, m_comb)


def sweep(p: PerfParams, axis: str, lo: float, hi: float, samples: int) -> list[SweepRow]:
    """Evaluate the model along one axis; rows come back ordered by x."""
    if axis not in SWEEP_AXES:
        raise InvalidArgumentError(f"unknown sweep axis {axis!r} (choose {SWEEP_AXES})")
    return [_eval_point(p, axis, x) for x in _axis_values(axis, lo, hi, samples)]


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    return SWEEP_HEADER + "\n" + "\n".join(r.csv() for r in rows) + "\n"
