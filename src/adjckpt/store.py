"""Byte-budgeted checkpoint slot manager.

The store is deliberately dumb: it never evicts, the schedule decides every
lifetime.  It enforces the byte budget the performance model reasons about,
so an over-budget put fails loudly instead of silently dropping data.

With ``spill_dir`` set, slot payloads live as one file per slot in the
frozen checkpoint format instead of in memory; bookkeeping is unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codecs import Codec, CodecStats
from .errors import CapacityError, InvalidArgumentError, MissingCheckpointError

__all__ = ["CheckpointStore"]


@dataclass
class _Slot:
    step: int
    nbytes: int
    blob: bytes | None = None
    path: Path | None = None


@dataclass
class StoreCounters:
    puts: int = 0
    gets: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    put_seconds: float = 0.0
    get_seconds: float = 0.0


class CheckpointStore:
    """Holds encoded states in numbered slots under a hard byte budget.

    ``bytes_used`` is the sum of stored blob lengths; the blob envelope
    already self-describes, so slots carry no further metadata.
    """

    def __init__(self, budget_bytes: int | float, spill_dir: str | Path | None = None):
        if budget_bytes <= 0:
            raise InvalidArgumentError(f"budget must be positive, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self._slots: dict[int, _Slot] = {}
        self._bytes_used = 0
        self.counters = StoreCounters()

    @property
    def bytes_used(self) -> int:
        return self._bytes_used

    def put(
        self,
        slot: int,
        step: int,
        fieldval: np.ndarray,
        codec: Codec,
        overwrite: bool = False,
    ) -> CodecStats:
        if slot in self._slots and not overwrite:
            raise InvalidArgumentError(f"slot {slot} occupied; pass overwrite=True to replace")
        t0 = time.perf_counter()
        blob, stats = codec.encode(fieldval)
        need = len(blob)
        freed = self._slots[slot].nbytes if slot in self._slots else 0
        available = self.budget_bytes - (self._bytes_used - freed)
        if need > available:
            raise CapacityError(required=need, available=int(available))
        if slot in self._slots:
            self.free(slot)
        if self.spill_dir is not None:
            path = self.spill_dir / f"slot_{slot:04d}.ckpt"
            path.write_bytes(blob)
            self._slots[slot] = _Slot(step, need, path=path)
        else:
            self._slots[slot] = _Slot(step, need, blob=blob)
        self._bytes_used += need
        self.counters.puts += 1
        self.counters.bytes_written += len(blob)
        self.counters.put_seconds += time.perf_counter() - t0
        return stats

    def get(self, slot: int, codec: Codec) -> tuple[int, np.ndarray]:
        rec = self._slots.get(slot)
        if rec is None:
            raise MissingCheckpointError(f"slot {slot} is empty")
        t0 = time.perf_counter()
        blob = rec.blob if rec.blob is not None else rec.path.read_bytes()
        fieldval = codec.decode(blob)
        self.counters.gets += 1
        self.counters.bytes_read += rec.nbytes
        self.counters.get_seconds += time.perf_counter() - t0
        return rec.step, fieldval

    def free(self, slot: int) -> None:
        rec = self._slots.pop(slot, None)
        if rec is None:
            raise MissingCheckpointError(f"slot {slot} is empty")
        self._bytes_used -= rec.nbytes
        if rec.path is not None:
            rec.path.unlink(missing_ok=True)
