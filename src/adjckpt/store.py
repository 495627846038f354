"""Byte-budgeted checkpoint slot manager.

The store is deliberately dumb: it never evicts, the schedule decides every
lifetime.  It enforces the byte budget the performance model reasons about,
so an over-budget put fails loudly instead of silently dropping data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codecs import Codec, CodecStats
from .errors import CapacityError, InvalidArgumentError, MissingCheckpointError

__all__ = ["CheckpointStore"]


@dataclass
class StoreCounters:
    puts: int = 0
    gets: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class CheckpointStore:
    """Holds encoded states in numbered slots under a hard byte budget.

    A slot holds its step and its blob; the blob envelope already
    self-describes.  ``bytes_used`` is the sum of the stored blob lengths.
    """

    def __init__(self, budget_bytes: int | float):
        if not 0 < budget_bytes < math.inf:
            raise InvalidArgumentError(f"budget must be positive and finite, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._slots: dict[int, tuple[int, bytes]] = {}
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
        old = self._slots.get(slot)
        if old is not None and not overwrite:
            raise InvalidArgumentError(f"slot {slot} occupied; pass overwrite=True to replace")
        blob, stats = codec.encode(fieldval)
        freed = len(old[1]) if old is not None else 0
        available = self.budget_bytes - (self._bytes_used - freed)
        if len(blob) > available:
            raise CapacityError(required=len(blob), available=int(available))
        self._slots[slot] = (step, blob)
        self._bytes_used += len(blob) - freed
        self.counters.puts += 1
        self.counters.bytes_written += len(blob)
        return stats

    def get(self, slot: int, codec: Codec) -> tuple[int, np.ndarray]:
        rec = self._slots.get(slot)
        if rec is None:
            raise MissingCheckpointError(f"slot {slot} is empty")
        step, blob = rec
        fieldval = codec.decode(blob)
        self.counters.gets += 1
        self.counters.bytes_read += len(blob)
        return step, fieldval

    def free(self, slot: int) -> None:
        rec = self._slots.pop(slot, None)
        if rec is None:
            raise MissingCheckpointError(f"slot {slot} is empty")
        self._bytes_used -= len(rec[1])
