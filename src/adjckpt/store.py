"""Byte-budgeted checkpoint slot manager.

The store is deliberately dumb: it never evicts, the schedule decides every
lifetime.  It enforces the byte budget the performance model reasons about,
so an over-budget put fails loudly instead of silently dropping data.

Raw checkpoints stay arrays: a ``NullCodec`` put keeps a read-only copy of
the state in the state's own memory order, which ``get`` hands back as it
is, with no envelope and no checksum, so a state stored depth-major comes
back depth-major.  Only the other codecs' checkpoints are blobs, made by
``encode`` and checked by ``decode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codecs import Codec, NullCodec
from .errors import CapacityError, InvalidArgumentError, MissingCheckpointError

__all__ = ["CheckpointStore"]


@dataclass
class StoreCounters:
    puts: int = 0
    gets: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class CheckpointStore:
    """Holds checkpoints in numbered slots under a hard byte budget.

    A slot holds its step, its checkpoint and the checkpoint's size.  A
    ``NullCodec`` checkpoint is a read-only copy of the state, contiguous in
    the state's memory order (C order for a C-ordered state), and its size
    is ``nbytes``; any other codec's is the encoded blob and its size is
    the blob's length.  ``bytes_used`` is the sum of the sizes.
    """

    def __init__(self, budget_bytes: int | float):
        if not 0 < budget_bytes < math.inf:
            raise InvalidArgumentError(f"budget must be positive and finite, got {budget_bytes}")
        self.budget_bytes = budget_bytes
        self._slots: dict[int, tuple[int, np.ndarray | bytes, int]] = {}
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
    ) -> None:
        old = self._slots.get(slot)
        if old is not None and not overwrite:
            raise InvalidArgumentError(f"slot {slot} occupied; pass overwrite=True to replace")
        if isinstance(codec, NullCodec):
            data = np.array(fieldval, order="K")
            data.setflags(write=False)
            size = data.nbytes
        else:
            data = codec.encode(fieldval)[0]
            size = len(data)
        freed = old[2] if old is not None else 0
        available = self.budget_bytes - (self._bytes_used - freed)
        if size > available:
            raise CapacityError(required=size, available=int(available))
        self._slots[slot] = (step, data, size)
        self._bytes_used += size - freed
        self.counters.puts += 1
        self.counters.bytes_written += size

    def get(self, slot: int, codec: Codec) -> tuple[int, np.ndarray]:
        """The slot's step and state; a raw state comes back as the stored read-only array."""
        rec = self._slots.get(slot)
        if rec is None:
            raise MissingCheckpointError(f"slot {slot} is empty")
        step, data, size = rec
        fieldval = data if isinstance(data, np.ndarray) else codec.decode(data)
        self.counters.gets += 1
        self.counters.bytes_read += size
        return step, fieldval

    def free(self, slot: int) -> None:
        rec = self._slots.pop(slot, None)
        if rec is None:
            raise MissingCheckpointError(f"slot {slot} is empty")
        self._bytes_used -= rec[2]
