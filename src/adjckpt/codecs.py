"""Checkpoint compression codecs and the frozen on-disk checkpoint format.

Three codecs cover the compression modes the performance model cares about:

* ``NullCodec``       bit-exact passthrough, ratio 1,
* ``CastCodec``       round trip through the next narrower float width,
  ratio exactly 2 and cheap (both share one raw-payload body),
* ``QuantCodec``      absolute-error-bounded quantization: values snap to a
  lattice of spacing ``1.5 * tolerance`` and each 4**d block stores its base
  index once plus bit-packed per-value offsets of minimal width.  Every
  reconstructed value lies within ``tolerance`` of the input.

``FixedRateCodec`` emulates a guaranteed-output-size mode by searching the
quantizer tolerance until the payload hits the requested bits per value
(within 5 percent; short payloads are zero-padded up to the target).  The
search prices each candidate from block bases and widths alone and packs
bits only once, at the tolerance it settles on.

All encoded blobs share one little-endian envelope so they can be written
to disk and reread later:

    magic "ACKP" | version u8 | codec id u8 | dtype code u8 | ndim u8
    shape u32 * ndim | codec header | payload | crc32(payload) u32

``CodecStats.output_bytes`` counts the payload only; the envelope is a
small constant and would otherwise spoil exact ratio contracts.  Encoders
do not time themselves; ``profile`` measures ``t_c`` and ``t_d``.
"""

from __future__ import annotations

import functools
import math
import struct
import time
import zlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import CodecDecodeError, CodecError, InvalidArgumentError

__all__ = [
    "Codec",
    "CodecStats",
    "NullCodec",
    "CastCodec",
    "QuantCodec",
    "FixedRateCodec",
    "get_codec",
    "profile",
    "lossless_ratio",
]

_MAGIC = b"ACKP"
_VERSION = 1
_BLOCK = 4

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_CODES_DTYPE = {v: k for k, v in _DTYPE_CODES.items()}
_NARROWER = {np.dtype(np.float64): np.float32, np.dtype(np.float32): np.float16}

_ID_NULL = 0
_ID_CAST = 1
_ID_QUANT = 2


@dataclass(frozen=True)
class CodecStats:
    """Byte counts and timings of one encode/decode round trip.

    Encoders do not time themselves: ``t_c`` and ``t_d`` read zero until
    ``profile`` measures them.  ``max_abs_error`` is zero unless the encoder
    knows it (``QuantCodec``) or ``profile`` measured it.
    """

    input_bytes: int
    output_bytes: int
    ratio: float
    t_c: float
    t_d: float
    max_abs_error: float


def _require_field(field: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(field)
    if arr.dtype not in _DTYPE_CODES:
        raise InvalidArgumentError(f"unsupported dtype {arr.dtype}, use float32/float64")
    if arr.size == 0:
        raise InvalidArgumentError("cannot encode an empty field")
    if not np.all(np.isfinite(arr)):
        raise CodecError("field contains non-finite values")
    return arr


def _seal(codec_id: int, arr: np.ndarray, header: bytes, payload: bytes) -> bytes:
    """The blob of ``arr``: envelope, codec header, payload and checksum."""
    head = struct.pack("<4sBBBB", _MAGIC, _VERSION, codec_id, _DTYPE_CODES[arr.dtype], arr.ndim)
    shape = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + shape + header + payload + struct.pack("<I", zlib.crc32(payload))


def _take(fmt: str, blob: bytes, at: int) -> tuple[tuple, int]:
    """Unpack ``fmt`` at offset ``at``; return the values and the offset after them."""
    end = at + struct.calcsize(fmt)
    if end > len(blob):
        raise CodecDecodeError(at, "truncated blob")
    return struct.unpack_from(fmt, blob, at), end


def _open_envelope(blob: bytes, expect_id: int) -> tuple[np.dtype, tuple[int, ...], int]:
    """Check the envelope; return the dtype, the shape and the offset after them."""
    (magic, version, codec_id, dtype_code, ndim), at = _take("<4sBBBB", blob, 0)
    if magic != _MAGIC:
        raise CodecDecodeError(0, f"bad magic {magic!r}")
    if version != _VERSION:
        raise CodecDecodeError(4, f"unsupported version {version}")
    if codec_id != expect_id:
        raise CodecDecodeError(5, f"blob written by codec id {codec_id}, expected {expect_id}")
    if dtype_code not in _CODES_DTYPE:
        raise CodecDecodeError(6, f"unknown dtype code {dtype_code}")
    shape, at = _take(f"<{ndim}I", blob, at)
    return _CODES_DTYPE[dtype_code], shape, at


def _check_crc(blob: bytes, payload_start: int, payload_end: int) -> None:
    if payload_end + 4 > len(blob):
        raise CodecDecodeError(payload_end, "truncated blob (missing checksum)")
    stored = struct.unpack_from("<I", blob, payload_end)[0]
    if stored != zlib.crc32(blob[payload_start:payload_end]):
        raise CodecDecodeError(payload_start, "payload checksum mismatch")


class _RawCodec:
    """Stores the values themselves, each at the width ``_widths`` maps its dtype to."""

    _id: int
    _widths: dict[np.dtype, type]

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = _require_field(field)
        with np.errstate(over="ignore"):
            stored = arr.astype(self._widths[arr.dtype], copy=False)
        # _require_field checked finiteness; only a narrower width can overflow
        if stored is not arr and not np.all(np.isfinite(stored)):
            raise CodecError("values overflow the narrower float width")
        payload = stored.tobytes()
        blob = _seal(self._id, arr, b"", payload)
        return blob, CodecStats(arr.nbytes, len(payload), arr.nbytes / len(payload), 0.0, 0.0, 0.0)

    def decode(self, blob: bytes) -> np.ndarray:
        dtype, shape, start = _open_envelope(blob, self._id)
        width = np.dtype(self._widths[dtype])
        # exact ints: a corrupt shape cannot wrap to a small payload size
        count = math.prod(shape)
        end = start + count * width.itemsize
        if end > len(blob):
            raise CodecDecodeError(start, "truncated blob")
        _check_crc(blob, start, end)
        if len(blob) != end + 4:
            raise CodecDecodeError(end + 4, "trailing bytes after checksum")
        return np.frombuffer(blob, width, count, start).astype(dtype).reshape(shape)


class NullCodec(_RawCodec):
    """Bit-exact passthrough; the do-nothing baseline."""

    name = "null"
    _id = _ID_NULL
    _widths = {dtype: dtype.type for dtype in _DTYPE_CODES}


class CastCodec(_RawCodec):
    """Round trip through the next narrower float; payload is exactly half."""

    name = "cast"
    _id = _ID_CAST
    _widths = _NARROWER


# Per-block header of the quant payload: value count, base index, bit width.
_BLOCK_HEADER = np.dtype([("count", "<u2"), ("base", "<i8"), ("nbits", "u1")])
_HEAD_BYTES = _BLOCK_HEADER.itemsize


class _Grid(NamedTuple):
    """The 4**d block grid of one shape, in payload order.

    ``perm`` lists the flat indices grouped by block, blocks in C order and
    values row-major inside each (edge blocks are partial); block ``b``
    holds ``perm[starts[b] : starts[b] + counts[b]]``.
    """

    perm: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


def _block_counts(shape: tuple[int, ...], k: int) -> np.ndarray:
    """Values in each of the first ``k`` blocks of ``shape``'s grid."""
    counts = np.ones(k, dtype=np.int64)
    rest = np.arange(k)
    for s in reversed(shape):
        rest, b = np.divmod(rest, -(-s // _BLOCK))
        counts *= np.minimum(_BLOCK, s - _BLOCK * b)
    return counts


@functools.lru_cache(maxsize=16)
def _grid(shape: tuple[int, ...]) -> _Grid:
    block = np.zeros((), dtype=np.int64)
    for s in shape:
        block = block[..., None] * -(-s // _BLOCK) + np.arange(s) // _BLOCK
    # a stable sort keeps each block's values in row-major order
    perm = np.argsort(block.ravel(), kind="stable")
    counts = _block_counts(shape, math.prod(-(-s // _BLOCK) for s in shape))
    starts = np.cumsum(counts) - counts
    for a in (perm, starts, counts):
        a.setflags(write=False)
    return _Grid(perm, starts, counts)


_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every element of a uint64 array: how many powers of two are <= it."""
    return np.searchsorted(_POW2, x, side="right")


def _block_bytes(counts: np.ndarray, nbits: np.ndarray) -> np.ndarray:
    return _HEAD_BYTES + (counts * nbits + 7) // 8


def _groups(counts: np.ndarray, nbits: np.ndarray):
    """Yield (count, nbits, block indices) for each distinct shape of non-empty bit data."""
    keys = nbits << 16 | counts
    for key in np.unique(keys[nbits > 0]).tolist():
        yield key & 0xFFFF, key >> 16, np.flatnonzero(keys == key)


class QuantCodec:
    """Fixed-tolerance quantizer: absolute error of every value <= tolerance."""

    name = "quant"

    def __init__(self, tolerance: float):
        if not (tolerance > 0 and np.isfinite(tolerance)):
            raise InvalidArgumentError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = float(tolerance)

    def _quantize(self, arr: np.ndarray):
        """Block-ordered lattice indices of ``arr`` with each block's base and width."""
        # Lattice spacing 1.5 * tolerance instead of the nominal 2x: the
        # quarter-tolerance margin absorbs float64 reconstruction roundoff,
        # keeping the absolute-error contract exact down to tolerances a
        # few machine epsilons above the value magnitude.
        step = 1.5 * self.tolerance
        scaled = arr.astype(np.float64) / step
        if np.abs(scaled).max(initial=0.0) >= 2**62:
            raise CodecError("tolerance too small for the value range")
        # round-to-even keeps re-encoding a decoded field stable
        idx = np.round(scaled).astype(np.int64)
        approx = (idx.astype(np.float64) * step).astype(arr.dtype)
        err = float(np.abs(arr - approx).max(initial=0.0))
        if err > self.tolerance:
            raise CodecError(
                f"tolerance {self.tolerance:g} is below what float64 can honor "
                f"for values of magnitude {np.abs(arr).max():g}"
            )
        grid = _grid(arr.shape)
        if grid.counts.max() >= 2**16:
            raise InvalidArgumentError(f"{arr.ndim}-d blocks overflow the u16 value count")
        flat = idx.ravel()[grid.perm]
        base = np.minimum.reduceat(flat, grid.starts)
        top = np.maximum.reduceat(flat, grid.starts)
        return grid, step, flat, base, _bit_length((top - base).astype(np.uint64)), err

    def _payload_bytes(self, arr: np.ndarray) -> int:
        """Payload size ``encode`` would produce, priced without packing any bits."""
        grid, _step, _flat, _base, nbits, _err = self._quantize(arr)
        return int(_block_bytes(grid.counts, nbits).sum())

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = _require_field(field)
        grid, step, flat, base, nbits, err = self._quantize(arr)
        sizes = _block_bytes(grid.counts, nbits)
        at = np.cumsum(sizes) - sizes
        payload = np.zeros(int(sizes.sum()), dtype=np.uint8)
        head = np.empty(len(base), dtype=_BLOCK_HEADER)
        head["count"], head["base"], head["nbits"] = grid.counts, base, nbits
        payload[at[:, None] + np.arange(_HEAD_BYTES)] = head.view(np.uint8).reshape(len(base), -1)
        # little-endian bytes of each value's offset from its block's base
        offsets = (flat - np.repeat(base, grid.counts)).astype("<u8").view(np.uint8).reshape(-1, 8)
        for count, width, blocks in _groups(grid.counts, nbits):
            rows = grid.starts[blocks][:, None] + np.arange(count)
            bits = np.unpackbits(
                offsets[rows, : (width + 7) // 8], axis=-1, count=width, bitorder="little"
            ).reshape(len(blocks), count * width)
            packed = np.packbits(bits, axis=-1, bitorder="little")
            payload[(at[blocks] + _HEAD_BYTES)[:, None] + np.arange(packed.shape[1])] = packed
        payload = payload.tobytes()
        header = struct.pack("<ddI", self.tolerance, step, len(base))
        blob = _seal(_ID_QUANT, arr, header, payload)
        return blob, CodecStats(arr.nbytes, len(payload), arr.nbytes / len(payload), 0.0, 0.0, err)

    def decode(self, blob: bytes) -> np.ndarray:
        dtype, shape, header_at = _open_envelope(blob, _ID_QUANT)
        (tolerance, step, nblocks), payload_start = _take("<ddI", blob, header_at)
        # the codec header lies outside the checksum: check it against itself
        if step != 1.5 * tolerance:
            raise CodecDecodeError(header_at + 8, f"step {step!r} != 1.5 * tolerance {tolerance!r}")
        grid_blocks = math.prod(-(-s // _BLOCK) for s in shape)
        if nblocks != grid_blocks:
            raise CodecDecodeError(header_at + 16, f"{nblocks} blocks, the grid has {grid_blocks}")
        # no encoder writes an empty field; the grid of such a shape could
        # still be huge along its other axes
        if not grid_blocks:
            raise CodecDecodeError(8, "shape has an axis of length 0")
        # Header-only scan: each block's start depends on the previous width.
        # Every block takes at least a header, so a blob too short for all of
        # them fails within the first `reach` blocks, before any array sized
        # by its (unchecked) shape is built.
        at = []
        pos, size = payload_start, len(blob)
        reach = min(nblocks, (size - payload_start) // _HEAD_BYTES + 1)
        for expect in _block_counts(shape, reach).tolist():
            if pos + _HEAD_BYTES > size:
                raise CodecDecodeError(pos, "truncated blob")
            count, nbits = blob[pos] | blob[pos + 1] << 8, blob[pos + 10]
            if count != expect:
                raise CodecDecodeError(pos, f"block holds {count} values, grid expects {expect}")
            if nbits > 63:
                raise CodecDecodeError(pos + 10, f"corrupt bit width {nbits}")
            at.append(pos)
            pos += _HEAD_BYTES + (count * nbits + 7) // 8
            if pos > size:
                raise CodecDecodeError(at[-1] + _HEAD_BYTES, "truncated blob")
        grid = _grid(shape)
        _check_crc(blob, payload_start, pos)
        tail = blob[pos + 4 :]
        # zero padding after the checksum is legal (fixed-rate mode pads)
        if tail and any(tail):
            raise CodecDecodeError(pos + 4, "trailing bytes after checksum")
        buf = np.frombuffer(blob, dtype=np.uint8)
        at = np.array(at, dtype=np.int64)
        head = buf[at[:, None] + np.arange(_HEAD_BYTES)].view(_BLOCK_HEADER)[:, 0]
        # little-endian bytes of each value's offset from its block's base
        offsets = np.zeros((grid.perm.size, 8), dtype=np.uint8)
        for count, width, blocks in _groups(grid.counts, head["nbits"].astype(np.int64)):
            nbytes = (count * width + 7) // 8
            raw = buf[(at[blocks] + _HEAD_BYTES)[:, None] + np.arange(nbytes)]
            bits = np.unpackbits(raw, axis=-1, count=count * width, bitorder="little")
            value_bytes = np.packbits(bits.reshape(-1, width), axis=-1, bitorder="little")
            rows = grid.starts[blocks][:, None] + np.arange(count)
            offsets[rows.ravel(), : value_bytes.shape[1]] = value_bytes
        offsets = offsets.view("<u8")[:, 0].astype(np.int64)
        flat = (np.repeat(head["base"], grid.counts) + offsets) * step
        out = np.empty(grid.perm.size, dtype=np.float64)
        out[grid.perm] = flat
        return out.reshape(shape).astype(dtype)


class FixedRateCodec:
    """Guaranteed payload size: quantize at a searched tolerance, pad if short.

    ``rate`` is the target payload size in bits per value.  The per-block
    headers put a floor of roughly 12 bytes per block on the payload;
    targets below that floor are rejected rather than silently missed.
    """

    name = "rate"

    def __init__(self, rate: float):
        if not (rate > 0 and np.isfinite(rate)):
            raise InvalidArgumentError(f"rate must be positive bits per value, got {rate}")
        self.rate = float(rate)

    def _target_bytes(self, count: int) -> int:
        return max(1, int(np.ceil(self.rate * count / 8)))

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = _require_field(field)
        target = self._target_bytes(arr.size)
        span = float(arr.max() - arr.min()) if arr.size else 0.0
        tol_hi = max(span, abs(float(arr.max(initial=0.0))), 1.0)
        floor_bytes = QuantCodec(tol_hi)._payload_bytes(arr)
        if floor_bytes > target * 1.05:
            raise CodecError(
                f"rate {self.rate} bits/value is below the format floor of "
                f"{floor_bytes * 8 / arr.size:.2f} bits/value"
            )
        # Below a few ulps of the largest value no tolerance can be honored
        # (QuantCodec raises), so the search must not descend there.
        floor = 4 * np.finfo(arr.dtype).eps * float(np.abs(arr).max())
        lo, hi = max(tol_hi * 2.0**-60, floor), tol_hi
        best = tol_hi
        for _ in range(60):
            mid = float(np.sqrt(lo * hi))
            if QuantCodec(mid)._payload_bytes(arr) <= target:
                best = hi = mid
            else:
                lo = mid
            if hi / lo < 1.0 + 1e-12:
                break
        blob, stats = QuantCodec(best).encode(arr)
        pad = max(0, target - stats.output_bytes)
        if pad:
            blob = blob + b"\x00" * pad
        final_bytes = stats.output_bytes + pad
        return blob, replace(stats, output_bytes=final_bytes, ratio=arr.nbytes / final_bytes)

    def decode(self, blob: bytes) -> np.ndarray:
        return QuantCodec(1.0).decode(blob)


Codec = NullCodec | CastCodec | QuantCodec | FixedRateCodec


def get_codec(name: str, tolerance: float | None = None, rate: float | None = None) -> Codec:
    if name == "null":
        return NullCodec()
    if name == "cast":
        return CastCodec()
    if name == "quant":
        if tolerance is None:
            raise InvalidArgumentError("quant codec needs a tolerance")
        return QuantCodec(tolerance)
    if name == "rate":
        if rate is None:
            raise InvalidArgumentError("rate codec needs a bits-per-value rate")
        return FixedRateCodec(rate)
    raise InvalidArgumentError(f"unknown codec {name!r} (choose null, cast, quant, rate)")


def profile(codec: Codec, field: np.ndarray, repetitions: int = 5) -> CodecStats:
    """Average encode/decode timings over ``repetitions`` round trips."""
    if repetitions < 1:
        raise InvalidArgumentError("repetitions must be >= 1")
    arr = _require_field(field)
    blobs = []
    t_enc = t_dec = 0.0
    stats = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        blob, stats = codec.encode(arr)
        t_enc += time.perf_counter() - t0
        t0 = time.perf_counter()
        out = codec.decode(blob)
        t_dec += time.perf_counter() - t0
        blobs.append(blob)
    if any(b != blobs[0] for b in blobs[1:]):
        raise CodecError("codec produced non-deterministic bytes across repetitions")
    err = float(np.abs(arr.astype(np.float64) - out.astype(np.float64)).max(initial=0.0))
    return replace(stats, t_c=t_enc / repetitions, t_d=t_dec / repetitions, max_abs_error=err)


def lossless_ratio(field: np.ndarray) -> float:
    """Compression ratio of zlib at its highest level over the raw bytes."""
    raw = np.ascontiguousarray(field).tobytes()
    return len(raw) / len(zlib.compress(raw, 9))
