"""Checkpoint compression codecs and the frozen on-disk checkpoint format.

Three codecs cover the compression modes the performance model cares about:

* ``NullCodec``       bit-exact passthrough, ratio 1,
* ``CastCodec``       round trip through the next narrower float width,
  ratio exactly 2 and cheap,
* ``QuantCodec``      absolute-error-bounded quantization: values snap to a
  lattice of spacing ``2 * tolerance`` and each 4**d block stores its base
  index once plus bit-packed per-value offsets of minimal width.  Every
  reconstructed value lies within ``tolerance`` of the input.

``FixedRateCodec`` emulates a guaranteed-output-size mode by searching the
quantizer tolerance until the payload hits the requested bits per value
(within 5 percent; short payloads are zero-padded up to the target).

All encoded blobs share one little-endian envelope so they can be written
to disk and reread later:

    magic "ACKP" | version u8 | codec id u8 | dtype code u8 | ndim u8
    shape u32 * ndim | codec header | payload | crc32(payload) u32

``CodecStats.output_bytes`` counts the payload only; the envelope is a
small constant and would otherwise spoil exact ratio contracts.
"""

from __future__ import annotations

import itertools
import struct
import time
import zlib
from dataclasses import dataclass, replace

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

    ``t_d`` and ``max_abs_error`` are zero until something measured them
    (``profile`` fills both; ``encode`` alone only knows ``t_c``).
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


def _envelope(codec_id: int, arr: np.ndarray) -> bytes:
    head = struct.pack(
        "<4sBBBB", _MAGIC, _VERSION, codec_id, _DTYPE_CODES[arr.dtype], arr.ndim
    )
    return head + struct.pack(f"<{arr.ndim}I", *arr.shape)


class _Reader:
    """Cursor over an encoded blob; every read is bounds-checked."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.blob):
            raise CodecDecodeError(self.pos, "truncated blob")
        out = struct.unpack_from(fmt, self.blob, self.pos)
        self.pos += size
        return out

    def raw(self, size: int) -> bytes:
        if self.pos + size > len(self.blob):
            raise CodecDecodeError(self.pos, "truncated blob")
        out = self.blob[self.pos : self.pos + size]
        self.pos += size
        return out


def _open_envelope(blob: bytes, expect_id: int) -> tuple[_Reader, np.dtype, tuple[int, ...]]:
    rd = _Reader(blob)
    magic, version, codec_id, dtype_code, ndim = rd.take("<4sBBBB")
    if magic != _MAGIC:
        raise CodecDecodeError(0, f"bad magic {magic!r}")
    if version != _VERSION:
        raise CodecDecodeError(4, f"unsupported version {version}")
    if codec_id != expect_id:
        raise CodecDecodeError(5, f"blob written by codec id {codec_id}, expected {expect_id}")
    if dtype_code not in _CODES_DTYPE:
        raise CodecDecodeError(6, f"unknown dtype code {dtype_code}")
    shape = rd.take(f"<{ndim}I")
    return rd, _CODES_DTYPE[dtype_code], shape


def _check_crc(rd: _Reader, payload_start: int, payload_end: int) -> None:
    stored = struct.unpack_from("<I", rd.blob, payload_end)[0] if payload_end + 4 <= len(rd.blob) else None
    if stored is None:
        raise CodecDecodeError(payload_end, "truncated blob (missing checksum)")
    actual = zlib.crc32(rd.blob[payload_start:payload_end])
    if stored != actual:
        raise CodecDecodeError(payload_start, "payload checksum mismatch")


class NullCodec:
    """Bit-exact passthrough; the do-nothing baseline."""

    name = "null"

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = _require_field(field)
        t0 = time.perf_counter()
        payload = arr.tobytes()
        blob = _envelope(_ID_NULL, arr) + payload + struct.pack("<I", zlib.crc32(payload))
        t_c = time.perf_counter() - t0
        return blob, CodecStats(arr.nbytes, len(payload), arr.nbytes / len(payload), t_c, 0.0, 0.0)

    def decode(self, blob: bytes) -> np.ndarray:
        rd, dtype, shape = _open_envelope(blob, _ID_NULL)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = rd.pos
        payload = rd.raw(count * dtype.itemsize)
        _check_crc(rd, start, rd.pos)
        if len(blob) != rd.pos + 4:
            raise CodecDecodeError(rd.pos + 4, "trailing bytes after checksum")
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


class CastCodec:
    """Round trip through the next narrower float; payload is exactly half."""

    name = "cast"

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = _require_field(field)
        t0 = time.perf_counter()
        narrow = arr.astype(_NARROWER[arr.dtype])
        if not np.all(np.isfinite(narrow)):
            raise CodecError("values overflow the narrower float width")
        payload = narrow.tobytes()
        blob = _envelope(_ID_CAST, arr) + payload + struct.pack("<I", zlib.crc32(payload))
        t_c = time.perf_counter() - t0
        return blob, CodecStats(arr.nbytes, len(payload), arr.nbytes / len(payload), t_c, 0.0, 0.0)

    def decode(self, blob: bytes) -> np.ndarray:
        rd, dtype, shape = _open_envelope(blob, _ID_CAST)
        narrow = np.dtype(_NARROWER[dtype])
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = rd.pos
        payload = rd.raw(count * narrow.itemsize)
        _check_crc(rd, start, rd.pos)
        if len(blob) != rd.pos + 4:
            raise CodecDecodeError(rd.pos + 4, "trailing bytes after checksum")
        return np.frombuffer(payload, dtype=narrow).astype(dtype).reshape(shape)


def _block_slices(shape: tuple[int, ...]):
    ranges = [range(0, s, _BLOCK) for s in shape]
    for starts in itertools.product(*ranges):
        yield tuple(slice(a, min(a + _BLOCK, s)) for a, s in zip(starts, shape))


def _pack_bits(offsets: np.ndarray, nbits: int) -> bytes:
    shifts = np.arange(nbits, dtype=np.uint64)
    bits = ((offsets[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def _unpack_bits(buf: bytes, count: int, nbits: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(buf, np.uint8), count=count * nbits, bitorder="little")
    shifts = np.arange(nbits, dtype=np.uint64)
    return (bits.reshape(count, nbits).astype(np.uint64) << shifts).sum(
        axis=1, dtype=np.uint64
    )


class QuantCodec:
    """Fixed-tolerance quantizer: absolute error of every value <= tolerance."""

    name = "quant"

    def __init__(self, tolerance: float):
        if not (tolerance > 0 and np.isfinite(tolerance)):
            raise InvalidArgumentError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = float(tolerance)

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = _require_field(field)
        t0 = time.perf_counter()
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
        parts: list[bytes] = []
        nblocks = 0
        for slc in _block_slices(arr.shape):
            blk = idx[slc].ravel()
            base = int(blk.min())
            offsets = (blk - base).astype(np.uint64)
            nbits = int(offsets.max()).bit_length()
            parts.append(struct.pack("<HqB", blk.size, base, nbits))
            if nbits:
                parts.append(_pack_bits(offsets, nbits))
            nblocks += 1
        payload = b"".join(parts)
        header = struct.pack("<ddI", self.tolerance, step, nblocks)
        blob = (
            _envelope(_ID_QUANT, arr)
            + header
            + payload
            + struct.pack("<I", zlib.crc32(payload))
        )
        t_c = time.perf_counter() - t0
        err = float(np.abs(arr - (idx.astype(np.float64) * step).astype(arr.dtype)).max(initial=0.0))
        if err > self.tolerance:
            raise CodecError(
                f"tolerance {self.tolerance:g} is below what float64 can honor "
                f"for values of magnitude {np.abs(arr).max():g}"
            )
        return blob, CodecStats(
            arr.nbytes, len(payload), arr.nbytes / len(payload), t_c, 0.0, err
        )

    def decode(self, blob: bytes) -> np.ndarray:
        rd, dtype, shape = _open_envelope(blob, _ID_QUANT)
        _tolerance, step, nblocks = rd.take("<ddI")
        payload_start = rd.pos
        out = np.empty(shape, dtype=np.float64)
        seen = 0
        for slc in _block_slices(shape):
            if seen == nblocks:
                raise CodecDecodeError(rd.pos, "fewer blocks than the grid needs")
            count, base, nbits = rd.take("<HqB")
            view = out[slc]
            if count != view.size:
                raise CodecDecodeError(rd.pos - 11, f"block holds {count} values, grid expects {view.size}")
            if nbits > 63:
                raise CodecDecodeError(rd.pos - 1, f"corrupt bit width {nbits}")
            if nbits:
                buf = rd.raw((count * nbits + 7) // 8)
                offsets = _unpack_bits(buf, count, nbits).astype(np.int64)
            else:
                offsets = np.zeros(count, dtype=np.int64)
            view[...] = ((base + offsets) * step).reshape(view.shape)
            seen += 1
        _check_crc(rd, payload_start, rd.pos)
        tail = blob[rd.pos + 4 :]
        # zero padding after the checksum is legal (fixed-rate mode pads)
        if tail and any(tail):
            raise CodecDecodeError(rd.pos + 4, "trailing bytes after checksum")
        return out.astype(dtype)


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
        floor_blob, floor_stats = QuantCodec(tol_hi).encode(arr)
        if floor_stats.output_bytes > target * 1.05:
            raise CodecError(
                f"rate {self.rate} bits/value is below the format floor of "
                f"{floor_stats.output_bytes * 8 / arr.size:.2f} bits/value"
            )
        t0 = time.perf_counter()
        # Below a few ulps of the largest value no tolerance can be honored
        # (QuantCodec raises), so the search must not descend there.
        floor = 4 * np.finfo(arr.dtype).eps * float(np.abs(arr).max())
        lo, hi = max(tol_hi * 2.0**-60, floor), tol_hi
        blob, stats = floor_blob, floor_stats
        for _ in range(60):
            mid = float(np.sqrt(lo * hi))
            cand_blob, cand_stats = QuantCodec(mid).encode(arr)
            if cand_stats.output_bytes <= target:
                blob, stats = cand_blob, cand_stats
                hi = mid
            else:
                lo = mid
            if hi / lo < 1.0 + 1e-12:
                break
        pad = max(0, target - stats.output_bytes)
        if pad:
            blob = blob + b"\x00" * pad
        final_bytes = stats.output_bytes + pad
        t_c = time.perf_counter() - t0
        return blob, replace(
            stats,
            output_bytes=final_bytes,
            ratio=arr.nbytes / final_bytes,
            t_c=t_c,
        )

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


def lossless_ratio(field: np.ndarray, level: int = 9) -> float:
    """Compression ratio of a general-purpose lossless pass over the raw bytes."""
    raw = np.ascontiguousarray(field).tobytes()
    return len(raw) / len(zlib.compress(raw, level))
