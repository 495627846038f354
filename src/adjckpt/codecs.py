"""Checkpoint compression codecs and the frozen on-disk checkpoint format.

Three codecs cover the compression modes the performance model cares about:

* ``NullCodec``       bit-exact passthrough, ratio 1,
* ``CastCodec``       round trip through the next narrower float width,
  ratio exactly 2 and cheap (both share one raw-payload body),
* ``QuantCodec``      absolute-error-bounded quantization: values snap to a
  lattice of spacing ``1.5 * tolerance`` and each 4**d block stores its base
  index once plus bit-packed per-value offsets of minimal width.  Every
  reconstructed value lies within ``tolerance`` of the input.  A block
  whose values are all equal has width 0 and is its 11-byte header alone;
  encode and decode touch bits only in the other blocks.  Per-value work
  of any kind is done only in *hot* blocks, which hold a value more than
  half a step from 0: encode tells them from each block's largest
  magnitude, and decode writes only blocks of nonzero base or width over
  one fill of the output.  Where blocks are hot changes no byte of the
  format.  Decode first walks the headers, following each width to the
  next header, and then checks every walked header's count, width and
  extent at once.

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
    "get_codec",
    "profile",
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
    """``field`` as an array of one or more axes, in whatever memory order it has."""
    arr = np.atleast_1d(field)
    if arr.dtype not in _DTYPE_CODES:
        raise InvalidArgumentError(f"unsupported dtype {arr.dtype}, use float32/float64")
    if arr.size == 0:
        raise InvalidArgumentError("cannot encode an empty field")
    return arr


def _seal(codec_id: int, arr: np.ndarray, header: bytes, payload: memoryview) -> bytes:
    """The blob of ``arr``: envelope, codec header, payload and checksum, copied once."""
    head = struct.pack("<4sBBBB", _MAGIC, _VERSION, codec_id, _DTYPE_CODES[arr.dtype], arr.ndim)
    shape = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return b"".join((head, shape, header, payload, struct.pack("<I", zlib.crc32(payload))))


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
    if stored != zlib.crc32(memoryview(blob)[payload_start:payload_end]):
        raise CodecDecodeError(payload_start, "payload checksum mismatch")


class _RawCodec:
    """Stores the values themselves, each at the width ``_widths`` maps its dtype to."""

    _id: int
    _widths: dict[np.dtype, type]

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = _require_field(field)
        if not np.all(np.isfinite(arr)):
            raise CodecError("field contains non-finite values")
        # one pass lays the values out in C order, the blob's, at their width
        with np.errstate(over="ignore"):
            stored = arr.astype(self._widths[arr.dtype], order="C", copy=False)
        # the field is finite; only a narrower width can overflow
        if stored.dtype != arr.dtype and not np.all(np.isfinite(stored)):
            raise CodecError("values overflow the narrower float width")
        payload = stored.data.cast("B")
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


def _at_every_byte(buf: np.ndarray, dtype: np.dtype, offset: int = 0) -> np.ndarray:
    """A view of ``buf`` whose item ``i`` is the ``dtype`` value at byte ``i + offset``."""
    return np.ndarray((buf.size - offset - dtype.itemsize + 1,), dtype, buf, offset, (1,))


def _header_field(buf: np.ndarray, name: str) -> np.ndarray:
    """Item ``i`` is field ``name`` of the block header that starts at byte ``i``."""
    return _at_every_byte(buf, *_BLOCK_HEADER.fields[name])


class _Grid(NamedTuple):
    """The 4**d block grid of one shape, in payload order.

    ``perm`` lists the flat indices grouped by block, blocks in C order and
    values row-major inside each (edge blocks are partial); block ``b``
    holds ``perm[starts[b] : starts[b] + counts[b]]``.  ``count_list`` is
    ``counts`` as Python ints, for the header walk.
    """

    perm: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    count_list: tuple[int, ...]


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
    return _Grid(perm, starts, counts, tuple(counts.tolist()))


_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every element of a uint64 array: how many powers of two are <= it."""
    return np.searchsorted(_POW2, x, side="right")


def _block_peaks(bits: np.ndarray) -> np.ndarray:
    """The largest item of each 4**d block of C-ordered ``bits``, blocks in C order.

    Axis by axis, the elementwise maximum of the stride-4 slices that start
    at 0, 1, 2 and 3; where the last block along the axis is partial, the
    later slices are one shorter and skip it.
    """
    for axis in range(bits.ndim):
        lead = (slice(None),) * axis
        peak = bits[lead + (slice(0, None, _BLOCK),)].copy()
        for j in range(1, min(_BLOCK, bits.shape[axis])):
            part = bits[lead + (slice(j, None, _BLOCK),)]
            edge = peak[lead + (slice(part.shape[axis]),)]
            np.maximum(edge, part, out=edge)
        bits = peak
    return bits.ravel()


def _values_of(grid: _Grid, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the values of ``blocks`` lie in block order, and the start and
    count of each block among just those values.

    ``blocks`` ascends; the positions are an index array into ``grid.perm``.
    """
    counts = grid.counts[blocks]
    starts = np.cumsum(counts) - counts
    rows = np.repeat(grid.starts[blocks] - starts, counts)
    rows += np.arange(rows.size)
    return rows, starts, counts


def _wide_values(
    counts: np.ndarray, starts: np.ndarray, at: np.ndarray, nbits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Position, first bit and width of every value whose block has bits.

    Block ``b`` holds ``counts[b]`` values from position ``starts[b]`` on,
    and value j of it takes bits [j*w, (j+1)*w) after its header at byte
    ``at[b]``, low bits first.  Zero-width blocks store no bits, and on
    wavefields most blocks are zero width.
    """
    wide = np.flatnonzero(nbits)
    counts, width = counts[wide], nbits[wide]
    # value j of wide block b is wide value k = first[b] + j, so its first
    # bit is (at[b] + header) * 8 - first[b] * w + k * w
    first = np.cumsum(counts) - counts
    k = np.arange(counts.sum())
    rows = np.repeat(starts[wide] - first, counts)
    rows += k
    w = np.repeat(width, counts)
    bit = np.repeat((at[wide] + _HEAD_BYTES) * 8 - first * width, counts)
    bit += np.multiply(k, w, out=k)
    return rows, bit, w


def _walk(
    blob: bytes, payload_start: int, shape: tuple[int, ...], nblocks: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Header offsets and bit widths of the ``nblocks`` blocks, and the payload's end.

    Each block's start depends on the previous width, so the walk follows
    the widths alone, taking runs of zero-width blocks a slice at a time;
    then every walked header's count, width and extent are checked at once.
    The first failing block raises, at the same offset and for the same
    fault (count, then width, then truncation) as checking block by block.
    """
    size = len(blob)
    # Every block takes at least a header and none holds 2**16 values, so
    # once the blob holds every header the grid is no larger than what a
    # valid blob of this length decodes to.  A blob too short for all the
    # headers fails within the first `reach` blocks: only their counts are
    # built, nothing sized by the (unchecked) shape.
    reach = (size - payload_start) // _HEAD_BYTES + 1
    if reach > nblocks and math.prod(min(_BLOCK, s) for s in shape) < 2**16:
        _, _, counts, count_list = _grid(shape)
    else:
        counts = _block_counts(shape, min(reach, nblocks))
        count_list = counts.tolist()
    widths = bytearray()
    pos, i, n = payload_start, 0, len(counts)
    while i < n and pos + _HEAD_BYTES <= size:
        width = blob[pos + 10]
        if width:
            widths.append(width)
            pos += _HEAD_BYTES + (count_list[i] * width + 7) // 8
            i += 1
        else:
            # Most blocks have width 0: take up to 64 of them at once, as the
            # leading zeros among the width bytes _HEAD_BYTES apart.  The cap
            # keeps each slice short where zero and wide blocks alternate.
            run = blob[pos + 10 : pos + 10 + _HEAD_BYTES * min(n - i, 64) : _HEAD_BYTES]
            zeros = len(run) - len(run.lstrip(b"\0"))
            widths += run[:zeros]
            pos += _HEAD_BYTES * zeros
            i += zeros
    nbits = np.frombuffer(widths, dtype=np.uint8)
    expect = counts[: nbits.size]
    sizes = _HEAD_BYTES + (expect * nbits + 7) // 8
    ends = payload_start + np.cumsum(sizes)
    at = ends - sizes
    stored = _header_field(np.frombuffer(blob, dtype=np.uint8), "count")[at]
    bad = np.flatnonzero((stored != expect) | (nbits > 63) | (ends > size))
    if bad.size:
        first = bad[0]
        head, count, width = int(at[first]), int(stored[first]), int(nbits[first])
        if count != expect[first]:
            raise CodecDecodeError(head, f"block holds {count} values, grid expects {expect[first]}")
        if width > 63:
            raise CodecDecodeError(head + 10, f"corrupt bit width {width}")
        raise CodecDecodeError(head + _HEAD_BYTES, "truncated blob")
    if nbits.size < nblocks:
        raise CodecDecodeError(pos, "truncated blob")
    return at, nbits.astype(np.int64), int(ends[-1])


class QuantCodec:
    """Fixed-tolerance quantizer: absolute error of every value <= tolerance.

    Only *hot* blocks, those holding a value more than half a step from 0,
    get per-value work.  Every other block quantizes to index 0 throughout
    (base 0, width 0): encode learns that, and its error, from the block's
    largest magnitude, and decode leaves it to the one fill of the output.
    """

    name = "quant"

    def __init__(self, tolerance: float):
        if not (tolerance > 0 and np.isfinite(tolerance)):
            raise InvalidArgumentError(f"tolerance must be positive, got {tolerance}")
        self.tolerance = float(tolerance)

    def encode(self, field: np.ndarray) -> tuple[bytes, CodecStats]:
        arr = np.ascontiguousarray(_require_field(field))
        # Lattice spacing 1.5 * tolerance instead of the nominal 2x: the
        # quarter-tolerance margin absorbs float64 reconstruction roundoff,
        # keeping the absolute-error contract exact down to tolerances a
        # few machine epsilons above the value magnitude.
        step = 1.5 * self.tolerance
        grid = _grid(arr.shape)
        # Each block's largest |x|, reduced over the float64 bits as int64:
        # non-negative floats order as their bit patterns do, NaN above inf.
        # The buffer then holds the hot values' quotients.
        work = np.abs(arr, dtype=np.float64)
        peak = _block_peaks(work.view(np.int64)).view(np.float64)
        # Division is monotone, so this is the largest |x / step|.  A NaN or
        # an infinity fails it too; only then is the field searched for one.
        if not float(peak.max()) / step < 2**62:
            if not np.all(np.isfinite(arr)):
                raise CodecError("field contains non-finite values")
            raise CodecError("tolerance too small for the value range")
        # A quiet block rounds to index 0 throughout, so its error is its peak.
        quiet = peak / step <= 0.5
        hot = np.flatnonzero(~quiet)
        rows, starts, counts = _values_of(grid, hot)
        hx = arr.reshape(-1)[grid.perm[rows]]
        scaled = np.divide(hx, step, out=work.reshape(-1)[: hx.size], dtype=np.float64)
        # round-to-even keeps re-encoding a decoded field stable
        np.rint(scaled, out=scaled)
        idx = scaled.astype(np.int64)
        approx = np.multiply(scaled, step, out=scaled).astype(arr.dtype, copy=False)
        hot_err = np.abs(np.subtract(hx, approx, out=approx), out=approx).max(initial=0)
        err = float(max(hot_err, peak[quiet].max(initial=0)))
        if err > self.tolerance:
            raise CodecError(
                f"tolerance {self.tolerance:g} is below what float64 can honor "
                f"for values of magnitude {peak.max():g}"
            )
        if grid.counts.max() >= 2**16:
            raise InvalidArgumentError(f"{arr.ndim}-d blocks overflow the u16 value count")
        base = np.minimum.reduceat(idx, starts)
        width = _bit_length((np.maximum.reduceat(idx, starts) - base).astype(np.uint64))
        nbits = np.zeros(grid.counts.size, dtype=np.int64)
        nbits[hot] = width
        sizes = _HEAD_BYTES + (grid.counts * nbits + 7) // 8
        heads = np.cumsum(sizes) - sizes
        total = int(heads[-1] + sizes[-1])
        # whole words, the last one for the high part of a value that ends the payload
        words = np.zeros(total // 8 + 2, dtype="<u8")
        payload = words.view(np.uint8)[:total]
        # Values own disjoint bits, so adding them into the words they
        # straddle ORs them in.  Only a value that runs past the end of its
        # word has a high part, offset >> (64 - shift), with 64 - shift < 64.
        at = heads[hot]
        vrows, bit, w = _wide_values(counts, starts, at, width)
        idx -= np.repeat(base, counts)
        # offsets and shifts are non-negative: their uint64 views are the values
        offset = idx[vrows].view(np.uint64)
        shift = bit & 63
        word = np.right_shift(bit, 6, out=bit)
        np.add.at(words, word, offset << shift.view(np.uint64))
        spill = np.flatnonzero(shift + w > 64)
        np.add.at(words, word[spill] + 1, offset[spill] >> (64 - shift[spill]).view(np.uint64))
        # a quiet block's base and width are the zeros already there
        _header_field(payload, "count")[heads] = grid.counts
        _header_field(payload, "base")[at] = base
        _header_field(payload, "nbits")[at] = width
        header = struct.pack("<ddI", self.tolerance, step, grid.counts.size)
        blob = _seal(_ID_QUANT, arr, header, payload.data)
        return blob, CodecStats(arr.nbytes, total, arr.nbytes / total, 0.0, 0.0, err)

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
        at, nbits, end = _walk(blob, payload_start, shape, nblocks)
        grid = _grid(shape)
        _check_crc(blob, payload_start, end)
        tail = blob[end + 4 :]
        # zero padding after the checksum stays legal: blobs written when an
        # encoder padded to a fixed size must still decode
        if tail and any(tail):
            raise CodecDecodeError(end + 4, "trailing bytes after checksum")
        # zero padding keeps each value's 9-byte read inside the buffer
        buf = np.frombuffer(b"".join((blob, bytes(8))), dtype=np.uint8)
        base = _header_field(buf, "base")[at]
        # a block of base 0 and width 0 decodes to 0 * step throughout, which
        # the one fill writes (-0.0 if a blob's header carries a negative step)
        live = np.flatnonzero(base | nbits)
        rows, starts, counts = _values_of(grid, live)
        at, nbits = at[live], nbits[live]
        idx = np.repeat(base[live], counts)
        vrows, bit, width = _wide_values(counts, starts, at, nbits)
        byte, shift = bit >> 3, bit & 7
        # a value starts at bit `shift` of its little-endian 64-bit word; with
        # a width above 56 its top bits can spill into the byte after that
        # word, shifted up by 64 - shift < 64
        value = _at_every_byte(buf, np.dtype("<u8"))[byte] >> shift.view(np.uint64)
        spill = np.flatnonzero(shift + width > 64)
        high = buf[byte[spill] + 8].astype(np.uint64)
        value[spill] |= high << (64 - shift[spill]).view(np.uint64)
        # widths are at most 63, so every masked value is an int64 as it is
        value &= (np.uint64(1) << width.view(np.uint64)) - np.uint64(1)
        idx[vrows] += value.view(np.int64)
        out = np.full(grid.perm.size, 0.0 * step, dtype=dtype)
        out[grid.perm[rows]] = idx * step
        return out.reshape(shape)


Codec = NullCodec | CastCodec | QuantCodec


def get_codec(name: str, tolerance: float | None = None) -> Codec:
    if name == "null":
        return NullCodec()
    if name == "cast":
        return CastCodec()
    if name == "quant":
        if tolerance is None:
            raise InvalidArgumentError("quant codec needs a tolerance")
        return QuantCodec(tolerance)
    raise InvalidArgumentError(f"unknown codec {name!r} (choose null, cast, quant)")


def profile(codec: Codec, field: np.ndarray, repetitions: int = 5) -> CodecStats:
    """Average encode/decode timings over ``repetitions`` round trips.

    An untimed round trip comes first, and only its blob is kept.  Keeping
    every blob, or timing the first call, would make each timed round trip
    fault in fresh pages, which a checkpoint sweep's recycled memory does
    not: that read cast decode at about twice its in-sweep time.
    """
    if repetitions < 1:
        raise InvalidArgumentError("repetitions must be >= 1")
    arr = _require_field(field)
    first = codec.encode(arr)[0]
    codec.decode(first)
    t_enc = t_dec = 0.0
    stats = None
    for _ in range(repetitions):
        t0 = time.perf_counter()
        blob, stats = codec.encode(arr)
        t_enc += time.perf_counter() - t0
        t0 = time.perf_counter()
        out = codec.decode(blob)
        t_dec += time.perf_counter() - t0
        if blob != first:
            raise CodecError("codec produced non-deterministic bytes across repetitions")
    err = float(np.abs(arr.astype(np.float64) - out.astype(np.float64)).max(initial=0.0))
    return replace(stats, t_c=t_enc / repetitions, t_d=t_dec / repetitions, max_abs_error=err)
