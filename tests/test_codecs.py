import hashlib
import itertools
import math
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from adjckpt import codecs
from adjckpt import driver
from adjckpt.errors import CodecDecodeError, CodecError, InvalidArgumentError


@pytest.fixture(scope="module")
def wavefield():
    """A propagated snapshot: long enough that the wave fills the domain."""
    params = driver.homogeneous_params((48, 40), nt=160)
    stepper = driver.WaveStepper(params)
    state = stepper.initial_state()
    for i in range(params.nt):
        state = stepper.forward(state, i)
    return state[1]


class TestNullCodec:
    def test_bit_exact_round_trip(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(13, 7))
        codec = codecs.NullCodec()
        blob, stats = codec.encode(x)
        assert np.array_equal(codec.decode(blob), x)
        assert stats.ratio == 1.0
        assert stats.max_abs_error == 0.0

    def test_float32_supported(self):
        x = np.random.default_rng(0).normal(size=17).astype(np.float32)
        codec = codecs.NullCodec()
        assert np.array_equal(codec.decode(codec.encode(x)[0]), x)


class TestCastCodec:
    def test_ratio_exactly_two(self):
        x = np.random.default_rng(1).normal(size=(21, 5))
        blob, stats = codecs.CastCodec().encode(x)
        assert stats.ratio == 2.0
        assert stats.output_bytes * 2 == stats.input_bytes

    def test_round_trip_through_narrow_width(self):
        x = np.random.default_rng(2).normal(size=64)
        codec = codecs.CastCodec()
        y = codec.decode(codec.encode(x)[0])
        assert np.array_equal(y, x.astype(np.float32).astype(np.float64))

    def test_overflow_raises_codec_error_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CodecError):
                codecs.CastCodec().encode(np.array([1.0, 1e300]))


TOLERANCE_LADDER = [10.0**-e for e in range(0, 16)]


@st.composite
def _sparse_fields(draw):
    """A zero field with one to three boxes of nonzero values in it."""
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=14))
    x = np.zeros(shape)
    for _ in range(draw(st.integers(1, 3))):
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        hi = [draw(st.integers(a + 1, min(s, a + 5))) for a, s in zip(lo, shape)]
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        x[box] = draw(
            arrays(np.float64, x[box].shape, elements=st.floats(-1e6, 1e6, width=64))
        )
    return x


class TestQuantCodec:
    @pytest.mark.parametrize("rel_tol", TOLERANCE_LADDER)
    def test_error_bound_across_ladder(self, rel_tol):
        rng = np.random.default_rng(int(-np.log10(rel_tol)))
        for x in (
            rng.uniform(-3, 3, size=97),
            rng.normal(size=(9, 14)),
            np.sin(np.linspace(0, 9, 200)) * 2.5,
        ):
            tol = rel_tol * np.abs(x).max()
            codec = codecs.QuantCodec(tol)
            blob, stats = codec.encode(x)
            y = codec.decode(blob)
            assert np.abs(x - y).max() <= tol
            assert stats.max_abs_error <= tol

    def test_idempotent_round_trip(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(11, 23)) * 40.0
        codec = codecs.QuantCodec(1e-5)
        y = codec.decode(codec.encode(x)[0])
        y2 = codec.decode(codec.encode(y)[0])
        assert np.array_equal(y, y2)

    def test_smooth_beats_noise(self):
        rng = np.random.default_rng(6)
        t = np.linspace(0, 4 * np.pi, 2048)
        smooth = np.sin(t) + 0.2 * np.cos(3 * t)
        noise = rng.uniform(-1, 1, size=2048)
        tol = 1e-4
        r_smooth = codecs.QuantCodec(tol).encode(smooth)[1].ratio
        r_noise = codecs.QuantCodec(tol).encode(noise)[1].ratio
        assert r_smooth > r_noise

    def test_wavefield_ratio_recorded(self, wavefield):
        tol = 1e-4 * np.abs(wavefield).max()
        stats = codecs.QuantCodec(tol).encode(wavefield)[1]
        assert stats.ratio > 1.5
        again = codecs.QuantCodec(tol).encode(wavefield)[1]
        assert again.ratio == stats.ratio

    def test_rejects_zero_tolerance(self):
        with pytest.raises(InvalidArgumentError):
            codecs.QuantCodec(0.0)

    def test_rejects_non_finite_fields(self):
        # alone in a quiet block, and beside values that make its block hot
        every_codec = (codecs.QuantCodec(1e-3), codecs.NullCodec(), codecs.CastCodec())
        for bad, dtype, codec in itertools.product(
            (np.nan, -np.nan, np.inf, -np.inf), (np.float64, np.float32), every_codec
        ):
            for x in (np.array([0.0, bad]), np.array([0.0, 1.0, 5.0, bad, 0.0, 7.0])):
                with pytest.raises(CodecError, match="field contains non-finite values"):
                    codec.encode(x.astype(dtype))

    def test_finite_values_beyond_the_index_range_are_a_tolerance_fault(self):
        # 1e300 / 1.5e-10 overflows to inf, yet the field itself is finite
        with pytest.raises(CodecError, match="tolerance too small"):
            codecs.QuantCodec(1e-10).encode(np.array([0.0, 1e300, -2.0]))

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        ),
        st.sampled_from([1e-1, 1e-4, 1e-8]),
    )
    @example(x=np.array([5e-324]), rel_tol=0.1)
    @settings(max_examples=60, deadline=None)
    def test_property_error_bound(self, x, rel_tol):
        _assert_round_trip_within_tolerance(x, rel_tol)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=9),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        ),
        st.sampled_from([1e-1, 1e-4, 1e-8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_error_bound_3d(self, x, rel_tol):
        _assert_round_trip_within_tolerance(x, rel_tol)


    @given(_sparse_fields(), st.sampled_from([1e-1, 1e-4, 1e-8]))
    @settings(max_examples=60, deadline=None)
    def test_property_error_bound_sparse(self, x, rel_tol):
        # mostly zero-width blocks beside a few wide ones, like early wavefields
        _assert_round_trip_within_tolerance(x, rel_tol)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        ),
        st.sampled_from([1e-1, 1e-4, 1e-8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_payload_matches_blockwise_reference(self, x, rel_tol):
        tol = max(rel_tol * np.abs(x).max(), 1e-3)
        blob = codecs.QuantCodec(tol).encode(x)[0]
        envelope = 8 + 4 * x.ndim + 20
        assert blob[envelope:-4] == _reference_quant_payload(x, tol)

    def test_bit_length_matches_int(self):
        values = [0, 1, 2, 3, 4, 255, 256] + [
            2**k + d for k in (31, 52, 53, 54, 62) for d in (-1, 0, 1)
        ]
        got = codecs._bit_length(np.array(values, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() for v in values]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape",
        [(1,), (3,), (4,), (9,), (2, 3), (5, 7), (8, 4), (2, 9, 5), (4, 1, 6), (3, 5, 2, 6), (1, 2, 1, 3)],
    )
    def test_block_peaks_match_gathered_reduceat(self, shape, dtype):
        # partial edge blocks and axes shorter than a block, with the
        # non-finite values last, in the grid's last (often partial) block
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        x = rng.normal(size=shape).astype(dtype)
        x[rng.random(shape) < 0.5] = 0.0
        grid = codecs._grid(shape)
        for bad in (None, np.nan, -np.nan, np.inf, -np.inf):
            if bad is not None:
                x.flat[-1] = bad
            bits = np.abs(x, dtype=np.float64).view(np.int64)
            want = np.maximum.reduceat(bits.ravel()[grid.perm], grid.starts)
            assert codecs._block_peaks(bits).tolist() == want.tolist()
            if bad is not None:
                with pytest.raises(CodecError, match="field contains non-finite values"):
                    codecs.QuantCodec(1e-3).encode(x)


def _reference_quant_payload(x, tol):
    """The quant payload spelled out one 4**d block at a time."""
    idx = np.round(x / (1.5 * tol)).astype(np.int64)
    parts = []
    for starts in itertools.product(*(range(0, s, 4) for s in x.shape)):
        blk = idx[tuple(slice(a, a + 4) for a in starts)].ravel()
        base = int(blk.min())
        nbits = (int(blk.max()) - base).bit_length()
        bits = [(int(v) - base) >> i & 1 for v in blk for i in range(nbits)]
        parts.append(struct.pack("<HqB", blk.size, base, nbits))
        parts.append(np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes())
    return b"".join(parts)


def _assert_round_trip_within_tolerance(x, rel_tol):
    scale = np.abs(x).max()
    # rel_tol * scale underflows to 0.0 for a subnormal field
    tol = max(rel_tol * scale, np.finfo(float).tiny) if scale > 0 else rel_tol
    codec = codecs.QuantCodec(tol)
    blob = codec.encode(x)[0]
    y = codec.decode(blob)
    assert y.shape == x.shape
    assert np.abs(x - y).max(initial=0.0) <= tol
    assert codec.encode(x)[0] == blob
    # the decoded field lies on the lattice, so it re-encodes to the same blob
    assert codec.encode(y)[0] == blob


class TestFormat:
    def test_truncated_blob_reports_offset(self):
        x = np.arange(60, dtype=float)
        blob, _ = codecs.NullCodec().encode(x)
        with pytest.raises(CodecDecodeError) as err:
            codecs.NullCodec().decode(blob[: len(blob) // 2])
        assert err.value.offset >= 0

    def test_corrupted_payload_detected(self):
        x = np.arange(60, dtype=float)
        blobetc = bytearray(codecs.NullCodec().encode(x)[0])
        blobetc[40] ^= 0x5A
        with pytest.raises(CodecDecodeError):
            codecs.NullCodec().decode(bytes(blobetc))

    def test_wrong_magic_rejected_at_offset_zero(self):
        x = np.arange(8, dtype=float)
        blob = codecs.NullCodec().encode(x)[0]
        with pytest.raises(CodecDecodeError) as err:
            codecs.NullCodec().decode(b"ZZZZ" + blob[4:])
        assert err.value.offset == 0

    def test_codec_mismatch_rejected(self):
        x = np.arange(8, dtype=float)
        blob = codecs.NullCodec().encode(x)[0]
        with pytest.raises(CodecDecodeError):
            codecs.QuantCodec(1e-3).decode(blob)

    def test_quant_corruption_detected(self):
        x = np.random.default_rng(9).normal(size=(16, 16))
        blob = bytearray(codecs.QuantCodec(1e-6).encode(x)[0])
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(CodecDecodeError):
            codecs.QuantCodec(1e-6).decode(bytes(blob))

    # sha256 of each blob, recorded before the quantizer was vectorised: the
    # blob format is frozen, so these must never change
    GOLDEN = {
        "1d-97": "a65c58021b63fc0422e31ce1d979fa9dc45d58100a1916850555ce804e888c02",
        "2d-9x14": "efb3160d886ef971374bcf844bf38d56efea49a3a3adb3f13a1fa3138679dccd",
        "3d-2x10x13": "ffff141f63cc208f6b6676db8aed52e839eea940df51790af491b399aa3eae10",
        "float32": "c936eb812303da9922f824a2c4a4c321e1aacd3d111289cc7d2041056365c6fe",
        "zeros": "ea30c22cd66b3d39aaab6aa0107a0750ece625a98e8fdaf6093509024f22948d",
    }

    def test_quant_blobs_byte_stable(self):
        rng = np.random.default_rng(2024)
        cases = [
            ("1d-97", codecs.QuantCodec(1e-3), rng.uniform(-3, 3, size=97)),
            ("2d-9x14", codecs.QuantCodec(1e-5), rng.normal(size=(9, 14))),
            ("3d-2x10x13", codecs.QuantCodec(1e-6), rng.normal(size=(2, 10, 13)) * 40.0),
            ("float32", codecs.QuantCodec(1e-3), rng.normal(size=(6, 11)).astype(np.float32)),
            # every block has nbits = 0
            ("zeros", codecs.QuantCodec(1e-3), np.zeros((7, 5))),
        ]
        for name, codec, x in cases:
            digest = hashlib.sha256(codec.encode(x)[0]).hexdigest()
            assert digest == self.GOLDEN[name], name

    # sha256 of quant blobs of an early and a late state of a small wave
    # run, recorded before zero-width blocks skipped the bit packer: these
    # states mix zero-width and wide blocks, and 38x41 has partial edge blocks
    SPARSE_GOLDEN = {
        (12, "float64"): "ac14c68a1ba3edd7f67a24c5cf225358f0aa71a563a5b39a6477bb3a3cfdc460",
        (12, "float32"): "6edda270a5e23f58335afb12b56f634d62f1c4b08fa248f4de49ce1bbaf398cd",
        (48, "float64"): "5154a153821a15f5ac5a5b420db859c8951a0c7905cc1654dceff86859147f69",
        (48, "float32"): "dede366af530589f1490f8474b806845cedb979819118e63f30664f648fc4f32",
    }

    def test_sparse_wavefield_quant_blobs_byte_stable(self):
        params = driver.homogeneous_params((38, 41), nt=48)
        stepper = driver.WaveStepper(params)
        state = stepper.initial_state()
        digests = {}
        for i in range(params.nt):
            state = stepper.forward(state, i)
            if i + 1 in (12, 48):
                for dtype, tol in ((np.float64, 1e-6), (np.float32, 1e-4)):
                    blob = codecs.QuantCodec(tol).encode(state.astype(dtype))[0]
                    digests[i + 1, np.dtype(dtype).name] = hashlib.sha256(blob).hexdigest()
        assert digests == self.SPARSE_GOLDEN

    # sha256 of each raw-payload blob, recorded before NullCodec and CastCodec
    # shared one body
    RAW_GOLDEN = {
        ("null", "float64"): "3ac571637f67b7b86c9361d82bcdf4645d4e50b0a43576a237b245a9c9d12ec4",
        ("null", "float32"): "c6ddcb6db5602edae048965d5e82c53cf1d09d056d810d9f933536c859b96d7e",
        ("cast", "float64"): "282a9160a4b3fa8350d3973ea5dd40d70e950a2457969ad279df0035aa2c8fad",
        ("cast", "float32"): "52e697c480340aacbf06cfd8e60d91d0454dc439606fd58a82c5c5f0b3e2604e",
    }

    def test_raw_blobs_byte_stable(self):
        rng = np.random.default_rng(2025)
        x64 = rng.normal(size=(2, 10, 13)) * 40.0
        fields = [x64, rng.normal(size=(2, 10, 13)).astype(np.float32)]
        for codec in (codecs.NullCodec(), codecs.CastCodec()):
            for x in fields:
                digest = hashlib.sha256(codec.encode(x)[0]).hexdigest()
                assert digest == self.RAW_GOLDEN[codec.name, x.dtype.name], (codec.name, x.dtype)

    def test_raw_corrupt_shape_rejected(self):
        # the element count of this shape wraps a 64-bit product
        for codec in (codecs.NullCodec(), codecs.CastCodec()):
            blob = bytearray(codec.encode(np.ones((2, 3)))[0])
            blob[8:16] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
            with pytest.raises(CodecDecodeError):
                codec.decode(bytes(blob))


# Layout of a quant blob of an 8x8 field: envelope 8 + 2*4 bytes, then the
# header tolerance f64 @16, step f64 @24, nblocks u32 @32, then the payload's
# four 16-value blocks, each a <HqB header (count, base, nbits) and its bits.
_STEP_AT, _NBLOCKS_AT, _PAYLOAD_AT = 24, 32, 36


def _quant_blob_8x8():
    x = np.random.default_rng(12).normal(size=(8, 8))
    return bytearray(codecs.QuantCodec(1e-6).encode(x)[0])


def _decode_error(blob):
    with pytest.raises(CodecDecodeError) as err:
        codecs.QuantCodec(1e-6).decode(bytes(blob))
    return err.value


class TestQuantDecodeErrors:
    def test_nblocks_above_grid_rejected(self):
        blob = _quant_blob_8x8()
        blob[_NBLOCKS_AT : _NBLOCKS_AT + 4] = (999).to_bytes(4, "little")
        assert _decode_error(blob).offset == _NBLOCKS_AT

    def test_nblocks_below_grid_rejected(self):
        blob = _quant_blob_8x8()
        blob[_NBLOCKS_AT : _NBLOCKS_AT + 4] = (3).to_bytes(4, "little")
        _decode_error(blob)

    def test_empty_shape_rejected(self):
        # an empty shape has an empty grid, which nblocks 0 matches; a large
        # second axis would make the grid allocation huge
        blob = _quant_blob_8x8()
        blob[8:16] = struct.pack("<II", 0, 5)
        blob[_NBLOCKS_AT : _NBLOCKS_AT + 4] = bytes(4)
        assert _decode_error(blob).offset == 8

    def test_corrupt_step_rejected(self):
        # the codec header lies outside the checksum
        blob = _quant_blob_8x8()
        blob[_STEP_AT + 7] ^= 0x01
        assert _decode_error(blob).offset == _STEP_AT

    def test_block_value_count_mismatch_rejected(self):
        blob = _quant_blob_8x8()
        blob[_PAYLOAD_AT] = 15
        assert _decode_error(blob).offset == _PAYLOAD_AT

    def test_bit_width_above_63_rejected(self):
        blob = _quant_blob_8x8()
        blob[_PAYLOAD_AT + 10] = 64
        assert _decode_error(blob).offset == _PAYLOAD_AT + 10

    def test_truncated_mid_block_rejected(self):
        blob = _quant_blob_8x8()
        bits_at = _PAYLOAD_AT + 11
        bits_end = bits_at + (16 * blob[_PAYLOAD_AT + 10] + 7) // 8
        assert bits_end > bits_at + 1
        cuts = ((bits_end - 1, bits_at), (bits_at + 1, bits_at), (_PAYLOAD_AT + 5, _PAYLOAD_AT))
        for cut, offset in cuts:
            err = _decode_error(blob[:cut])
            assert err.offset == offset
            assert "truncated" in str(err)

    def test_nonzero_bytes_after_checksum_rejected(self):
        blob = _quant_blob_8x8()
        end = len(blob)
        assert _decode_error(blob + b"\x00\x07").offset == end

    def test_block_too_large_for_u16_count_fails_before_grid(self):
        # An 11-d shape of side 4 is one block of 4**11 values, which no u16
        # count can match.  The header fails before anything sized by the
        # shape is built: its grid alone would take 32 MiB.
        shape = (4,) * 11
        payload = struct.pack("<HqB", 0, 0, 0)
        blob = b"".join((
            struct.pack(f"<4sBBBB{len(shape)}I", b"ACKP", 1, 2, 0, len(shape), *shape),
            struct.pack("<ddI", 1e-6, 1.5e-6, 1),
            payload,
            struct.pack("<I", zlib.crc32(payload)),
        ))
        tracemalloc.start()
        try:
            err = _decode_error(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.offset == 8 + 4 * len(shape) + 20
        assert "grid expects 4194304" in err.reason
        assert peak < 2**20

    def test_zero_padding_after_checksum_accepted(self):
        blob = _quant_blob_8x8()
        codec = codecs.QuantCodec(1e-6)
        assert np.array_equal(codec.decode(bytes(blob + b"\x00" * 9)), codec.decode(bytes(blob)))


def _reference_quant_decode(blob):
    """The quant decoder that checks one block header at a time, then unpacks
    bits per (count, width) group of blocks.

    ``QuantCodec.decode`` must match it field for field and, on a corrupt
    blob, error offset for error offset.
    """
    C = codecs
    dtype, shape, header_at = C._open_envelope(blob, C._ID_QUANT)
    (tolerance, step, nblocks), payload_start = C._take("<ddI", blob, header_at)
    if step != 1.5 * tolerance:
        raise CodecDecodeError(header_at + 8, f"step {step!r} != 1.5 * tolerance {tolerance!r}")
    grid_blocks = math.prod(-(-s // C._BLOCK) for s in shape)
    if nblocks != grid_blocks:
        raise CodecDecodeError(header_at + 16, f"{nblocks} blocks, the grid has {grid_blocks}")
    if not grid_blocks:
        raise CodecDecodeError(8, "shape has an axis of length 0")
    at = []
    pos, size = payload_start, len(blob)
    reach = min(nblocks, (size - payload_start) // C._HEAD_BYTES + 1)
    for expect in C._block_counts(shape, reach).tolist():
        if pos + C._HEAD_BYTES > size:
            raise CodecDecodeError(pos, "truncated blob")
        count, nbits = blob[pos] | blob[pos + 1] << 8, blob[pos + 10]
        if count != expect:
            raise CodecDecodeError(pos, f"block holds {count} values, grid expects {expect}")
        if nbits > 63:
            raise CodecDecodeError(pos + 10, f"corrupt bit width {nbits}")
        at.append(pos)
        pos += C._HEAD_BYTES + (count * nbits + 7) // 8
        if pos > size:
            raise CodecDecodeError(at[-1] + C._HEAD_BYTES, "truncated blob")
    grid = C._grid(shape)
    C._check_crc(blob, payload_start, pos)
    tail = blob[pos + 4 :]
    if tail and any(tail):
        raise CodecDecodeError(pos + 4, "trailing bytes after checksum")
    buf = np.frombuffer(blob, dtype=np.uint8)
    at = np.array(at, dtype=np.int64)
    head = buf[at[:, None] + np.arange(C._HEAD_BYTES)].view(C._BLOCK_HEADER)[:, 0]
    offsets = np.zeros((grid.perm.size, 8), dtype=np.uint8)
    widths = head["nbits"].astype(np.int64)
    keys = widths << 16 | grid.counts
    for key in np.unique(keys[widths > 0]).tolist():
        count, width, blocks = key & 0xFFFF, key >> 16, np.flatnonzero(keys == key)
        nbytes = (count * width + 7) // 8
        raw = buf[(at[blocks] + C._HEAD_BYTES)[:, None] + np.arange(nbytes)]
        bits = np.unpackbits(raw, axis=-1, count=count * width, bitorder="little")
        value_bytes = np.packbits(bits.reshape(-1, width), axis=-1, bitorder="little")
        rows = grid.starts[blocks][:, None] + np.arange(count)
        offsets[rows.ravel(), : value_bytes.shape[1]] = value_bytes
    offsets = offsets.view("<u8")[:, 0].astype(np.int64)
    flat = (np.repeat(head["base"], grid.counts) + offsets) * step
    out = np.empty(grid.perm.size, dtype=np.float64)
    out[grid.perm] = flat
    return out.reshape(shape).astype(dtype)


def _reference_quant_encode(field, tolerance):
    """The dense quant encoder: every value is divided, rounded and checked,
    and bases and widths are reduced over every block.

    ``QuantCodec.encode`` must match it byte for byte, ``CodecStats`` for
    ``CodecStats`` and error for error.
    """
    C = codecs
    arr = np.ascontiguousarray(field)
    if not np.all(np.isfinite(arr)):
        raise CodecError("field contains non-finite values")
    step = 1.5 * tolerance
    grid = C._grid(arr.shape)
    x = arr.ravel()[grid.perm]
    scaled = np.divide(x, step, dtype=np.float64)
    if max(scaled.max(), -scaled.min()) >= 2**62:
        raise CodecError("tolerance too small for the value range")
    np.rint(scaled, out=scaled)
    idx = scaled.astype(np.int64)
    approx = np.multiply(scaled, step, out=scaled).astype(arr.dtype, copy=False)
    err = float(np.abs(np.subtract(x, approx, out=approx), out=approx).max())
    if err > tolerance:
        raise CodecError(
            f"tolerance {tolerance:g} is below what float64 can honor "
            f"for values of magnitude {np.abs(arr).max():g}"
        )
    base = np.minimum.reduceat(idx, grid.starts)
    nbits = C._bit_length((np.maximum.reduceat(idx, grid.starts) - base).astype(np.uint64))
    sizes = C._HEAD_BYTES + (grid.counts * nbits + 7) // 8
    at = np.cumsum(sizes) - sizes
    total = int(at[-1] + sizes[-1])
    words = np.zeros(total // 8 + 2, dtype="<u8")
    payload = words.view(np.uint8)[:total]
    wide = np.flatnonzero(nbits)
    counts = grid.counts[wide]
    block = np.repeat(wide, counts)
    rank = np.arange(block.size) - np.repeat(np.cumsum(counts) - counts, counts)
    bit = (at[block] + C._HEAD_BYTES) * 8 + rank * nbits[block]
    offset = (idx[grid.starts[block] + rank] - base[block]).astype(np.uint64)
    word, shift = bit >> 6, (bit & 63).astype(np.uint64)
    np.add.at(words, word, offset << shift)
    np.add.at(words, word + 1, offset >> 1 >> 63 - shift)
    C._header_field(payload, "count")[at] = grid.counts
    C._header_field(payload, "base")[at] = base
    C._header_field(payload, "nbits")[at] = nbits
    header = struct.pack("<ddI", tolerance, step, len(base))
    blob = C._seal(C._ID_QUANT, arr, header, payload.data)
    return blob, C.CodecStats(arr.nbytes, total, arr.nbytes / total, 0.0, 0.0, err)


@st.composite
def _block_mix_fields(draw):
    """A 1-3 d field whose 4**d blocks are each all zero, quiet (within half
    a step of 0, ties at exactly +-step/2 included), one nonzero constant
    (width 0, base not 0) or wide; with four blocks or more, every kind."""
    shape = draw(array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=13))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    tolerance = draw(st.sampled_from([1e-7, 1e-4, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = 1.5 * tolerance
    x = np.zeros(shape)
    blocks = list(itertools.product(*(range(0, s, 4) for s in shape)))
    kinds = rng.permutation(np.arange(len(blocks)) % 4)
    for starts, kind in zip(blocks, kinds):
        box = tuple(slice(a, a + 4) for a in starts)
        n = x[box].size
        if kind == 1:
            quiet = rng.uniform(-0.5, 0.5, n) * step
            quiet[rng.random(n) < 0.3] = rng.choice([-0.5, 0.5]) * step
            x[box] = quiet.reshape(x[box].shape)
        elif kind == 2:
            x[box] = rng.choice([-1, 1]) * rng.uniform(0.6, 1e4) * step
        elif kind == 3:
            x[box] = rng.normal(size=x[box].shape) * 10.0 ** rng.integers(0, 7) * step
    return x.astype(dtype), tolerance


def _encode_outcome(encode, x):
    """What encoding ``x`` gives: the blob and stats, or the error and its text."""
    try:
        return encode(x)
    except (CodecError, InvalidArgumentError) as err:
        return type(err), str(err)


def _block_header_offsets(blob, ndim):
    """Where each block header of a valid quant blob starts."""
    pos, heads = 8 + 4 * ndim + 20, []
    while pos < len(blob) - 4:
        heads.append(pos)
        pos += 11 + ((blob[pos] | blob[pos + 1] << 8) * blob[pos + 10] + 7) // 8
    return heads


def _decode_outcome(decode, blob):
    """What decoding ``blob`` gives: the field, or where and why it failed."""
    try:
        y = decode(blob)
    except CodecDecodeError as err:
        return "error", err.offset, err.reason
    return "field", y.dtype.name, y.shape, y.tobytes()


class TestQuantDecodeParity:
    def test_widths_57_to_63_decode(self):
        # No encoder output has widths this large, yet they are legal and
        # are where a value's bits spill past the 64-bit word read at its
        # first byte.  Seven 16-value blocks of a 4x28 field, widths 57..63.
        rng = np.random.default_rng(57)
        payload = []
        expected = np.empty((4, 28), dtype=np.int64)
        for b, width in enumerate(range(57, 64)):
            base = -(2**62) + b
            offsets = [int(v) for v in rng.integers(0, 2**width, size=16, dtype=np.uint64)]
            offsets[5] |= 1 << (width - 1)
            bits = [v >> i & 1 for v in offsets for i in range(width)]
            payload.append(struct.pack("<HqB", 16, base, width))
            payload.append(np.packbits(np.array(bits, dtype=np.uint8), bitorder="little").tobytes())
            expected[:, 4 * b : 4 * b + 4] = (base + np.array(offsets)).reshape(4, 4)
        header = struct.pack("<ddI", 1.0, 1.5, 7)
        blob = codecs._seal(codecs._ID_QUANT, expected.astype(float), header, b"".join(payload))
        y = codecs.QuantCodec(1.0).decode(blob)
        assert y.tobytes() == _reference_quant_decode(blob).tobytes()
        assert np.array_equal(y, expected * 1.5)

    def test_zero_blocks_follow_the_header_step(self):
        # The header lies outside the checksum, so a blob may carry any step
        # that is 1.5 * tolerance; index 0 then decodes to 0 * step, which
        # is -0.0 for a negative step.
        x = np.zeros((8, 8))
        x[:4, :4] = np.random.default_rng(8).normal(size=(4, 4))
        blob = bytearray(codecs.QuantCodec(1e-3).encode(x)[0])
        blob[_STEP_AT - 8 : _NBLOCKS_AT] = struct.pack("<dd", -1e-3, -1.5e-3)
        y = codecs.QuantCodec(1e-3).decode(bytes(blob))
        assert y.tobytes() == _reference_quant_decode(bytes(blob)).tobytes()

    def test_fuzzed_blobs_match_reference_decoder(self):
        # truncations, single-bit flips and appended bytes of 1-3 d quant
        # blobs, sparse and dense, float32 and float64
        rng = np.random.default_rng(314)
        codec = codecs.QuantCodec(1e-3)
        checked = outcomes = 0
        for case in range(60):
            shape = tuple(rng.integers(1, 14, size=rng.integers(1, 4)).tolist())
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3)
            if case % 2:
                x *= rng.random(shape) < 0.1
            x = x.astype(np.float32 if case % 3 == 0 else np.float64)
            blob = codec.encode(x)[0]
            variants = [blob, blob + bytes(rng.integers(1, 9))]
            variants.append(blob + bytes([0, int(rng.integers(1, 256))]))
            variants += [blob[: int(cut)] for cut in rng.integers(0, len(blob), size=3)]
            # flips anywhere, then flips in a block header's count or width
            bits = rng.integers(0, 8 * len(blob), size=4).tolist()
            heads = _block_header_offsets(blob, x.ndim)
            for _ in range(3):
                at = heads[rng.integers(len(heads))] + int(rng.choice([0, 1, 10]))
                bits.append(8 * at + int(rng.integers(8)))
            for bit in bits:
                flipped = bytearray(blob)
                flipped[bit // 8] ^= 1 << bit % 8
                variants.append(bytes(flipped))
            for v in variants:
                want = _decode_outcome(_reference_quant_decode, v)
                assert _decode_outcome(codec.decode, v) == want, (case, len(v))
                checked += 1
                outcomes += want[0] == "error"
        assert checked >= 700
        # the mutations must reach the decoder's checks, not only its happy path
        assert 0.5 * checked < outcomes < checked


class TestQuantEncodeParity:
    @given(_block_mix_fields())
    # float64 spacing near 1 is above the tolerance: both raise alike
    @example(case=(np.array([0.0, 1.3, -0.7]), 2e-16))
    @example(case=(np.eye(4, 8, 5) * 1.3, 2e-16))
    @seed(20)
    @settings(max_examples=150, deadline=None)
    def test_blobs_and_stats_match_reference_encoder(self, case):
        x, tolerance = case
        codec = codecs.QuantCodec(tolerance)
        got = _encode_outcome(codec.encode, x)
        assert got == _encode_outcome(lambda y: _reference_quant_encode(y, tolerance), x)
        if isinstance(got[0], bytes):
            want = _reference_quant_decode(got[0])
            y = codec.decode(got[0])
            assert (y.dtype, y.shape, y.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestProfile:
    def test_deterministic_bytes_and_full_stats(self):
        x = np.random.default_rng(10).normal(size=(24, 24))
        stats = codecs.profile(codecs.QuantCodec(1e-5), x, repetitions=3)
        assert stats.t_c > 0 and stats.t_d > 0
        assert stats.max_abs_error <= 1e-5

    def test_non_deterministic_bytes_raise(self):
        class Drifting:
            calls = 0

            def encode(self, field):
                self.calls += 1
                return codecs.NullCodec().encode(field + self.calls)

            def decode(self, blob):
                return codecs.NullCodec().decode(blob)

        with pytest.raises(CodecError):
            codecs.profile(Drifting(), np.zeros(8), repetitions=1)

    def test_get_codec_dispatch(self):
        assert isinstance(codecs.get_codec("null"), codecs.NullCodec)
        assert isinstance(codecs.get_codec("cast"), codecs.CastCodec)
        assert isinstance(codecs.get_codec("quant", tolerance=1e-3), codecs.QuantCodec)
        with pytest.raises(InvalidArgumentError):
            codecs.get_codec("quant")
        for name in ("zfp", "rate"):
            with pytest.raises(InvalidArgumentError):
                codecs.get_codec(name)
