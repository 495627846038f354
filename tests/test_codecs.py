import numpy as np
import pytest
from hypothesis import example, given, settings
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


TOLERANCE_LADDER = [10.0**-e for e in range(0, 16)]


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
        codec = codecs.QuantCodec(1e-3)
        with pytest.raises(CodecError):
            codec.encode(np.array([0.0, np.nan]))

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
        scale = np.abs(x).max()
        # rel_tol * scale underflows to 0.0 for a subnormal field
        tol = max(rel_tol * scale, np.finfo(float).tiny) if scale > 0 else rel_tol
        codec = codecs.QuantCodec(tol)
        y = codec.decode(codec.encode(x)[0])
        assert np.abs(x - y).max(initial=0.0) <= tol


@pytest.fixture(scope="module")
def early_wavefield():
    """A sparse snapshot 12 steps in: the wave covers a few percent of the grid."""
    params = driver.homogeneous_params((64, 64), nt=40)
    stepper = driver.WaveStepper(params)
    state = stepper.initial_state()
    for i in range(12):
        state = stepper.forward(state, i)
    return state[1]


class TestFixedRateCodec:
    @pytest.mark.parametrize("rate", [6.0, 8.0, 16.0])
    def test_hits_target_within_five_percent(self, rate, early_wavefield):
        rng = np.random.default_rng(7)
        for x in (rng.normal(size=(32, 32)), early_wavefield):
            blob, stats = codecs.FixedRateCodec(rate).encode(x)
            target = int(np.ceil(rate * x.size / 8))
            assert abs(stats.output_bytes - target) / target <= 0.05

    def test_decodes_to_original_shape(self):
        # 1D blocks hold 4 values, so per-block headers put the floor near
        # 22 bits/value; ask for a rate above it
        x = np.sin(np.linspace(0, 20, 500))
        codec = codecs.FixedRateCodec(30.0)
        y = codec.decode(codec.encode(x)[0])
        assert y.shape == x.shape

    def test_rate_below_floor_rejected(self):
        x = np.random.default_rng(8).normal(size=64)
        with pytest.raises(CodecError):
            codecs.FixedRateCodec(0.05).encode(x)


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


class TestProfile:
    def test_deterministic_bytes_and_full_stats(self):
        x = np.random.default_rng(10).normal(size=(24, 24))
        stats = codecs.profile(codecs.QuantCodec(1e-5), x, repetitions=3)
        assert stats.t_c > 0 and stats.t_d > 0
        assert stats.max_abs_error <= 1e-5

    def test_get_codec_dispatch(self):
        assert isinstance(codecs.get_codec("null"), codecs.NullCodec)
        assert isinstance(codecs.get_codec("cast"), codecs.CastCodec)
        assert isinstance(codecs.get_codec("quant", tolerance=1e-3), codecs.QuantCodec)
        assert isinstance(codecs.get_codec("rate", rate=8.0), codecs.FixedRateCodec)
        with pytest.raises(InvalidArgumentError):
            codecs.get_codec("quant")
        with pytest.raises(InvalidArgumentError):
            codecs.get_codec("zfp")


def test_lossless_pass_stays_near_unity(wavefield):
    # a dense propagated field barely compresses losslessly
    assert codecs.lossless_ratio(wavefield) < 1.3
