import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjckpt import codecs
from adjckpt.errors import (
    CapacityError,
    CodecDecodeError,
    InvalidArgumentError,
    MissingCheckpointError,
)
from adjckpt.store import CheckpointStore


@pytest.fixture
def state():
    return np.random.default_rng(0).normal(size=(2, 30, 30))


def blob_bytes(fieldval, codec):
    return len(codec.encode(fieldval)[0])


class TestBasics:
    def test_put_get_bit_identical_with_null(self, state):
        codec = codecs.NullCodec()
        store = CheckpointStore(budget_bytes=blob_bytes(state, codec) + 1)
        store.put(3, 17, state, codec)
        step, out = store.get(3, codec)
        assert step == 17
        assert np.array_equal(out, state)

    def test_capacity_error_names_bytes(self, state):
        codec = codecs.NullCodec()
        store = CheckpointStore(budget_bytes=100)
        with pytest.raises(CapacityError) as err:
            store.put(0, 0, state, codec)
        assert err.value.required > err.value.available
        assert store.bytes_used == 0

    def test_fill_then_one_more_put_fails(self, state):
        codec = codecs.NullCodec()
        size = blob_bytes(state, codec)
        store = CheckpointStore(budget_bytes=3 * size)
        for slot in range(3):
            store.put(slot, slot, state, codec)
        with pytest.raises(CapacityError):
            store.put(3, 3, state, codec)

    def test_occupied_slot_needs_explicit_overwrite(self, state):
        codec = codecs.NullCodec()
        store = CheckpointStore(budget_bytes=10 * blob_bytes(state, codec))
        store.put(0, 1, state, codec)
        with pytest.raises(InvalidArgumentError):
            store.put(0, 2, state, codec)
        store.put(0, 2, state * 2.0, codec, overwrite=True)
        step, out = store.get(0, codec)
        assert step == 2
        assert np.array_equal(out, state * 2.0)

    def test_free_releases_budget(self, state):
        codec = codecs.NullCodec()
        size = state.nbytes
        store = CheckpointStore(budget_bytes=size)
        store.put(0, 0, state, codec)
        assert store.bytes_used == size
        store.free(0)
        assert store.bytes_used == 0
        store.put(1, 1, state, codec)

    def test_empty_slot_errors(self, state):
        codec = codecs.NullCodec()
        store = CheckpointStore(budget_bytes=1000)
        with pytest.raises(MissingCheckpointError):
            store.get(4, codec)
        with pytest.raises(MissingCheckpointError):
            store.free(4)

    def test_round_trip_honors_codec_bound(self, state):
        tol = 1e-6
        codec = codecs.QuantCodec(tol)
        store = CheckpointStore(budget_bytes=10 * blob_bytes(state, codec))
        store.put(0, 5, state, codec)
        _, out = store.get(0, codec)
        assert np.abs(out - state).max() <= tol

    def test_compression_fits_where_raw_does_not(self, state):
        # a budget sized for three compressed states holds zero raw ones
        quant = codecs.QuantCodec(1e-2 * np.abs(state).max())
        raw = codecs.NullCodec()
        budget = 3 * blob_bytes(state, quant)
        assert budget < blob_bytes(state, raw)
        store = CheckpointStore(budget_bytes=budget)
        with pytest.raises(CapacityError):
            store.put(0, 0, state, raw)
        for slot in range(3):
            store.put(slot, slot, state, quant)


class TestRawCheckpoints:
    """A null put keeps a read-only array; every other codec keeps its blob."""

    def test_caller_mutation_does_not_reach_the_slot(self, state):
        store = CheckpointStore(budget_bytes=state.nbytes)
        fieldval = state.copy()
        store.put(0, 0, fieldval, codecs.NullCodec())
        fieldval[...] = 0.0
        assert np.array_equal(store.get(0, codecs.NullCodec())[1], state)

    def test_get_is_read_only(self, state):
        store = CheckpointStore(budget_bytes=state.nbytes)
        store.put(0, 0, state, codecs.NullCodec())
        _, out = store.get(0, codecs.NullCodec())
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0, 0] = 1.0
        assert np.array_equal(store.get(0, codecs.NullCodec())[1], state)

    @pytest.mark.parametrize("axes", [(0, 1, 2), (0, 2, 1), (2, 1, 0)])
    def test_copy_keeps_its_inputs_memory_order(self, state, axes):
        # a state laid out depth-major comes back as it went in, so the
        # kernel that laid it out need not lay it out again
        view = state.transpose(axes)
        store = CheckpointStore(budget_bytes=state.nbytes)
        store.put(0, 0, view, codecs.NullCodec())
        _, out = store.get(0, codecs.NullCodec())
        assert np.array_equal(out, view)
        assert out.strides == view.strides
        assert out.transpose(np.argsort(axes)).flags.c_contiguous
        assert not out.flags.writeable
        assert not np.shares_memory(out, view)

    def test_c_ordered_state_gets_a_c_contiguous_copy(self, state):
        store = CheckpointStore(budget_bytes=state.nbytes)
        store.put(0, 0, state[:, ::2], codecs.NullCodec())
        _, out = store.get(0, codecs.NullCodec())
        assert out.flags.c_contiguous
        assert np.array_equal(out, state[:, ::2])
        assert not np.shares_memory(out, state)

    def test_put_counts_nbytes(self, state):
        codec = codecs.NullCodec()
        with pytest.raises(CapacityError) as err:
            CheckpointStore(budget_bytes=state.nbytes - 1).put(0, 0, state, codec)
        assert err.value.required == state.nbytes
        store = CheckpointStore(budget_bytes=state.nbytes)
        store.put(0, 0, state, codec)
        store.get(0, codec)
        assert store.bytes_used == state.nbytes
        assert store.counters.bytes_written == store.counters.bytes_read == state.nbytes

    @pytest.mark.parametrize(
        "codec", [codecs.QuantCodec(1e-3), codecs.CastCodec()], ids=["quant", "cast"]
    )
    def test_other_codecs_store_the_blob(self, state, codec):
        blob = codec.encode(state)[0]
        store = CheckpointStore(budget_bytes=len(blob))
        store.put(0, 0, state, codec)
        assert store.bytes_used == len(blob)
        _, out = store.get(0, codec)
        assert out.flags.writeable
        assert np.array_equal(out, codec.decode(blob))
        assert store.counters.bytes_written == store.counters.bytes_read == len(blob)

    def test_a_codec_named_null_is_still_encoded(self, state):
        # the raw path is for NullCodec instances, not for wrappers that copy its name
        class Wrapped:
            name = "null"
            encoded = 0

            def encode(self, fieldval):
                self.encoded += 1
                return codecs.NullCodec().encode(fieldval)

            def decode(self, blob):
                return codecs.NullCodec().decode(blob)

        codec = Wrapped()
        blob = codecs.NullCodec().encode(state)[0]
        store = CheckpointStore(budget_bytes=len(blob))
        store.put(0, 0, state, codec)
        assert codec.encoded == 1
        assert store.bytes_used == len(blob)
        assert np.array_equal(store.get(0, codec)[1], state)

    def test_decode_still_checks_the_envelope(self, state):
        codec = codecs.NullCodec()
        blob = codec.encode(state)[0]
        with pytest.raises(CodecDecodeError):
            codec.decode(blob[:-5])
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 0x10
        with pytest.raises(CodecDecodeError):
            codec.decode(bytes(flipped))


class _FixedSizeCodec:
    """Encodes every state to exactly `size` payload bytes; test double."""

    name = "fixed"

    def __init__(self, size):
        self.size = size

    def encode(self, fieldval):
        blob = b"\x00" * self.size
        stats = codecs.CodecStats(fieldval.nbytes, self.size, fieldval.nbytes / self.size, 0.0, 0.0, 0.0)
        return blob, stats

    def decode(self, blob):
        raise NotImplementedError


def test_slot_count_matches_model_slots():
    from adjckpt.perfmodel import PerfParams, slots

    state_bytes = 1000
    ratio = 4.0
    budget = 10_500
    codec = _FixedSizeCodec(int(state_bytes / ratio))
    store = CheckpointStore(budget_bytes=budget)
    fieldval = np.zeros(state_bytes // 8)
    fitted = 0
    while True:
        try:
            store.put(fitted, fitted, fieldval, codec)
        except CapacityError:
            break
        fitted += 1
    p = PerfParams(
        step_cost=1.0,
        nsteps=100,
        state_bytes=state_bytes,
        bandwidth=1e9,
        memory_bytes=budget,
        ratio=ratio,
    )
    assert fitted == slots(p, compressed=True) == 42


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "overwrite", "free", "get"]),
            st.integers(0, 5),
            st.sampled_from([64, 24]),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_budget_never_exceeded_under_random_traffic(ops):
    codec = codecs.NullCodec()
    fields = {size: np.arange(size, dtype=float) for size in (64, 24)}
    store = CheckpointStore(budget_bytes=int(3.5 * fields[64].nbytes))
    live = {}  # slot -> nbytes of the state it holds
    for op, slot, size in ops:
        try:
            if op in ("put", "overwrite"):
                store.put(slot, slot, fields[size], codec, overwrite=op == "overwrite")
                live[slot] = fields[size].nbytes
            elif op == "free":
                store.free(slot)
                del live[slot]
            else:
                store.get(slot, codec)
        except (CapacityError, MissingCheckpointError, InvalidArgumentError):
            pass
        assert store.bytes_used == sum(live.values())
        assert 0 <= store.bytes_used <= store.budget_bytes


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0, -1])
def test_budget_must_be_positive_and_finite(budget):
    with pytest.raises(InvalidArgumentError):
        CheckpointStore(budget)
