import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjckpt import codecs
from adjckpt.errors import CapacityError, InvalidArgumentError, MissingCheckpointError
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
        size = blob_bytes(state, codec)
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
    store = CheckpointStore(budget_bytes=int(3.5 * blob_bytes(fields[64], codec)))
    live = {}  # slot -> length of the blob it holds
    for op, slot, size in ops:
        try:
            if op in ("put", "overwrite"):
                store.put(slot, slot, fields[size], codec, overwrite=op == "overwrite")
                live[slot] = blob_bytes(fields[size], codec)
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
