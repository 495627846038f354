import hashlib
import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjckpt import schedule as sched
from adjckpt.errors import InvalidArgumentError, ScheduleValidationError


def brute_recompute(n, m, _cache={}):
    """Unmemoized recursion in spirit; tiny cache only to keep tests quick."""
    if m >= n:
        return 0
    if m == 1:
        return n * (n - 1) // 2
    key = (n, m)
    if key not in _cache:
        _cache[key] = min(
            k + brute_recompute(k, m) + brute_recompute(n - k, m - 1)
            for k in range(1, n)
        )
    return _cache[key]


def plain_dp_table(nmax, mmax):
    """Independent bottom-up evaluation with no closed-form shortcuts."""
    table = np.zeros((mmax + 1, nmax + 1), dtype=np.int64)
    n = np.arange(nmax + 1)
    table[1] = n * (n - 1) // 2
    for m in range(2, mmax + 1):
        for nn in range(2, nmax + 1):
            if m >= nn:
                continue
            ks = np.arange(1, nn)
            table[m, nn] = (ks + table[m, 1:nn] + table[m - 1, nn - 1 : 0 : -1]).min()
    return table


def machine_oracle(n, m):
    """Fewest replayed steps of any stream the register machine accepts.

    Dijkstra over (stored states, cur, upper, next adjoint): every action is
    an edge priced by the primal steps it runs.  Slots are interchangeable,
    so a node keeps the set of stored states, not the slot map.
    """
    start = (frozenset(), 0, None, n - 1)
    dist = {start: 0}
    tie = itertools.count()
    heap = [(0, next(tie), start)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        stored, cur, upper, nxt = node
        if nxt < 0:
            return d - n
        moves = []
        if cur not in stored and len(stored) < m:
            moves.append((0, (stored | {cur}, cur, upper, nxt)))  # store
        for s in stored:
            moves.append((0, (stored, s, upper if upper == s + 1 else None, nxt)))  # restore
            moves.append((0, (stored - {s}, cur, upper, nxt)))  # discard
        if cur < n:
            moves.append((1, (stored, cur + 1, None, nxt)))  # advance one step
            moves.append((1, (stored, cur, cur + 1, nxt)))  # capture
        if cur == nxt and upper == nxt + 1:
            moves.append((0, (stored, cur, nxt, nxt - 1)))  # adjoint
        for w, nb in moves:
            if nb not in dist or d + w < dist[nb]:
                dist[nb] = d + w
                heapq.heappush(heap, (d + w, next(tie), nb))
    raise AssertionError(f"no stream reverses {n} steps with {m} slots")


class TestRecomputeCount:
    def test_invalid_arguments(self):
        for n, m in [(0, 1), (1, 0), (0, 0), (-3, 2)]:
            with pytest.raises(InvalidArgumentError):
                sched.recompute_count(n, m)

    def test_single_slot_closed_form(self):
        for n in range(1, 101):
            assert sched.recompute_count(n, 1) == n * (n - 1) // 2

    def test_enough_slots_means_no_recomputation(self):
        assert sched.recompute_count(5, 5) == 0
        assert sched.recompute_count(7, 30) == 0

    def test_known_values(self):
        assert sched.recompute_count(4, 1) == 6
        assert sched.recompute_count(10, 3) == brute_recompute(10, 3)
        # paper scale, N = 2500
        for m, p in [(2, 115359), (8, 12074), (56, 3420), (84, 2454)]:
            assert sched.recompute_count(2500, m) == p
        # (recompute_steps, writes, reads, peak_slots) of the full stream
        for m, counts in [
            (2, (115359, 71, 2499, 2)),
            (8, (12074, 1716, 2499, 8)),
            (56, (3420, 2498, 2499, 56)),
            (84, (2454, 2500, 2499, 84)),
            (373, (2133, 2500, 2499, 373)),
        ]:
            assert sched.schedule_counts(2500, m) == sched.ScheduleStats(*counts)

    def test_machine_oracle_never_beaten(self):
        # Revolve's count bounds the carry-aware machine from above ...
        for n in range(1, 11):
            for m in range(1, 4):
                assert machine_oracle(n, m) <= sched.recompute_count(n, m), (n, m)
        # ... and with one slot the machine saves exactly one replay
        for n in range(2, 11):
            assert machine_oracle(n, 1) == n * (n - 1) // 2 - 1

    def test_matches_unmemoized_recursion(self):
        for n in range(1, 13):
            for m in range(1, 5):
                assert sched.recompute_count(n, m) == brute_recompute(n, m)

    def test_matches_plain_dp_over_full_grid(self):
        table = plain_dp_table(200, 20)
        for n in range(1, 201):
            for m in range(1, 21):
                if m >= n:
                    assert sched.recompute_count(n, m) == 0
                else:
                    assert sched.recompute_count(n, m) == table[m, n], (n, m)

    def test_monotonicity(self):
        for n in range(2, 120):
            for m in range(1, 14):
                assert sched.recompute_count(n, m + 1) <= sched.recompute_count(n, m)
                assert sched.recompute_count(n + 1, m) >= sched.recompute_count(n, m)

    @given(n=st.integers(1, 400), m=st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_and_zero_iff_enough_slots(self, n, m):
        p = sched.recompute_count(n, m)
        assert p >= 0
        assert (p == 0) == (m >= n)


class TestGenerateSchedule:
    def test_single_step_stream(self):
        acts = sched.generate_schedule(1, 1)
        assert acts == [
            sched.Store(slot=0, state=0),
            sched.PrimalCapture(step=0),
            sched.AdjointStep(step=0),
            sched.Discard(slot=0),
        ]

    def test_all_states_stored(self):
        stats = sched.schedule_stats(sched.generate_schedule(3, 3), 3, 3)
        assert stats.recompute_steps == 0
        assert stats.writes == 3

    @pytest.mark.parametrize("n,m", [(20, 4), (10, 2), (37, 5), (64, 7)])
    def test_replay_count_equals_dp(self, n, m):
        stats = sched.schedule_stats(sched.generate_schedule(n, m), n, m)
        assert stats.recompute_steps == sched.recompute_count(n, m)

    def test_slots_beyond_steps_change_nothing(self):
        for n in range(1, 31):
            full = sched.generate_schedule(n, n)
            for m in (n + 1, 10**20):
                assert sched.generate_schedule(n, m) == full, (n, m)

    def test_checkpoints_form_a_stack(self):
        # every STORE takes the lowest slot above those in use
        for n in range(1, 61):
            for m in range(1, 11):
                used: set[int] = set()
                for act in sched.generate_schedule(n, m):
                    if isinstance(act, sched.Store):
                        assert act.slot == len(used), (n, m, act)
                        used.add(act.slot)
                    elif isinstance(act, sched.Discard):
                        used.remove(act.slot)

    def test_stats_match_closed_counts_on_grid(self):
        for n in range(1, 61):
            for m in range(1, 11):
                acts = sched.generate_schedule(n, m)
                assert sched.schedule_stats(acts, n, m) == sched.schedule_counts(n, m)

    @given(n=st.integers(1, 90), m=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_generated_streams_validate(self, n, m):
        stats = sched.schedule_stats(sched.generate_schedule(n, m), n, m)
        assert stats.peak_slots <= m
        assert stats.recompute_steps == sched.recompute_count(n, m)

    @pytest.mark.parametrize(
        "n,m,digest",
        [
            (200, 3, "93cadf735ae4c08c86fae627f74ec7fae854586392129127879a78c0b11f3478"),
            (200, 41, "aeaa0047a5d5b992af7a79d64d0ba15826b45816d2ea994406efc3622195db58"),
            (2500, 56, "80dc0ccd2e8d30ad03c93d9a3dbc9ed8fd5e08238a1950c072dabb7932829f97"),
        ],
    )
    def test_stream_is_byte_stable(self, n, m, digest):
        text = sched.format_schedule(sched.generate_schedule(n, m))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# Complete-looking streams that break one rule of the machine: (text, n, index
# of the first offending action).  Validation and execution must both reject
# them there.
DRIFTED_STREAMS = [
    # backward advance
    (
        "STORE slot=0 state=0\nADVANCE from=0 to=2\nADVANCE from=2 to=1\n"
        "CAPTURE step=1\nADJOINT step=1\nRESTORE slot=0 state=0\n"
        "CAPTURE step=0\nADJOINT step=0\nDISCARD slot=0\n",
        2,
        2,
    ),
    # capture of step n, which does not exist
    (
        "STORE slot=0 state=0\nADVANCE from=0 to=2\nCAPTURE step=2\n"
        "RESTORE slot=0 state=0\nADVANCE from=0 to=1\nCAPTURE step=1\n"
        "ADJOINT step=1\nRESTORE slot=0 state=0\nCAPTURE step=0\n"
        "ADJOINT step=0\nDISCARD slot=0\n",
        2,
        2,
    ),
    # advance past state n runs step n, which does not exist
    (
        "STORE slot=0 state=0\nADVANCE from=0 to=3\nRESTORE slot=0 state=0\n"
        "ADVANCE from=0 to=1\nCAPTURE step=1\nADJOINT step=1\n"
        "RESTORE slot=0 state=0\nCAPTURE step=0\nADJOINT step=0\nDISCARD slot=0\n",
        2,
        1,
    ),
]


class TestValidation:
    def test_drifted_streams_rejected(self):
        for text, n, index in DRIFTED_STREAMS:
            with pytest.raises(ScheduleValidationError) as err:
                sched.schedule_stats(sched.parse_schedule(text), n, 1)
            assert err.value.index == index, text

    def test_restore_before_store_rejected(self):
        bad = [sched.Restore(slot=0, state=0), sched.AdjointStep(step=0)]
        with pytest.raises(ScheduleValidationError) as err:
            sched.schedule_stats(bad, 1, 1)
        assert err.value.index == 0

    def test_adjoint_out_of_order_rejected(self):
        acts = sched.generate_schedule(2, 2)
        swapped = [a for a in acts]
        ai = [i for i, a in enumerate(swapped) if isinstance(a, sched.AdjointStep)]
        swapped[ai[0]], swapped[ai[1]] = swapped[ai[1]], swapped[ai[0]]
        with pytest.raises(ScheduleValidationError):
            sched.schedule_stats(swapped, 2, 2)

    def test_too_many_slots_rejected(self):
        acts = sched.generate_schedule(4, 2)
        with pytest.raises(ScheduleValidationError) as err:
            sched.schedule_stats(acts, 4, 1)
        assert err.value.index == 2
        assert err.value.reason == "2 slots in use, only 1 available"

    def test_truncated_stream_rejected(self):
        acts = sched.generate_schedule(5, 2)[:-4]
        with pytest.raises(ScheduleValidationError):
            sched.schedule_stats(acts, 5, 2)

    def test_adjoint_without_capture_rejected(self):
        bad = [
            sched.Store(slot=0, state=0),
            sched.AdjointStep(step=0),
            sched.Discard(slot=0),
        ]
        with pytest.raises(ScheduleValidationError) as err:
            sched.schedule_stats(bad, 1, 1)
        assert err.value.index == 1


GOLDEN_5_2 = """\
STORE slot=0 state=0
ADVANCE from=0 to=2
STORE slot=1 state=2
ADVANCE from=2 to=4
CAPTURE step=4
ADJOINT step=4
RESTORE slot=1 state=2
ADVANCE from=2 to=3
CAPTURE step=3
ADJOINT step=3
RESTORE slot=1 state=2
CAPTURE step=2
ADJOINT step=2
DISCARD slot=1
RESTORE slot=0 state=0
ADVANCE from=0 to=1
STORE slot=1 state=1
CAPTURE step=1
ADJOINT step=1
DISCARD slot=1
RESTORE slot=0 state=0
ADJOINT step=0
DISCARD slot=0
"""


class TestTextForm:
    def test_golden_schedule(self):
        assert sched.format_schedule(sched.generate_schedule(5, 2)) == GOLDEN_5_2

    @given(n=st.integers(1, 40), m=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, n, m):
        acts = sched.generate_schedule(n, m)
        assert sched.parse_schedule(sched.format_schedule(acts)) == acts

    def test_bad_line_rejected(self):
        for line in [
            "WIBBLE slot=1",
            "STORE slot=1",
            "STORE slot=1 slot=7 state=0",
            "STORE slot=1 state=0 bogus=5",
            "CAPTURE step=2 slot=9",
        ]:
            with pytest.raises(InvalidArgumentError):
                sched.parse_action(line)

    def test_fields_in_any_order(self):
        assert sched.parse_action("STORE state=0 slot=1") == sched.Store(slot=1, state=0)
