import hashlib
import heapq
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjckpt import schedule as sched
from adjckpt.errors import InvalidArgumentError, ScheduleValidationError
from oracles import starts_within_groups


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


def relaxed_rows(mmax, nmax):
    """Rows 1..mmax of p by relaxing the recurrence, one split k at a time.

    Split k lowers every later n at once, and row[k] is final once k is
    reached.  O(m * n**2): the oracle for the level-structure rows.
    """
    n = np.arange(nmax + 1, dtype=np.int64)
    rows = {1: n * (n - 1) // 2}
    for m in range(2, mmax + 1):
        row = np.full(nmax + 1, 1 << 60, dtype=np.int64)
        row[: m + 1] = 0
        prev = rows[m - 1]
        for k in range(1, nmax):
            lo = max(k + 1, m + 1)
            np.minimum(row[lo:], k + row[k] + prev[lo - k : nmax + 1 - k], out=row[lo:])
        rows[m] = row
    return rows


def build_row(m, nmax):
    """Row m of p up to nmax, written level by level with numpy.

    The oracle for ``recompute_count`` and ``split_oracle``; ``relaxed_rows``
    checks it in turn.
    """
    if m == 1:
        n = np.arange(nmax + 1, dtype=np.int64)
        return n * (n - 1) // 2
    d = np.zeros(nmax + 1, dtype=np.int64)
    lo, r = m + 1, 1
    while lo <= nmax:
        # Binomials can outgrow int64, so every index is clipped to the level.
        hi = min(lo + math.comb(m + r - 1, r + 1) + math.comb(m + r - 2, r - 1), nmax + 1)
        d[lo:hi] = r
        at = min(lo + (math.comb(m + r - 3, r - 2) if r > 1 else 0), hi)
        blocks = 1
        for j, g in enumerate(range(m - 1, 2, -1)):
            if at >= hi:
                break
            if j:
                blocks = blocks * (r - 1 + j) // j  # C(r-1+j, j) from C(r-2+j, j-1)
            end = min(at + blocks * g, hi)
            d[at:end:g] = r + 1
            at = end
        d[at:hi:2] = r + 1
        lo, r = hi, r + 1
    return np.cumsum(d, out=d)


_ORACLE_ROWS = {}


def oracle_row(m, nmax):
    """Row m of p, at least nmax + 1 entries long; grown by doubling."""
    row = _ORACLE_ROWS.get(m)
    if row is None or row.size <= nmax:
        row = _ORACLE_ROWS[m] = build_row(m, max(nmax, 2 * (row.size if row is not None else 0)))
    return row


def split_oracle(n, m):
    """Smallest k minimizing k + p(k, m) + p(n-k, m-1), by argmin over a row."""
    row, prev = oracle_row(m, n), oracle_row(m - 1, n)
    ks = np.arange(1, n, dtype=np.int64)
    cand = ks + row[1:n] + prev[n - 1 : 0 : -1]
    return int(np.argmin(cand)) + 1


def oracle_points():
    """(n, m) with 1 < m < n: every m <= 40 at n <= 800, every m <= 8 at
    n <= 3000, and 200 seeded points up to m = 300, n = 60000."""
    grid = [(n, m) for m in range(2, 41) for n in range(m + 1, 801)]
    grid += [(n, m) for m in range(2, 9) for n in range(801, 3001)]
    rng = np.random.default_rng(17)
    ms = rng.integers(2, 301, size=200)
    return grid + [(int(rng.integers(m + 1, 60001)), int(m)) for m in ms]


_WALKED = {}


def writes_walk(n, m):
    """Stores a segment of n steps with m slots makes above its base.

    Walks the split tree through ``sched._split`` with a memo of its own,
    with no zone shortcut: the oracle for the zones of ``sched._unstored``.
    """
    chain = []
    while 1 < m < n and (n, m) not in _WALKED:
        k = sched._split(n, m)
        chain.append((n, 1 + writes_walk(n - k, m - 1)))
        n = k
    if m >= n:
        total = n - 1
    elif m == 1:
        total = 0
    else:
        total = _WALKED[n, m]
    for length, own in reversed(chain):
        total = _WALKED[length, m] = total + own
    return total


def zone_bounds(m):
    """The n at which U(n, m) changes zone: B(m,1) - 2, B(m,1), B(m,1) + 1,
    B(m,1) + 3 and B(m,2) - 4m."""
    edge = sched._edge(m, 1)
    return [edge - 2, edge, edge + 1, edge + 3, sched._edge(m, 2) - 4 * m]


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

    def test_step_counts_past_the_rows_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sched.recompute_count(2**31, 8)
        # queries with a closed form still answer
        assert sched.recompute_count(2**31, 1) == 2**31 * (2**31 - 1) // 2
        assert sched.recompute_count(2**31, 2**31) == 0
        assert sched.recompute_count(2**31, 2**30 + 1) == 2**30

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

    @pytest.mark.parametrize("mmax,nmax", [(120, 1500), (6, 6000)])
    def test_rows_match_the_relaxed_recurrence(self, mmax, nmax):
        oracle = relaxed_rows(mmax, nmax)
        for m in range(1, mmax + 1):
            np.testing.assert_array_equal(build_row(m, nmax), oracle[m], err_msg=f"m={m}")

    def test_rows_satisfy_the_recurrence_far_out(self):
        rng = np.random.default_rng(13)
        nmax = 10**6
        ms = rng.integers(2, 11, size=100)
        prev = build_row(1, nmax)
        for m in range(2, 11):
            row = build_row(m, nmax)
            for n in rng.integers(m + 1, nmax + 1, size=int((ms == m).sum())):
                ks = np.arange(1, n)
                assert row[n] == (ks + row[1:n] + prev[n - 1 : 0 : -1]).min(), (n, m)
                assert sched.recompute_count(int(n), m) == row[n], (n, m)
            prev = row

    def test_count_matches_the_row_oracle(self):
        for n, m in oracle_points():
            assert sched.recompute_count(n, m) == oracle_row(m, n)[n], (n, m)

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


class TestStartsWithin:
    def test_closed_form_matches_the_group_walk(self):
        # t = 1, 2, the whole level and seeded points inside it, for every
        # m <= 90 and level q <= 6
        rng = np.random.default_rng(41)
        for m in range(2, 91):
            for q in range(1, 7):
                length = sched._edge(m, q) - sched._edge(m, q - 1)
                for t in (1, 2, length, *rng.integers(1, length + 1, size=8).tolist()):
                    assert sched._starts_within(m, q, t) == starts_within_groups(m, q, t), (m, q, t)


class TestSplit:
    def test_split_matches_the_row_oracle(self):
        for n, m in oracle_points():
            assert sched._split(n, m) == split_oracle(n, m), (n, m)


class TestScheduleCounts:
    def test_far_out_counts(self):
        assert sched.schedule_counts(10**6, 2) == sched.ScheduleStats(941809244, 1414, 999999, 2)
        assert sched.schedule_counts(10**6, 3) == sched.ScheduleStats(134786924, 16471, 999999, 3)

    def test_writes_at_the_zone_boundaries(self):
        for m in range(2, 121):
            for bound in zone_bounds(m):
                for n in range(max(bound - 5, 1), bound + 6):
                    assert sched.schedule_counts(n, m).writes == 1 + writes_walk(n, m), (n, m)

    def test_writes_at_paper_scale(self):
        for m in range(45, 91):
            for n in range(2400, 2601):
                assert sched.schedule_counts(n, m).writes == 1 + writes_walk(n, m), (n, m)

    def test_writes_inside_the_zones(self):
        rng = np.random.default_rng(29)
        for m in rng.integers(2, 301, size=200):
            m = int(m)
            top = min(zone_bounds(m)[-1], 60000)
            n = int(rng.integers(1, max(top, sched._edge(m, 1) + 3) + 1))
            assert sched._unstored(n, m) is not None, (n, m)
            assert sched.schedule_counts(n, m).writes == 1 + writes_walk(n, m), (n, m)

    def test_stats_match_counts_at_every_slot_count(self):
        for m in range(1, 201):
            acts = sched.generate_schedule(200, m)
            assert sched.schedule_stats(acts, 200, m) == sched.schedule_counts(200, m), m

    def test_long_two_slot_chain(self, monkeypatch):
        # 199 splits keep both slots; the count must not recurse once per split
        monkeypatch.setattr(sched, "_WRITES", {})
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            counts = sched.schedule_counts(20000, 2)
        finally:
            sys.setrecursionlimit(limit)
        assert counts == sched.ScheduleStats(2646699, 200, 19999, 2)


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
            # the slot counts the wave2d-quant benchmark runs at
            (200, 35, "d21e337273643a2b3ea0d8831574ef766d12a75afefbdbf9de68973403652737"),
            (200, 36, "990f18dcfc6571b1755d38fc3d41d3bcd6a9e33e2ead91237c3addbffeb950ed"),
            (200, 37, "3850db073fa1cc1297366bd0506950821d0bf31cfb287d756f443e59f9ed6134"),
            (200, 38, "4b9f00568b24285c08b52669fd5e1a4bd5795c8fe0da6a5450d8004adc32eb9e"),
            (200, 39, "92649081bfc65d5cec39c2c5f6e2b8a902db5aea29240bb1a2390d22d7bd88b0"),
            (200, 40, "19e8740c0da81d0845d1680ab5f7a7fef190e8155c86dd28827ec0af88a4f424"),
            (200, 41, "aeaa0047a5d5b992af7a79d64d0ba15826b45816d2ea994406efc3622195db58"),
            (200, 42, "d2244a587ecac4a39ff2f0a5c39e6327f5a91882f6585babfcc9bf4842e2f59a"),
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
