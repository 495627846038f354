"""Revolve checkpoint schedules for forward-then-reverse computations.

Reversing ``n`` forward steps with only ``m`` checkpoint slots forces some
steps to be recomputed.  ``recompute_count`` evaluates Revolve's replay count
(Griewank & Walther, *Algorithm 799: Revolve*, ACM TOMS 2000), the optimum of
the recurrence

    p(n, 1) = n(n-1)/2
    p(n, m) = 0                                             for m >= n
    p(n, m) = min over 1 <= k <= n-1 of k + p(k, m) + p(n-k, m-1)

It neither relaxes that recurrence nor builds a row p(., m): the count and
the argmin split are both read off the binomial level structure of a row's
first differences, in Python ints (see "Levels" below).  That structure and
the split window equal the recurrence on the grid the tests check; they are
not proven.  ``generate_schedule`` expands the argmin tree of the recurrence
into a concrete action stream.  The stream drives a small register machine:

  * ``cur``    the live primal state (one step index),
  * ``upper``  the state one step above ``cur``, produced either by a
    ``PrimalCapture`` or carried down from the previous ``AdjointStep``.

``AdjointStep k`` consumes the bracketing pair (state k, state k+1), so an
adjoint sweep through fully stored states needs no recomputation at all,
while a sweep through sparse checkpoints replays segments via ``Advance``
and one ``PrimalCapture`` per uncaptured step.  Total primal executions of
a generated stream equal ``n + p(n, m)`` by construction.  ``p(n, m)`` is
not the machine's minimum: carrying the upper state down is a move Revolve
lacks, so a hand-written stream can replay fewer steps (for ``m = 1``, one
fewer than ``n(n-1)/2``).

A generated stream keeps its checkpoints as a stack, like Revolve's
snapshots: each checkpoint takes the slot just above the newest one in use,
so the checkpoint at recursion depth d sits in slot d.  The stream therefore
uses slots ``0 .. min(n, m) - 1`` for any ``m``, however large.

``run_schedule`` is the machine's only interpreter.  ``schedule_stats`` runs
it over the do-nothing ``ScheduleBackend`` with at most ``m`` slots in use;
``driver.execute`` runs it unbounded over a backend that steps the operator
and moves checkpoints through a store.  Both accept the same streams, count
the same replays, and reject a broken stream with the same
``ScheduleValidationError`` (an ``ExecutionError``) at the same index; any
other backend failure becomes an ``ExecutionError`` naming the action.

Ties in the argmin are broken toward the smallest split so that schedules
are reproducible byte for byte.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, fields
from math import comb
from typing import Iterable, Union

from .errors import AdjCkptError, ExecutionError, InvalidArgumentError, ScheduleValidationError

__all__ = [
    "Advance",
    "Store",
    "Restore",
    "PrimalCapture",
    "AdjointStep",
    "Discard",
    "ScheduleAction",
    "ScheduleStats",
    "ScheduleBackend",
    "recompute_count",
    "schedule_counts",
    "generate_schedule",
    "run_schedule",
    "schedule_stats",
    "format_schedule",
    "parse_schedule",
]


@dataclass(frozen=True)
class Advance:
    """Run primal steps ``from_step .. to_step-1`` without saving anything."""

    from_step: int
    to_step: int


@dataclass(frozen=True)
class Store:
    slot: int
    state: int


@dataclass(frozen=True)
class Restore:
    slot: int
    state: int


@dataclass(frozen=True)
class PrimalCapture:
    """Run primal step ``step`` keeping its output live for the next adjoint."""

    step: int


@dataclass(frozen=True)
class AdjointStep:
    step: int


@dataclass(frozen=True)
class Discard:
    slot: int


ScheduleAction = Union[Advance, Store, Restore, PrimalCapture, AdjointStep, Discard]


@dataclass(frozen=True)
class ScheduleStats:
    recompute_steps: int
    writes: int
    reads: int
    peak_slots: int


def _check_args(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise InvalidArgumentError(f"need n >= 1 and m >= 1, got n={n}, m={m}")


# ---------------------------------------------------------------------------
# Levels
#
# Row 1 is the closed form p(n, 1) = n(n-1)/2.  For m >= 2, p(n, m) = 0 for
# n <= m, and the first differences d(n) = p(n, m) - p(n-1, m) after that
# fall into levels r = 1, 2, ...:
#
#   * Level r covers B(m, r-1) < n <= B(m, r), where B(m, -1) = 0,
#     B(m, 0) = m and B(m, r) = C(m+r, r+1) + C(m+r-1, r-1), so it is
#     B(m-1, r) entries long.  Each d(n) in it is r, or r+1 at a *start*.
#   * Level r opens with C(m+r-3, r-2) non-starts (none at r = 1).
#   * Then come blocks, each a start followed by g-1 non-starts: for g = m-1
#     down to 3, C(r-1+j, j) blocks of length g, where j = m-1-g; blocks of
#     length 2 fill the rest of the level.
#
# Row 1 fits the same picture with single-entry levels (B(1, r) = r + 1) and
# no starts.  So p(n, m) is the sum over levels q up to n's of q times the
# entries of level q up to n, plus the starts among them; ``recompute_count``
# adds that up in Python ints, builds no row and memoises the sum.  The
# starts come in closed form, from two hockey-stick identities over the
# first J groups (j < J):
#
#     sum C(q-1+j, j)      = C(q-1+J, q)        blocks, one start each
#     sum j * C(q-1+j, j)  = q * C(q-1+J, q+1)
#
# so those groups span (m-1) C(q-1+J, q) - q C(q-1+J, q+1) entries, as
# block length g = m-1-j.  ``_starts_within`` bisects on J for the group
# that holds entry t and divides within it; tests/oracles.py keeps the
# group-by-group walk it replaced as the reference.
#
# The split.  For n in level r of row m and n > m, the smallest argmin
# k of k + p(k, m) + p(n-k, m-1) lies in the window
#
#     K = [max(1, B(m, r-2), n - B(m-1, r) - 1), min(B(m, r-1), n - B(m-1, r-1))]
#
# On K, k lies in level r-1 of row m and n-k in level r of row m-1, or at
# B(m-1, r) + 1, whose difference r+1 counts as a start.  The slopes cancel
# (1 + (r-1) - r = 0), so on K the sum is a constant plus the row-m starts
# up to k plus the row-(m-1) starts up to n-k.  It drops only where n-k
# passes a start s, at k = n-s+1, so ``_split`` walks those candidates up
# from the low end of K and keeps the first strict minimum.  Starts are
# listed group by group, and whole groups outside K are skipped.
#
# tests/test_schedule.py checks the level structure against the relaxed
# recurrence (every m <= 120 at n <= 1500, m <= 6 at n <= 6000, and far-out
# entries), and the count and the split against row-based oracles (every
# m <= 40 at n <= 800, m <= 8 at n <= 3000, and seeded points up to m = 300,
# n = 60000); neither the structure nor the window is proven.  On the
# near-full zone m < n <= 2m - 1 the level sum gives n - m + 1 too, but
# ``recompute_count`` keeps that closed form, as it keeps m = 1 and m >= n,
# so that those queries answer past ``_MAX_STEPS``.  Other step counts past
# it are refused: the limit bounds the work a query can ask for, in
# ``recompute_count``'s level loop (about sqrt(2n) levels at m = 2) and in
# the windows ``_split`` lists.  The expanded split tree
# can have up to n - 1 splits, but the write count walks each distinct
# segment once and stops at the zones below, so it calls ``_split`` far
# fewer times: about sqrt(2n) at m = 2, and 200 to 500 times at n = 10**8
# for m from 4 to 200.  What grows with n is the window each ``_split``
# lists, so one count there can take seconds.
#
# Writes
#
# A segment of n steps with m >= 2 slots stores each of its inner states
# 1..n-1 at most once (the segments a split makes share no inner state), so
# it makes W(n, m) = n - 1 - U(n, m) stores above its base, where U counts
# the inner states it never stores.  With B1 = B(m, 1) = m(m+1)/2 + 1 and
# B2 = B(m, 2), U falls into zones:
#
#     n <= B1 - 2                 U = 0   (every n <= m among them)
#     n = B1 - 1 or B1            U = 1
#     n = B1 + 1                  U = 2
#     n = B1 + 2 or B1 + 3        U = 3
#     B1 + 4 <= n <= B2 - 4m      U = 2
#
# ``_writes`` reads W off the zones and walks the split tree only above them
# (wave2d's (200, 3), say); every paper-scale query (n near 2500, m from 56
# to 86) lies in them and walks no split.  tests/test_schedule.py checks the zones against
# the walk at every m <= 120 within 5 steps of each zone boundary, at every
# n in 2400..2600 for m in 45..90, and at seeded points inside the zones up
# to m = 300, n = 60000; they are not proven.
# ---------------------------------------------------------------------------

_MAX_STEPS = 1_518_500_250  # the largest n with n(n-1)/2 < 2**60


def _edge(m: int, r: int) -> int:
    """B(m, r), the last n of level r in row m."""
    if r < 1:
        return m if r == 0 else 0
    return comb(m + r, r + 1) + comb(m + r - 1, r - 1)


def _level(m: int, n: int) -> int:
    """The level r >= 1 of row m that holds n > m."""
    if n > _MAX_STEPS:
        raise InvalidArgumentError(f"{n} steps are past the planner's limit of {_MAX_STEPS} steps")
    hi = 1
    while _edge(m, hi) < n:
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _edge(m, mid) < n:
            lo = mid + 1
        else:
            hi = mid
    return hi


def _starts_within(m: int, q: int, t: int) -> int:
    """How many of the first t entries of level q >= 1 of row m >= 2 are starts.

    Bisects for J, the whole groups of blocks before entry t, whose entries
    and starts have closed forms (see "Levels"), and divides within the next.
    """
    if q > 1:
        t -= comb(m + q - 3, q - 2)
    if t <= 0:
        return 0
    lo, hi, before = 0, max(m - 3, 0), 0  # J <= m - 3, the groups with g >= 3
    while lo < hi:
        mid = (lo + hi + 1) // 2
        entries = (m - 1) * comb(q - 1 + mid, q) - q * comb(q - 1 + mid, q + 1)
        if entries < t:
            lo, before = mid, entries
        else:
            hi = mid - 1
    g = m - 1 - lo if lo < m - 3 else 2  # past every longer group come blocks of 2
    return comb(q - 1 + lo, q) - (before - t) // g


def _starts(m: int, q: int, a: int, b: int) -> list[int]:
    """The starts of level q of row m that lie in a..b, ascending.

    It walks the groups ``_starts_within`` counts, one block length at a
    time, and lists only the blocks that begin in a..b.
    """
    if m == 1 or q < 1:
        return []
    at = _edge(m, q - 1) + 1 + (comb(m + q - 3, q - 2) if q > 1 else 0)
    b = min(b, _edge(m, q))
    out: list[int] = []
    blocks = 1
    for j, g in enumerate(range(m - 1, 2, -1)):
        if at > b:
            return out
        if j:
            blocks = blocks * (q - 1 + j) // j
        stop = at + blocks * g
        if stop > a:
            first = max(at, at - (at - a) // g * g)  # the first block start >= a
            out.extend(range(first, min(stop - 1, b) + 1, g))
        at = stop
    out.extend(range(max(at, at - (at - a) // 2 * 2), b + 1, 2))  # the length-2 blocks
    return out


_COUNTS: dict[tuple[int, int], int] = {}


def recompute_count(n: int, m: int) -> int:
    """Revolve's count of recomputed primal steps to reverse n steps with m slots.

    This is the optimum of Revolve's recurrence (Griewank & Walther, 2000),
    which ``generate_schedule`` attains.  The carry-aware register machine
    can beat it, so a valid stream may replay fewer steps.  Level sums are
    memoised, so pricing a stream and reporting its count sum once.
    """
    _check_args(n, m)
    if m >= n:
        return 0
    if m == 1:
        return n * (n - 1) // 2
    if n <= 2 * m - 1:
        return n - m + 1
    total = _COUNTS.get((n, m))
    if total is None:
        total, lo = 0, m
        for q in range(1, _level(m, n) + 1):
            hi = min(_edge(m, q), n)
            total += q * (hi - lo) + _starts_within(m, q, hi - lo)
            lo = hi
        _COUNTS[n, m] = total
    return total


def _split(n: int, m: int) -> int:
    """Smallest k minimizing k + p(k, m) + p(n-k, m-1); only for 1 < m < n."""
    r = _level(m, n)
    top = _edge(m - 1, r)
    lo = max(1, _edge(m, r - 2), n - top - 1)
    hi = min(_edge(m, r - 1), n - _edge(m - 1, r - 1))
    # Relative to k = lo, the sum rises by one at each k in ``ups`` and drops
    # by one at k = n - s + 1 for each s in ``downs``.
    ups = _starts(m, r - 1, lo + 1, hi)
    downs = _starts(m - 1, r, n - hi + 1, n - lo)
    if n - lo == top + 1:
        downs.append(top + 1)  # the first entry of level r + 1 counts as a start
    best, k_best = 0, lo
    for drops, s in enumerate(reversed(downs), 1):
        k = n - s + 1
        f = bisect_right(ups, k) - drops
        if f < best:
            best, k_best = f, k
    return k_best


# ---------------------------------------------------------------------------
# Expansion into an executable action stream
# ---------------------------------------------------------------------------


def generate_schedule(n: int, m: int) -> list[ScheduleAction]:
    """Expand the DP argmin tree into a valid action stream reversing n steps."""
    _check_args(n, m)
    actions: list[ScheduleAction] = [Store(slot=0, state=0)]
    _expand(actions, 0, n, m, 0)
    actions.append(Discard(slot=0))
    return actions


def _expand(actions: list[ScheduleAction], lo: int, hi: int, m: int, base: int) -> None:
    # Invariant on entry: state `lo` is stored in `base` and is the live
    # state; `m` counts the slots this segment may touch, `base` included.
    # Slots form a stack: the ones above `base` are all free.
    while True:
        n = hi - lo
        if m >= n:
            for k in range(lo + 1, hi):
                actions.append(Advance(from_step=k - 1, to_step=k))
                actions.append(Store(slot=base + k - lo, state=k))
            actions.append(PrimalCapture(step=hi - 1))
            actions.append(AdjointStep(step=hi - 1))
            for k in range(hi - 2, lo - 1, -1):
                actions.append(Discard(slot=base + k + 1 - lo))
                actions.append(Restore(slot=base + k - lo, state=k))
                actions.append(AdjointStep(step=k))
            return
        if m == 1:
            for k in range(hi - 1, lo - 1, -1):
                if k != hi - 1:
                    actions.append(Restore(slot=base, state=lo))
                if k > lo:
                    actions.append(Advance(from_step=lo, to_step=k))
                actions.append(PrimalCapture(step=k))
                actions.append(AdjointStep(step=k))
            return
        mid = lo + _split(n, m)
        actions.append(Advance(from_step=lo, to_step=mid))
        actions.append(Store(slot=base + 1, state=mid))
        _expand(actions, mid, hi, m - 1, base + 1)
        actions.append(Discard(slot=base + 1))
        actions.append(Restore(slot=base, state=lo))
        hi = mid


# ---------------------------------------------------------------------------
# Stream accounting and validation
# ---------------------------------------------------------------------------

_WRITES: dict[tuple[int, int], int] = {}

# U(n, m) at n - B(m, 1) = -2, -1, ..., 3; U is 0 below (see "Writes" above)
_UNSTORED_NEAR_EDGE = (0, 1, 1, 2, 3, 3)


def _unstored(n: int, m: int) -> int | None:
    """U(n, m), the states 1..n-1 a segment never stores, on its zones; else None.

    Only for m >= 2.
    """
    edge = _edge(m, 1)
    if n <= edge + 3:
        return _UNSTORED_NEAR_EDGE[max(n - edge + 2, 0)]
    if n <= _edge(m, 2) - 4 * m:
        return 2
    return None


def _writes(n: int, m: int) -> int:
    """Stores one expanded segment makes above its base; memoised.

    On the zones of ``_unstored`` the count is n - 1 - U(n, m).  Elsewhere,
    like ``_expand``, it loops down the segments that keep all m slots and
    recurses only into m - 1, so its depth is at most m.
    """
    chain: list[tuple[int, int]] = []  # (segment length, its own writes) down the loop
    unstored = None
    while m > 1 and (unstored := _unstored(n, m)) is None and (n, m) not in _WRITES:
        k = _split(n, m)
        chain.append((n, 1 + _writes(n - k, m - 1)))
        n = k
    if m == 1:
        total = 0
    elif unstored is not None:
        total = n - 1 - unstored
    else:
        total = _WRITES[n, m]
    for length, own in reversed(chain):
        total = _WRITES[length, m] = total + own
    return total


def schedule_counts(n: int, m: int) -> ScheduleStats:
    """Stats of ``generate_schedule(n, m)`` without materializing the stream.

    Only the writes (state 0's, then each segment's) may need the split
    tree, and only for segments above the zones of "Writes".
    The stream replays ``p(n, m)`` steps by construction.  After adjoint
    step k + 1 only a restore brings back state k, so each of the n - 1
    lower adjoint steps follows one read.  And its slot stack grows to one
    slot per step, or to all ``m`` slots when it has fewer slots than steps.
    """
    _check_args(n, m)
    return ScheduleStats(recompute_count(n, m), 1 + _writes(n, m), n - 1, min(n, m))


class ScheduleBackend:
    """The effects of a schedule, as ``run_schedule`` drives them.

    Each method runs one action after the interpreter has accepted it.  A
    backend owns no rule of the machine, it only raises when its own
    resource fails.  The methods here do nothing, so a backend overrides
    only the effects it has.
    """

    def store(self, slot: int, state: int) -> None:
        pass

    def restore(self, slot: int, state: int) -> None:
        pass

    def discard(self, slot: int) -> None:
        pass

    def advance(self, from_step: int, to_step: int) -> None:
        pass

    def capture(self, step: int) -> None:
        pass

    def adjoint(self, step: int) -> None:
        pass


def run_schedule(
    actions: Iterable[ScheduleAction], n: int, m: int | None, backend: ScheduleBackend
) -> ScheduleStats:
    """Walk an action stream reversing ``n`` steps through the register machine.

    The one interpreter of the machine: it tracks the live state, the upper
    state, which slot holds which state and the next adjoint step, keeps at
    most ``m`` slots in use (None: no bound), counts writes, reads, peak
    slots and primal steps, and calls ``backend`` for every action it
    accepts.  Raises ScheduleValidationError naming the first offending
    action (one past the last if adjoint step 0 is missing); any other
    AdjCkptError from the backend becomes an ExecutionError naming the action.
    """
    slots: dict[int, int] = {}
    cur = 0
    upper: int | None = None
    next_adjoint = n - 1
    writes = reads = peak = primal = 0
    i = -1
    for i, act in enumerate(actions):
        try:
            if isinstance(act, Store):
                if cur != act.state:
                    raise ScheduleValidationError(i, f"store of state {act.state} but live state is {cur}")
                if act.slot in slots:
                    raise ScheduleValidationError(i, f"slot {act.slot} already occupied")
                if m is not None and len(slots) >= m:
                    raise ScheduleValidationError(i, f"{len(slots) + 1} slots in use, only {m} available")
                backend.store(act.slot, act.state)
                slots[act.slot] = act.state
                writes += 1
                peak = max(peak, len(slots))
            elif isinstance(act, Restore):
                if act.slot not in slots:
                    raise ScheduleValidationError(i, f"restore from empty slot {act.slot}")
                if slots[act.slot] != act.state:
                    raise ScheduleValidationError(
                        i, f"slot {act.slot} holds state {slots[act.slot]}, not {act.state}"
                    )
                backend.restore(act.slot, act.state)
                cur = act.state
                if upper != act.state + 1:
                    upper = None
                reads += 1
            elif isinstance(act, Advance):
                if act.to_step <= act.from_step:
                    raise ScheduleValidationError(i, "advance must move forward")
                if cur != act.from_step:
                    raise ScheduleValidationError(i, f"advance from {act.from_step} but live state is {cur}")
                if act.to_step > n:
                    raise ScheduleValidationError(i, f"advance to state {act.to_step} past the last state {n}")
                backend.advance(act.from_step, act.to_step)
                primal += act.to_step - act.from_step
                cur = act.to_step
                upper = None
            elif isinstance(act, PrimalCapture):
                if cur != act.step:
                    raise ScheduleValidationError(i, f"capture of step {act.step} but live state is {cur}")
                if not 0 <= act.step < n:
                    raise ScheduleValidationError(i, f"step {act.step} out of range")
                backend.capture(act.step)
                primal += 1
                upper = act.step + 1
            elif isinstance(act, AdjointStep):
                if act.step != next_adjoint:
                    raise ScheduleValidationError(
                        i, f"adjoint of step {act.step}, expected {next_adjoint}"
                    )
                if cur != act.step or upper != act.step + 1:
                    raise ScheduleValidationError(
                        i, f"adjoint of step {act.step} without states {act.step} and {act.step + 1} live"
                    )
                backend.adjoint(act.step)
                upper = act.step
                next_adjoint -= 1
            elif isinstance(act, Discard):
                if act.slot not in slots:
                    raise ScheduleValidationError(i, f"discard of empty slot {act.slot}")
                backend.discard(act.slot)
                del slots[act.slot]
            else:
                raise ScheduleValidationError(i, f"unknown action {act!r}")
        except ScheduleValidationError:
            raise
        except AdjCkptError as exc:
            raise ExecutionError(f"schedule action {i}: {format_action(act)}: {exc}") from exc
    if next_adjoint != -1:
        raise ScheduleValidationError(
            i + 1, f"stream ends with adjoint steps {next_adjoint}..0 missing"
        )
    return ScheduleStats(
        recompute_steps=primal - n, writes=writes, reads=reads, peak_slots=peak
    )


def schedule_stats(actions: Iterable[ScheduleAction], n: int, m: int) -> ScheduleStats:
    """Count and validate an action stream against the execution contract.

    Runs ``run_schedule`` with at most ``m`` slots in use; raises
    ScheduleValidationError naming the first offending action index.
    """
    _check_args(n, m)
    return run_schedule(actions, n, m, ScheduleBackend())


# ---------------------------------------------------------------------------
# Line-oriented text form, one action per line
# ---------------------------------------------------------------------------

_LINE_RE = re.compile(r"^([A-Z]+)((?:\s+[a-z_]+=\d+)*)\s*$")

# Verb -> (action class, text names of the class's fields in field order).
_VERBS: dict[str, tuple[type, tuple[str, ...]]] = {
    "ADVANCE": (Advance, ("from", "to")),
    "STORE": (Store, ("slot", "state")),
    "RESTORE": (Restore, ("slot", "state")),
    "CAPTURE": (PrimalCapture, ("step",)),
    "ADJOINT": (AdjointStep, ("step",)),
    "DISCARD": (Discard, ("slot",)),
}
_VERB_OF = {cls: verb for verb, (cls, _) in _VERBS.items()}


def format_action(act: ScheduleAction) -> str:
    verb = _VERB_OF.get(type(act))
    if verb is None:
        raise InvalidArgumentError(f"not a schedule action: {act!r}")
    values = (getattr(act, f.name) for f in fields(act))
    return " ".join([verb, *(f"{k}={v}" for k, v in zip(_VERBS[verb][1], values))])


def format_schedule(actions: Iterable[ScheduleAction]) -> str:
    return "\n".join(format_action(a) for a in actions) + "\n"


def parse_action(line: str) -> ScheduleAction:
    """One action from its text form; fields may come in any order, each once."""
    match = _LINE_RE.match(line.strip())
    if not match:
        raise InvalidArgumentError(f"unparseable schedule line: {line!r}")
    verb, rest = match.group(1), match.group(2)
    if verb not in _VERBS:
        raise InvalidArgumentError(f"unknown schedule verb {verb!r}")
    cls, names = _VERBS[verb]
    pairs = [part.split("=") for part in rest.split()]
    if sorted(key for key, _ in pairs) != sorted(names):
        raise InvalidArgumentError(f"{verb} needs field(s) {', '.join(names)}, each exactly once: {line!r}")
    args = {key: int(val) for key, val in pairs}
    return cls(*(args[name] for name in names))


def parse_schedule(text: str) -> list[ScheduleAction]:
    return [parse_action(line) for line in text.splitlines() if line.strip()]
