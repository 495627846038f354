"""Revolve checkpoint schedules for forward-then-reverse computations.

Reversing ``n`` forward steps with only ``m`` checkpoint slots forces some
steps to be recomputed.  ``recompute_count`` evaluates Revolve's replay count
(Griewank & Walther, *Algorithm 799: Revolve*, ACM TOMS 2000) by dynamic
programming:

    p(n, 1) = n(n-1)/2
    p(n, m) = 0                                             for m >= n
    p(n, m) = min over 1 <= k <= n-1 of k + p(k, m) + p(n-k, m-1)

``generate_schedule`` expands the argmin tree of that recurrence into a
concrete action stream.  The stream drives a small register machine:

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
from dataclasses import dataclass, fields
from typing import Iterable, Union

import numpy as np

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
# Dynamic program
#
# Rows of the DP table are cached per slot count.  Row m holds p(n, m) for
# every n up to the largest query seen so far.  The m == 1 row is the
# quadratic closed form; every other row is built by the recurrence itself.
# The near-full zone p(n, m) = n - m + 1 for m < n <= 2m - 1 (provable from
# the recurrence) only lets ``recompute_count`` and ``_split`` answer such
# queries without building rows.
# ---------------------------------------------------------------------------

_ROWS: dict[int, np.ndarray] = {}


def _row_m1(nmax: int) -> np.ndarray:
    n = np.arange(nmax + 1, dtype=np.int64)
    return n * (n - 1) // 2


def _build_row(m: int, nmax: int, prev: np.ndarray) -> np.ndarray:
    row = np.full(nmax + 1, np.int64(1) << 60, dtype=np.int64)
    row[: m + 1] = 0
    # Split k lowers every later n at once; row[k] is final when k is reached.
    for k in range(1, nmax):
        lo = max(k + 1, m + 1)
        np.minimum(row[lo:], k + row[k] + prev[lo - k : nmax + 1 - k], out=row[lo:])
    return row


def _ensure_rows(m: int, nmax: int) -> None:
    have = _ROWS.get(1)
    if have is None or have.size <= nmax:
        _ROWS[1] = _row_m1(nmax)
    for j in range(2, m + 1):
        have = _ROWS.get(j)
        if have is None or have.size <= nmax:
            _ROWS[j] = _build_row(j, nmax, _ROWS[j - 1])


def recompute_count(n: int, m: int) -> int:
    """Revolve's count of recomputed primal steps to reverse n steps with m slots.

    This is the optimum of Revolve's recurrence (Griewank & Walther, 2000),
    which ``generate_schedule`` attains.  The carry-aware register machine
    can beat it, so a valid stream may replay fewer steps.
    """
    _check_args(n, m)
    if m >= n:
        return 0
    if m == 1:
        return n * (n - 1) // 2
    if n <= 2 * m - 1:
        return n - m + 1
    _ensure_rows(m, n)
    return int(_ROWS[m][n])


def _split(n: int, m: int) -> int:
    """Smallest k minimizing k + p(k, m) + p(n-k, m-1); only for 1 < m < n."""
    if n <= 2 * m - 1:
        return 1 if m == 2 else n - m + 1
    _ensure_rows(m, n)
    row, prev = _ROWS[m], _ROWS[m - 1]
    ks = np.arange(1, n, dtype=np.int64)
    cand = ks + row[1:n] + prev[n - 1 : 0 : -1]
    return int(np.argmin(cand)) + 1


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


def _writes(n: int, m: int) -> int:
    """Stores one expanded segment makes above its base; memoised."""
    if m >= n:
        return n - 1
    if m == 1:
        return 0
    key = (n, m)
    hit = _WRITES.get(key)
    if hit is None:
        k = _split(n, m)
        hit = _WRITES[key] = 1 + _writes(n - k, m - 1) + _writes(k, m)
    return hit


def schedule_counts(n: int, m: int) -> ScheduleStats:
    """Stats of ``generate_schedule(n, m)`` without materializing the stream.

    Only the writes (state 0's, then each segment's) need the split tree.
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
