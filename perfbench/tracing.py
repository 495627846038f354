"""Spans recorded from outside the package, around the calls into each layer.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 for a root) and ``op`` the gradient or request it
belongs to.  Spans stay in memory and are written once, at the end.

The wrappers stand in for the objects ``driver.execute`` takes as
arguments (stepper, store, codec); nothing inside the package is edited.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def extend(self, spans: list[list]) -> None:
        """Append spans recorded by a child process, as parts of ``self.op``."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, self.op])

    def self_times(self, ops=None) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's.

        With ``ops``, only spans of those operations count.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if ops is None or op in ops:
                out[name].append(end - start - child[i])
        return out

    def durations(self, ops=None) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, op in self.spans:
            if ops is None or op in ops:
                out[name].append(end - start)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{op}\n")


class TracedStepper:
    """A ``driver.Stepper`` whose forward and adjoint steps are spans."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.nsteps = inner.nsteps

    def initial_state(self):
        return self.inner.initial_state()

    def initial_adjoint(self):
        return self.inner.initial_adjoint()

    def forward(self, state, step):
        return self.tracer.call("driver.forward", self.inner.forward, state, step)

    def adjoint(self, adj, state, state_next, step):
        return self.tracer.call(
            "driver.adjoint", self.inner.adjoint, adj, state, state_next, step
        )


class TracedCodec:
    """A codec whose encode/decode calls are spans; keeps each blob's ratio."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.ratios: list[float] = []

    def encode(self, field):
        blob, stats = self.tracer.call("codecs.encode", self.inner.encode, field)
        self.ratios.append(stats.ratio)
        return blob, stats

    def decode(self, blob):
        return self.tracer.call("codecs.decode", self.inner.decode, blob)


class TracedStore:
    """A ``CheckpointStore`` whose put/get/free calls are spans.

    Also records the peak of ``bytes_used``, which the store itself does
    not keep.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.peak_bytes = 0

    @property
    def counters(self):
        return self.inner.counters

    def put(self, slot, step, fieldval, codec, overwrite=False):
        out = self.tracer.call(
            "store.put", self.inner.put, slot, step, fieldval, codec, overwrite
        )
        self.peak_bytes = max(self.peak_bytes, self.inner.bytes_used)
        return out

    def get(self, slot, codec):
        return self.tracer.call("store.get", self.inner.get, slot, codec)

    def free(self, slot):
        return self.tracer.call("store.free", self.inner.free, slot)


@dataclass
class Outcome:
    """What one workload run measured: metrics as name -> (value, unit)."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    lines: list[str]
    tracer: Tracer | None = None


def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    Floored at the median: with 20 samples or fewer no percentile above the
    median has ten samples beyond it, and the median is reported.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 50.0
    if n <= 20:
        return p50(xs), 50.0
    return float(xs[n - 11]), 100.0 * (n - 10) / n
