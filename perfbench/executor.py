"""Executor workloads: one operation is one checkpointed gradient.

A gradient is ``generate_schedule`` + a new ``CheckpointStore`` +
``driver.execute``, the plain or the compressed side of ``adjckpt run``.
Every gradient is checked against ``driver.reference_adjoint`` and every
generated stream against ``schedule_stats``/``schedule_counts``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import inputs
from tracing import Outcome, TracedCodec, TracedStepper, TracedStore, Tracer, p50, tail

from adjckpt import codecs, driver, perfmodel, schedule
from adjckpt.errors import AdjCkptError, CapacityError
from adjckpt.store import CheckpointStore


@dataclass(frozen=True)
class Spec:
    shape: tuple[int, ...]
    nt: int
    codec: str
    tolerance: float | None
    budget_codec: str  # the budget is `budget_blobs` blobs of this codec
    budget_blobs: int
    max_grad_rel_err: float  # 0.0 demands a bit-identical gradient


SPECS = {
    "wave2d-plain": Spec((200, 200), 200, "null", None, "null", 3, 0.0),
    "wave2d-quant": Spec((200, 200), 200, "quant", 1e-6, "null", 3, 1e-4),
}

# The slot count comes from the largest blob among PROBES states spread over
# the whole trajectory, the last storable state included.  Quant blobs grow
# about 3x as the wavefield spreads, so the first state would overcount.
PROBES = 20
# fresh-interpreter set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 5


@dataclass
class Setup:
    spec: Spec
    stepper: driver.WaveStepper
    codec: object
    budget: int
    slots: int
    last_state: np.ndarray
    counts: schedule.ScheduleStats
    dp_s: float
    counts_s: float


def setup(spec: Spec, seed: int) -> Setup:
    """Everything before the first gradient, except the reference adjoint."""
    problem = inputs.wave_problem(spec.shape, spec.nt, seed)
    stepper = driver.WaveStepper(problem.params, problem.d_obs)
    codec = codecs.get_codec(spec.codec, tolerance=spec.tolerance)
    state = stepper.initial_state()
    blob_unit = len(codecs.get_codec(spec.budget_codec).encode(state)[0])
    budget = spec.budget_blobs * blob_unit
    every = max(1, spec.nt // PROBES)
    largest = len(codec.encode(state)[0])
    for i in range(spec.nt - 1):
        state = stepper.forward(state, i)
        if (i + 1) % every == 0 or i + 1 == spec.nt - 1:
            largest = max(largest, len(codec.encode(state)[0]))
    slots = min(budget // largest, spec.nt)
    t0 = time.perf_counter()
    schedule.recompute_count(spec.nt, slots)
    t1 = time.perf_counter()
    counts = schedule.schedule_counts(spec.nt, slots)
    t2 = time.perf_counter()
    return Setup(spec, stepper, codec, budget, slots, state, counts, t1 - t0, t2 - t1)


@dataclass
class Op:
    seconds: float
    traced: bool
    actions: list | None = None
    result: driver.ExecutionResult | None = None
    store: CheckpointStore | None = None
    peak_bytes: int = 0
    error: AdjCkptError | None = None


def gradient(s: Setup, tracer: Tracer | None = None, codec=None) -> Op:
    """One timed gradient; with a tracer, the layers it calls record spans."""
    n = s.spec.nt
    store = CheckpointStore(s.budget)
    op = Op(0.0, tracer is not None, store=store)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            op.actions = schedule.generate_schedule(n, s.slots)
            op.result = driver.execute(op.actions, s.stepper, store, s.codec)
        else:
            traced_store = TracedStore(store, tracer)
            root = tracer.begin("op")
            try:
                op.actions = tracer.call(
                    "schedule.generate", schedule.generate_schedule, n, s.slots
                )
                op.result = tracer.call(
                    "driver.execute",
                    driver.execute,
                    op.actions,
                    TracedStepper(s.stepper, tracer),
                    traced_store,
                    codec,
                )
            finally:
                tracer.end(root)
                op.peak_bytes = traced_store.peak_bytes
    except AdjCkptError as exc:
        op.error = exc
    op.seconds = time.perf_counter() - t0
    return op


def check(s: Setup, op: Op, reference) -> tuple[float, str | None]:
    """(gradient relative error, reason the output is wrong or None)."""
    n = s.spec.nt
    stats = schedule.schedule_stats(op.actions, n, s.slots)
    if stats != s.counts:
        return float("nan"), f"stream stats {stats} differ from schedule_counts {s.counts}"
    es = op.result.stats
    if es.adjoint_steps != n or es.primal_steps != n + stats.recompute_steps:
        return float("nan"), f"executed {es.primal_steps}/{es.adjoint_steps} steps"
    g, g_ref = op.result.adjoint.gradient, reference.gradient
    err = float(np.linalg.norm(g - g_ref) / np.linalg.norm(g_ref))
    if s.spec.max_grad_rel_err == 0.0:
        if not np.array_equal(g, g_ref):
            return err, "gradient is not bit-identical to the reference"
    elif not err <= s.spec.max_grad_rel_err:
        return err, f"gradient relative error {err:.3g} above {s.spec.max_grad_rel_err:g}"
    return err, None


def _calibrated_prediction(s: Setup, d: dict[str, list[float]], codec: TracedCodec) -> float:
    """Model gradient time from this run's span durations ``d``, as `adjckpt run` calibrates."""
    state_bytes = s.last_state.nbytes
    null_t = codecs.profile(codecs.NullCodec(), s.last_state, repetitions=3).t_c
    p = perfmodel.PerfParams(
        step_cost=p50(d["driver.forward"]),
        nsteps=s.spec.nt,
        state_bytes=state_bytes,
        bandwidth=state_bytes / max(null_t, 1e-9),
        memory_bytes=s.budget,
        ratio=max(1.0, float(np.mean(codec.ratios))),
        compress_time=p50(d["codecs.encode"]),
        decompress_time=p50(d["codecs.decode"]),
    )
    m = s.slots
    base = perfmodel.t_naive(p) + perfmodel.recompute_overhead(p, m)
    if s.spec.codec == "null":
        return base + perfmodel.storage_overhead_plain(p, m)
    return base + perfmodel.storage_overhead_compressed(p, m)


def run(name: str, s: Setup, seconds: float, trace: bool, time_setup=None) -> Outcome:
    """Closed loop of gradients for ``seconds``; traced runs alternate with plain ones.

    ``time_setup()`` times one fresh-interpreter set-up; an untraced run
    calls it ``SETUP_SAMPLES`` times and reports the median as ``setup_s``.
    """
    reference = driver.reference_adjoint(s.stepper)
    tracer = Tracer() if trace else None
    traced_codec = TracedCodec(s.codec, tracer) if trace else None
    ops: list[Op] = []
    errs: list[float] = []
    lines = [
        f"workload {name}: grid {'x'.join(map(str, s.spec.shape))} nt={s.spec.nt} "
        f"codec={s.spec.codec} budget={s.budget} B slots={s.slots} "
        f"p={s.counts.recompute_steps} writes={s.counts.writes} reads={s.counts.reads}"
    ]
    setups: list[float] = []
    # A gradient starts only if one more of median length still ends within
    # ``seconds``, so a run lasts about ``seconds`` even when a gradient takes
    # a third of it.
    start = time.perf_counter()
    while len(ops) < (2 if trace else 1) or (
        time.perf_counter() - start + p50([op.seconds for op in ops]) <= seconds
    ):
        # Set-ups are spread evenly over the run, between gradients, so that
        # their median spans the same stretch of host speed as the gradients'.
        elapsed = time.perf_counter() - start
        if time_setup and len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(time_setup())
        if trace and len(ops) % 2 == 1:
            tracer.op = len(ops)
            op = gradient(s, tracer, traced_codec)
        else:
            op = gradient(s)
        ops.append(op)
        if op.error is None:
            err, why = check(s, op, reference)
            if why:
                op.error = AdjCkptError(why)
            else:
                errs.append(err)
        if op.error is not None:
            lines.append(f"op {len(ops) - 1} failed: {op.error}")

    good = [op for op in ops if op.error is None]
    plain = [op.seconds for op in good if not op.traced]
    failed = len(ops) - len(good)
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup())
        value, pct = tail(plain)
        lines.append(f"op_s: {len(plain)} gradients, tail is p{pct:.0f}")
        metrics = {
            "setup_s": (p50(setups), "s"),
            "op_s.p50": (p50(plain), "s"),
            "op_s.tail": (value, "s"),
        }
        return Outcome(metrics, len(ops), failed, lines)

    capacity_errors = sum(isinstance(op.error.__cause__, CapacityError) for op in ops if op.error)
    ok = {i for i, op in enumerate(ops) if op.traced and op.error is None}
    traced = [ops[i] for i in sorted(ok)]
    op_total = sum(op.seconds for op in traced)
    measured = p50([op.seconds for op in traced])
    selfs = tracer.self_times(ok)
    d = tracer.durations(ok)
    predicted = eval_s = 0.0
    if traced:
        t0 = time.perf_counter()
        predicted = _calibrated_prediction(s, d, traced_codec)
        eval_s = time.perf_counter() - t0
    state_bytes = s.last_state.nbytes
    enc, dec, fwd, adj = (d[k] for k in ("codecs.encode", "codecs.decode", "driver.forward", "driver.adjoint"))
    last = traced[-1] if traced else None
    counters = last.store.counters if last else None
    es = last.result.stats if last else None

    def share(*names):
        return sum(sum(selfs[k]) for k in names) / op_total if op_total else 0.0

    def rate(nbytes, times):
        return len(times) * nbytes / sum(times) / 1e6 if times else 0.0

    metrics = {
        "schedule.dp_s": (s.dp_s, "s"),
        "schedule.counts_s": (s.counts_s, "s"),
        "schedule.generate_s": (p50(d["schedule.generate"]), "s"),
        "schedule.actions": (len(last.actions) if last else 0, "count"),
        "schedule.recompute_steps": (s.counts.recompute_steps, "count"),
        "schedule.writes": (s.counts.writes, "count"),
        "schedule.reads": (s.counts.reads, "count"),
        "perfmodel.eval_s": (eval_s, "s"),
        "perfmodel.pred_rel_err": (abs(predicted - measured) / measured if traced else 0.0, "frac"),
        "codecs.frac": (share("codecs.encode", "codecs.decode"), "frac"),
        "codecs.encode_MBps": (rate(state_bytes, enc), "MB/s"),
        "codecs.decode_MBps": (rate(state_bytes, dec), "MB/s"),
        "codecs.ratio": (float(np.mean(traced_codec.ratios)) if enc else 0.0, "ratio"),
        "codecs.max_abs_err": (codecs.profile(s.codec, s.last_state, 1).max_abs_error, "abs"),
        "store.self_frac": (share("store.put", "store.get", "store.free"), "frac"),
        "store.puts": (counters.puts if counters else 0, "count"),
        "store.gets": (counters.gets if counters else 0, "count"),
        "store.bytes_written": (counters.bytes_written if counters else 0, "B"),
        "store.bytes_read": (counters.bytes_read if counters else 0, "B"),
        "store.capacity_errors": (capacity_errors, "count"),
        "driver.step_frac": (share("driver.forward", "driver.adjoint"), "frac"),
        "driver.execute_self_frac": (share("driver.execute"), "frac"),
        "driver.forward_steps": (es.primal_steps if es else 0, "count"),
        "driver.adjoint_steps": (es.adjoint_steps if es else 0, "count"),
        "driver.forward_steps_per_s": (1.0 / p50(fwd) if fwd else 0.0, "1/s"),
        "driver.adjoint_steps_per_s": (1.0 / p50(adj) if adj else 0.0, "1/s"),
        # computed from array sizes, not measured traffic: per step 3 fields
        # are read (u_prev, u_curr, slowness_sq) and 3 written (u_next and
        # the stacked output pair)
        "driver.forward_GBps_computed": (rate(3 * state_bytes, fwd) / 1e3, "GB/s"),
        "ckpt_peak_bytes": (max((op.peak_bytes for op in traced), default=0), "B"),
        "grad_rel_err": (p50(errs) if errs else 0.0, "frac"),
        "ops_failed_frac": (failed / len(ops), "frac"),
        "trace.overhead_frac": (measured / p50(plain) - 1.0 if traced and plain else 0.0, "frac"),
    }
    layers = {"driver": ("driver.forward", "driver.adjoint"), "codecs": ("codecs.encode", "codecs.decode")}
    top = max(layers, key=lambda k: share(*layers[k]))
    lines.append(
        f"dominant layer: {top} ({share(*layers[top]):.3f} of traced gradient time); self time shares: "
        + ", ".join(f"{k} {share(k):.3f}" for k in sorted(selfs))
    )
    lines.append(
        f"per call p50: encode {p50(enc) * 1e3:.3f} ms, decode {p50(dec) * 1e3:.3f} ms, "
        f"forward {p50(fwd) * 1e3:.3f} ms, adjoint {p50(adj) * 1e3:.3f} ms; "
        f"model {predicted:.4f} s vs measured {measured:.4f} s"
    )
    return Outcome(metrics, len(ops), failed, lines, tracer)
