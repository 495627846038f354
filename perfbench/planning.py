"""The plan-paper workload: cold `adjckpt advise` queries at paper scale.

DP rows are cached per process and every `adjckpt advise` call pays the
cold build, so each query runs in a fresh interpreter (``child.py``).  The
child times only the public calls; interpreter start, ``import adjckpt``
and exit go to ``setup_s``.
"""

from __future__ import annotations

import json
import time

import inputs
from child import run_child
from adjckpt import perfmodel, schedule
from tracing import Outcome, Tracer, p50, tail

# ---------------------------------------------------------------------------
# Child side: runs inside a fresh interpreter
# ---------------------------------------------------------------------------


def advise(query: dict, trace: bool) -> dict:
    """One advise query as `adjckpt advise` runs it, then its output checks."""
    tracer = Tracer()
    if trace:
        # perfmodel calls these by module-global name, so wrapping them here
        # times the DP and the count recursion from outside the package
        for attr, span in (("recompute_count", "schedule.dp"), ("schedule_counts", "schedule.counts")):
            inner = getattr(perfmodel, attr)
            setattr(perfmodel, attr, lambda *a, _f=inner, _s=span: tracer.call(_s, _f, *a))
    p = perfmodel.PerfParams(**query)
    t0 = time.perf_counter()
    report = perfmodel.classify_regime(p)
    row = perfmodel.sweep(p, "memory", p.memory_bytes, p.memory_bytes, 1)[0]
    advise_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    perfmodel.classify_regime(p)
    perfmodel.sweep(p, "memory", p.memory_bytes, p.memory_bytes, 1)
    eval_s = time.perf_counter() - t0

    problems = []
    fit_raw = p.nsteps * p.state_bytes
    if report.threshold_uncompressed_fit != fit_raw or report.threshold_compressed_fit != fit_raw / p.ratio:
        problems.append(f"thresholds {report} do not match N*S={fit_raw:g} and N*S/ratio")
    expect = (
        perfmodel.REGIME_NO_ACTION_NEEDED
        if p.memory_bytes >= fit_raw
        else perfmodel.REGIME_COMPRESSION_FITS
        if p.memory_bytes >= fit_raw / p.ratio
        else perfmodel.REGIME_CHECKPOINT_REQUIRED
    )
    if report.regime != expect:
        problems.append(f"regime {report.regime}, thresholds say {expect}")
    if row.speedup != row.t_revolve_s / row.t_combined_s:
        problems.append(f"speedup {row.speedup!r} != t_revolve/t_combined")
    if row.m_compressed >= row.m_plain and row.p_compressed > row.p_plain:
        problems.append(f"p_compressed {row.p_compressed} > p_plain {row.p_plain}")
    generate_s = []
    stream = None
    for m, p_row in ((row.m_plain, row.p_plain), (row.m_compressed, row.p_compressed)):
        m = min(m, p.nsteps)
        t0 = time.perf_counter()
        acts = schedule.generate_schedule(p.nsteps, m)
        generate_s.append(time.perf_counter() - t0)
        stats = schedule.schedule_stats(acts, p.nsteps, m)
        if stats != schedule.schedule_counts(p.nsteps, m) or stats.recompute_steps != p_row:
            problems.append(f"stream for m={m}: {stats}, advise says p={p_row}")
        stream = (len(acts), stats)
    spans = tracer.durations()
    return {
        "advise_s": advise_s,
        "eval_s": eval_s,
        "dp_s": sum(spans["schedule.dp"]),
        "counts_s": sum(spans["schedule.counts"]),
        "generate_s": sum(generate_s),
        "actions": stream[0],
        "recompute_steps": stream[1].recompute_steps,
        "writes": stream[1].writes,
        "reads": stream[1].reads,
        "problems": problems,
        "spans": tracer.spans,
    }


def model_sweep() -> dict:
    """The 25-point memory sweep of `adjckpt sweep` at the paper defaults, cold."""
    p = perfmodel.PerfParams(**inputs.AdviseQuery(2500, 8e9, 42.0).as_args())
    lo, hi, samples = inputs.SWEEP_RANGE
    t0 = time.perf_counter()
    rows = perfmodel.sweep(p, "memory", lo, hi, samples)
    sweep_s = time.perf_counter() - t0
    problems = [
        f"row x={r.x:g} is inconsistent"
        for r in rows
        if r.speedup != r.t_revolve_s / r.t_combined_s
        or (r.m_compressed >= r.m_plain and r.p_compressed > r.p_plain)
    ]
    if len(rows) != samples or [r.x for r in rows] != sorted(r.x for r in rows):
        problems.append(f"sweep returned {len(rows)} rows out of order or short")
    return {"sweep_s": sweep_s, "points": len(rows), "problems": problems}


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool):
    """Rounds of stratified queries while time is left; returns an Outcome."""
    tracer = Tracer()
    results: list[tuple[bool, dict]] = []  # (traced, report)
    setups: list[float] = []
    lines = []
    failed = attempted = 0
    # Whole rounds only, so every stratum has as many queries; a round starts
    # only if one more of average length still ends within ``seconds``.
    start = time.perf_counter()
    rnd = 0
    while rnd == 0 or (time.perf_counter() - start) * (rnd + 1) / rnd <= seconds:
        for q in inputs.advise_round(seed, rnd):
            # a traced run repeats each query traced, for the overhead ratio
            for traced in (False, True) if trace else (False,):
                attempted += 1
                wall, rep = run_child(["advise", json.dumps(q.as_args()), str(int(traced))])
                setups.append(wall - rep["work_s"])
                if rep["problems"]:
                    failed += 1
                    lines.append(f"query {q} failed: {'; '.join(rep['problems'])}")
                    continue
                results.append((traced, rep))
                if traced:
                    tracer.op = attempted - 1
                    tracer.extend(rep["spans"])
        rnd += 1

    plain = [r["advise_s"] for t, r in results if not t]
    lines.insert(0, f"workload plan-paper: {rnd} rounds of {inputs.STRATA} strata, {len(plain)} cold queries")
    if not trace:
        value, pct = tail(plain)
        lines.append(f"op_s: {len(plain)} queries, tail is p{pct:.0f}")
        metrics = {
            "setup_s": (p50(setups), "s"),
            "op_s.p50": (p50(plain), "s"),
            "op_s.tail": (value, "s"),
        }
        return Outcome(metrics, attempted, failed, lines)

    attempted += 1
    _, sw = run_child(["sweep"])
    if sw["problems"]:
        failed += 1
        lines.append(f"sweep failed: {'; '.join(sw['problems'])}")
    traced = [r for t, r in results if t]

    def med(key):
        return p50([r[key] for r in traced])

    measured = med("advise_s")
    metrics = {
        "schedule.dp_s": (med("dp_s"), "s"),
        "schedule.counts_s": (med("counts_s"), "s"),
        "schedule.generate_s": (med("generate_s"), "s"),
        "schedule.dp_frac": (p50([r["dp_s"] / r["advise_s"] for r in traced]), "frac"),
        "schedule.actions": (med("actions"), "count"),
        "schedule.recompute_steps": (med("recompute_steps"), "count"),
        "schedule.writes": (med("writes"), "count"),
        "schedule.reads": (med("reads"), "count"),
        "perfmodel.eval_s": (med("eval_s"), "s"),
        "perfmodel.sweep_points_per_s": (sw["points"] / sw["sweep_s"], "1/s"),
        "ops_failed_frac": (failed / attempted, "frac"),
        "trace.overhead_frac": (measured / p50(plain) - 1.0 if traced and plain else 0.0, "frac"),
    }
    lines.append(
        f"dominant layer: schedule DP ({metrics['schedule.dp_frac'][0]:.3f} of traced advise time); "
        f"advise p50 {measured:.3f} s, "
        f"counts share {p50([r['counts_s'] / r['advise_s'] for r in traced]):.3f}; "
        f"25-point sweep {sw['sweep_s']:.3f} s"
    )
    return Outcome(metrics, attempted, failed, lines, tracer)
