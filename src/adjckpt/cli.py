"""Command line front end.

Subcommands: advise, sweep, verify-schedule, profile-codec, run.
Errors exit nonzero with one machine-parsable line on stderr:
``error: <category>: <detail>``.  A value breaking a model, store or codec
rule is refused by that object, built before any work.  Argparse's usage
message (exit 2) is left for text that does not parse, for ``--slots`` with
``--budget``, and for ``--slots``, ``--reps`` and shape sizes, whose owners
check them only after a simulation.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

# Planning commands load no numpy; profile-codec and run import it, with
# codecs, driver and store, when they run.
from . import perfmodel, schedule
from .errors import AdjCkptError, InvalidArgumentError

MEASURED_COLUMNS = ("measured_plain_s", "measured_combined_s", "measured_speedup",
                    "profiled_ratio", "profiled_tc_s", "profiled_td_s")
RUN_HEADER = ",".join((perfmodel.SWEEP_HEADER, *MEASURED_COLUMNS))


def _count(text: str) -> int:
    """A positive integer: a slot or repetition count, or one size of a shape."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"want a positive integer, got {text!r}")
    return int(text)


def _shape(text: str) -> tuple[int, ...]:
    return tuple(map(_count, text.lower().split("x")))


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    """One flag per PerfParams field, each with that field as its ``dest``."""
    sub.add_argument("--nsteps", type=int, default=2500, help="number of forward steps")
    sub.add_argument("--state-bytes", type=float, default=900e6)
    sub.add_argument("--bandwidth", type=float, default=10e9, help="bytes/s")
    sub.add_argument("--memory", dest="memory_bytes", metavar="MEMORY", type=float,
                     default=8e9, help="checkpoint budget in bytes")
    sub.add_argument("--step-cost", type=float, default=0.1, help="seconds per step")
    sub.add_argument("--ratio", type=float, default=42.0, help="compression ratio")
    sub.add_argument("--tc", dest="compress_time", metavar="TC", type=float, default=0.05,
                     help="compress seconds per state")
    sub.add_argument("--td", dest="decompress_time", metavar="TD", type=float, default=0.05,
                     help="decompress seconds per state")


def _model_params(args) -> perfmodel.PerfParams:
    names = (f.name for f in fields(perfmodel.PerfParams))
    return perfmodel.PerfParams(**{name: getattr(args, name) for name in names})


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidArgumentError(f"--range wants lo:hi:samples, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidArgumentError(f"--range wants numbers lo:hi:samples, got {text!r}")


def cmd_advise(args) -> int:
    p = _model_params(args)
    report = perfmodel.classify_regime(p)
    row = perfmodel.sweep(p, "memory", p.memory_bytes, p.memory_bytes, 1)[0]

    def plain(value) -> str:
        """A plain-side value, None where no raw state fits the budget."""
        return "infeasible" if value is None else repr(value)

    lines = [
        f"regime: {report.regime}",
        f"threshold_compressed_fit_bytes: {report.threshold_compressed_fit!r}",
        f"threshold_uncompressed_fit_bytes: {report.threshold_uncompressed_fit!r}",
        f"m_plain: {row.m_plain}",
        f"m_compressed: {row.m_compressed}",
        f"p_plain: {plain(row.p_plain)}",
        f"p_compressed: {row.p_compressed}",
        f"t_revolve_s: {plain(row.t_revolve_s)}",
        f"t_combined_s: {row.t_combined_s!r}",
        f"speedup: {plain(row.speedup)}",
    ]
    if report.regime == perfmodel.REGIME_NO_ACTION_NEEDED:
        rec = "no checkpointing or compression needed: the whole trajectory fits in memory"
    elif report.regime == perfmodel.REGIME_COMPRESSION_FITS:
        rec = "compression alone fits the trajectory; checkpointing is avoidable"
    elif row.speedup is None:
        rec = "combine checkpointing with compression: only compressed checkpoints fit the budget"
    elif row.speedup > 1.0:
        rec = f"combine checkpointing with compression (predicted speedup {row.speedup:.3f})"
    else:
        rec = f"plain checkpointing predicted faster (speedup {row.speedup:.3f})"
    lines.append(f"recommendation: {rec}")
    print("\n".join(lines))
    _emit(perfmodel.SWEEP_HEADER + "\n" + row.csv() + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    p = _model_params(args)
    lo, hi, samples = _parse_range(args.range)
    rows = perfmodel.sweep(p, args.axis, lo, hi, samples)
    _emit(perfmodel.rows_to_csv(rows), args.out)
    return 0


def cmd_verify_schedule(args) -> int:
    n, m = args.nsteps, args.slots
    if args.check:
        actions = schedule.parse_schedule(Path(args.check).read_text())
    else:
        actions = schedule.generate_schedule(n, m)
    stats = schedule.schedule_stats(actions, n, m)
    expected = schedule.recompute_count(n, m)
    # The machine can carry a state down where Revolve replays it, so a
    # checked stream may beat the Revolve count; a generated one must hit it.
    cheaper = args.check is not None and stats.recompute_steps < expected
    if stats.recompute_steps != expected and not cheaper:
        raise InvalidArgumentError(
            f"schedule replays {stats.recompute_steps} steps, the Revolve count is {expected}"
        )
    if args.out or not args.check:
        _emit(schedule.format_schedule(actions), args.out)
    print(
        f"ok: n={n} m={m} recompute_steps={stats.recompute_steps} "
        f"writes={stats.writes} reads={stats.reads} peak_slots={stats.peak_slots}"
        + (f", cheaper than the Revolve count {expected}" if cheaper else "")
    )
    return 0


def _make_field(kind: str, shape: tuple[int, ...], seed: int):
    import numpy as np

    from . import driver

    if kind == "wavefield":
        params = driver.homogeneous_params(shape, nt=3 * max(shape))
        stepper = driver.WaveStepper(params)
        state = stepper.initial_state()
        for i in range(params.nt):
            state = stepper.forward(state, i)
        return np.ascontiguousarray(state[1])  # C-ordered, as a sweep hands states to codecs
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.uniform(-1.0, 1.0, size=shape)
    if kind == "gauss":
        return rng.normal(size=shape)
    if kind == "sine":
        axes = [np.linspace(0, 6 * np.pi, s) for s in shape]
        return np.sin(np.add.reduce(np.meshgrid(*axes, indexing="ij")))
    raise InvalidArgumentError(f"unknown field kind {kind!r}")


def cmd_profile_codec(args) -> int:
    from . import codecs

    codec = codecs.get_codec(args.codec, tolerance=args.tolerance)
    fieldval = _make_field(args.field, args.shape, args.seed)
    stats = codecs.profile(codec, fieldval, repetitions=args.reps)
    header = "codec,input_bytes,output_bytes,ratio,t_c_s,t_d_s,max_abs_error"
    row = (
        f"{args.codec},{stats.input_bytes},{stats.output_bytes},{stats.ratio!r},"
        f"{stats.t_c!r},{stats.t_d!r},{stats.max_abs_error!r}"
    )
    _emit(header + "\n" + row + "\n", args.out)
    return 0


# timed repetitions of each side of `run`, after one warm-up each
_RUN_REPS = 3


def cmd_run(args) -> int:
    import numpy as np

    from . import codecs, driver
    from .store import CheckpointStore

    params = driver.homogeneous_params(args.grid, nt=args.nt)
    # the source at the receivers' depth, so that data and gradient are not ~0; 1-D keeps its own
    params = replace(params, source=(params.source[0], *params.receivers[0][1:]))
    stepper = driver.WaveStepper(params)
    codec = codecs.get_codec(args.codec, tolerance=args.tolerance)
    null = codecs.NullCodec()

    state_bytes = stepper.initial_state().nbytes
    budget = state_bytes * args.slots + 1 if args.budget is None else args.budget
    probe = CheckpointStore(budget)  # refuses a bad budget before any work
    p, samples = driver.calibrate(stepper, codec, budget)

    def slots_held(cdc) -> int:
        """Budget over the most bytes the store charges for a sampled state;
        a state the budget cannot hold raises the store's CapacityError."""
        charged = 0
        for state in samples:
            probe.put(0, 0, state, cdc, overwrite=True)
            charged = max(charged, probe.bytes_used)
        return int(budget // charged)

    m_plain, m_comb = slots_held(null), slots_held(codec)
    row = perfmodel.evaluate(p, budget, m_plain, m_comb)

    def timed_run(m: int, cdc) -> tuple[float, driver.WaveAdjoint]:
        acts = schedule.generate_schedule(params.nt, m)
        store = CheckpointStore(budget_bytes=budget)
        t0 = time.perf_counter()
        result = driver.execute(acts, stepper, store, cdc)
        return time.perf_counter() - t0, result.adjoint

    # a warm-up per side, then interleaved repetitions, so that a transient
    # slowdown hits both sides; each side reports its fastest run
    sides = ((m_plain, null), (m_comb, codec))
    plain, comb = (timed_run(m, cdc)[1] for m, cdc in sides)
    runs = [[timed_run(m, cdc)[0] for m, cdc in sides] for _ in range(_RUN_REPS)]
    measured_plain, measured_comb = map(min, zip(*runs))
    g, g_norm = plain.gradient, np.linalg.norm(plain.gradient)
    err = "the plain gradient is all zeros"
    if g_norm:  # the plain side's null-codec gradient is the full-storage one, bit for bit
        err = f"combined rel err {np.linalg.norm(comb.gradient - g) / g_norm:.3g}"

    measured = (measured_plain, measured_comb, measured_plain / measured_comb,
                p.ratio, p.compress_time, p.decompress_time)  # MEASURED_COLUMNS
    grid = "x".join(map(str, args.grid))
    print(f"grid={grid} nt={params.nt} codec={args.codec} budget_bytes={budget:.6g}")
    print(f"m_plain={m_plain} m_compressed={m_comb} profiled_ratio={p.ratio:.3f}")
    print(
        f"model:    plain {row.t_revolve_s:.4f}s  combined {row.t_combined_s:.4f}s  "
        f"speedup {row.speedup:.3f}"
    )
    print(
        f"measured: plain {measured_plain:.4f}s  combined {measured_comb:.4f}s  "
        f"speedup {measured_plain / measured_comb:.3f}"
    )
    print(f"gradient: misfit {plain.misfit_value:.6g}  max|g| {np.abs(g).max():.3g}  {err}")
    _emit(RUN_HEADER + "\n" + ",".join((row.csv(), *map(repr, measured))) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjckpt",
        description="Checkpoint/recompute planning and execution with compressed checkpoints",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("advise", help="classify the memory regime and predict the speedup")
    _add_model_flags(sub)
    sub.add_argument("--out", help="also write the machine-readable CSV row here")
    sub.set_defaults(func=cmd_advise)

    sub = subs.add_parser("sweep", help="model speedup along one axis, CSV out")
    _add_model_flags(sub)
    sub.add_argument("--axis", choices=perfmodel.SWEEP_AXES, required=True)
    sub.add_argument("--range", required=True, help="lo:hi:samples")
    sub.add_argument("--out", help="CSV path (default stdout)")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("verify-schedule", help="print or validate a checkpoint schedule")
    sub.add_argument("--nsteps", type=int, required=True)
    sub.add_argument("--slots", type=int, required=True)
    sub.add_argument("--check", help="validate this schedule file instead of generating")
    sub.add_argument("--out", help="write the schedule text here")
    sub.set_defaults(func=cmd_verify_schedule)

    sub = subs.add_parser("profile-codec", help="measure one codec, CSV row out")
    sub.add_argument("--codec", required=True, choices=["null", "cast", "quant"])
    sub.add_argument("--tolerance", type=float, help="absolute error bound (quant)")
    sub.add_argument("--shape", type=_shape, default="64x64", help="field shape, e.g. 128 or 64x64")
    sub.add_argument("--field", default="wavefield", choices=["noise", "gauss", "sine", "wavefield"])
    sub.add_argument("--reps", type=_count, default=5)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="CSV path (default stdout)")
    sub.set_defaults(func=cmd_profile_codec)

    sub = subs.add_parser("run", help="execute the toy benchmark, measured vs predicted")
    sub.add_argument("--grid", type=_shape, default="120x120", help="grid, e.g. 120x120 or 200")
    sub.add_argument("--nt", type=int, default=60, help="timestep count")
    size = sub.add_mutually_exclusive_group()
    size.add_argument("--slots", type=_count, default=3, help="uncompressed slot count; sets the budget")
    size.add_argument("--budget", type=float, help="budget bytes (default: --slots raw states, plus 1)")
    sub.add_argument("--codec", default="cast", choices=["null", "cast", "quant"])
    sub.add_argument("--tolerance", type=float, default=1e-6, help="absolute error bound (quant)")
    sub.add_argument("--out", help="CSV path (default stdout)")
    sub.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AdjCkptError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
