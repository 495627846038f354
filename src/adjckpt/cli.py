"""Command line front end.

Subcommands: advise, sweep, verify-schedule, profile-codec, run.
Errors exit nonzero with one machine-parsable line on stderr:
``error: <category>: <detail>``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import codecs, driver, perfmodel, schedule
from .errors import AdjCkptError, InvalidArgumentError
from .store import CheckpointStore

RUN_HEADER = (
    perfmodel.SWEEP_HEADER
    + ",measured_plain_s,measured_combined_s,measured_speedup,profiled_ratio,profiled_tc_s,profiled_td_s"
)


def _positive(name):
    def parse(text: str) -> float:
        try:
            val = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be a number, got {text!r}")
        if val <= 0:
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {text}")
        return val

    return parse


def _shape(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(s) for s in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape wants sizes joined by 'x', got {text!r}")
    if min(shape) < 1:
        raise argparse.ArgumentTypeError(f"shape sizes must be positive, got {text!r}")
    return shape


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nsteps", type=int, default=2500, help="number of forward steps")
    sub.add_argument("--state-bytes", type=_positive("state-bytes"), default=900e6)
    sub.add_argument("--bandwidth", type=_positive("bandwidth"), default=10e9, help="bytes/s")
    sub.add_argument("--memory", type=_positive("memory"), default=8e9, help="checkpoint budget in bytes")
    sub.add_argument("--step-cost", type=_positive("step-cost"), default=0.1, help="seconds per step")
    sub.add_argument("--ratio", type=_positive("ratio"), default=42.0, help="compression ratio")
    sub.add_argument("--tc", type=_positive("tc"), default=0.05, help="compress seconds per state")
    sub.add_argument("--td", type=_positive("td"), default=0.05, help="decompress seconds per state")


def _model_params(args) -> perfmodel.PerfParams:
    return perfmodel.PerfParams(
        step_cost=args.step_cost,
        nsteps=args.nsteps,
        state_bytes=args.state_bytes,
        bandwidth=args.bandwidth,
        memory_bytes=args.memory,
        ratio=args.ratio,
        compress_time=args.tc,
        decompress_time=args.td,
    )


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
    lines = [
        f"regime: {report.regime}",
        f"threshold_compressed_fit_bytes: {report.threshold_compressed_fit!r}",
        f"threshold_uncompressed_fit_bytes: {report.threshold_uncompressed_fit!r}",
        f"m_plain: {row.m_plain}",
        f"m_compressed: {row.m_compressed}",
        f"p_plain: {row.p_plain}",
        f"p_compressed: {row.p_compressed}",
        f"t_revolve_s: {row.t_revolve_s!r}",
        f"t_combined_s: {row.t_combined_s!r}",
        f"speedup: {row.speedup!r}",
    ]
    if report.regime == perfmodel.REGIME_NO_ACTION_NEEDED:
        rec = "no checkpointing or compression needed: the whole trajectory fits in memory"
    elif report.regime == perfmodel.REGIME_COMPRESSION_FITS:
        rec = "compression alone fits the trajectory; checkpointing is avoidable"
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
    if args.out:
        Path(args.out).write_text(schedule.format_schedule(actions))
    elif not args.check:
        sys.stdout.write(schedule.format_schedule(actions))
    print(
        f"ok: n={n} m={m} recompute_steps={stats.recompute_steps} "
        f"writes={stats.writes} reads={stats.reads} peak_slots={stats.peak_slots}"
        + (f", cheaper than the Revolve count {expected}" if cheaper else "")
    )
    return 0


_FIELD_MAKERS = {
    "noise": lambda shape, rng: rng.uniform(-1.0, 1.0, size=shape),
    "gauss": lambda shape, rng: rng.normal(size=shape),
    "sine": lambda shape, rng: np.sin(
        np.add.reduce(np.meshgrid(*[np.linspace(0, 6 * np.pi, s) for s in shape], indexing="ij"))
    ),
}


def _make_field(kind: str, shape: tuple[int, ...], seed: int) -> np.ndarray:
    if kind == "wavefield":
        if len(shape) > 2:
            raise InvalidArgumentError(f"the wavefield field is 1D or 2D, got shape {shape}")
        params = driver.homogeneous_params(shape, nt=3 * max(shape))
        stepper = driver.WaveStepper(params)
        state = stepper.initial_state()
        for i in range(params.nt):
            state = stepper.forward(state, i)
        return state[1]
    maker = _FIELD_MAKERS.get(kind)
    if maker is None:
        raise InvalidArgumentError(f"unknown field kind {kind!r}")
    return maker(shape, np.random.default_rng(seed))


def cmd_profile_codec(args) -> int:
    fieldval = _make_field(args.field, args.shape, args.seed)
    codec = codecs.get_codec(args.codec, tolerance=args.tolerance, rate=args.rate)
    stats = codecs.profile(codec, fieldval, repetitions=args.reps)
    header = "codec,input_bytes,output_bytes,ratio,t_c_s,t_d_s,max_abs_error"
    row = (
        f"{args.codec},{stats.input_bytes},{stats.output_bytes},{stats.ratio!r},"
        f"{stats.t_c!r},{stats.t_d!r},{stats.max_abs_error!r}"
    )
    _emit(header + "\n" + row + "\n", args.out)
    return 0


def cmd_run(args) -> int:
    params = driver.homogeneous_params(args.grid, nt=args.nt)
    stepper = driver.WaveStepper(params)
    codec = codecs.get_codec(args.codec, tolerance=args.tolerance)
    null = codecs.NullCodec()

    plain_blob_bytes = len(null.encode(stepper.initial_state())[0])
    budget = plain_blob_bytes * args.slots + 1 if args.budget is None else args.budget
    p, samples = driver.calibrate(stepper, codec, budget)
    comp_blob_bytes = max(len(codec.encode(s)[0]) for s in samples)
    m_plain = int(budget // plain_blob_bytes)
    m_comb = int(budget // comp_blob_bytes)
    if m_plain < 1 or m_comb < 1:
        raise InvalidArgumentError(f"budget {budget:.3g} B holds no checkpoint")
    row = perfmodel.evaluate(p, budget, m_plain, m_comb)

    def timed_run(m: int, cdc) -> float:
        acts = schedule.generate_schedule(params.nt, m)
        store = CheckpointStore(budget_bytes=budget)
        t0 = time.perf_counter()
        driver.execute(acts, stepper, store, cdc)
        return time.perf_counter() - t0

    measured_plain = timed_run(m_plain, null)
    measured_comb = timed_run(m_comb, codec)

    csv = RUN_HEADER + "\n" + row.csv() + (
        f",{measured_plain!r},{measured_comb!r},{measured_plain / measured_comb!r},"
        f"{p.ratio!r},{p.compress_time!r},{p.decompress_time!r}\n"
    )
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
    _emit(csv, args.out)
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
    sub.add_argument("--codec", required=True, choices=["null", "cast", "quant", "rate"])
    sub.add_argument("--tolerance", type=float, help="absolute error bound (quant)")
    sub.add_argument("--rate", type=float, help="target bits per value (rate)")
    sub.add_argument("--shape", type=_shape, default="64x64", help="field shape, e.g. 128 or 64x64")
    sub.add_argument("--field", default="wavefield", choices=["noise", "gauss", "sine", "wavefield"])
    sub.add_argument("--reps", type=int, default=5)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="CSV path (default stdout)")
    sub.set_defaults(func=cmd_profile_codec)

    sub = subs.add_parser("run", help="execute the toy benchmark, measured vs predicted")
    sub.add_argument("--grid", type=_shape, default="120x120", help="grid, e.g. 120x120 or 200")
    sub.add_argument("--nt", type=int, default=60, help="timestep count")
    sub.add_argument("--slots", type=int, default=3, help="uncompressed slot count; sets the budget")
    sub.add_argument(
        "--budget", type=_positive("budget"), help="budget bytes (default: --slots null checkpoints)"
    )
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
