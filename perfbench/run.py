"""The adjckpt benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the last line is a JSON result holding every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric, and the spans go to ``.perfbench/trace-<workload>-<seed>.csv``.
A per-layer metric of a layer the workload never calls reads 0.  Any failed
operation or output check makes the exit code nonzero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from child import run_child, use_checkout_src

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan-paper", "wave2d-plain", "wave2d-quant")


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import executor
    import planning

    declared = _declared(trace)
    if name == "plan-paper":
        out = planning.run(seed, seconds, trace)
    else:
        s = executor.setup(executor.SPECS[name], seed)
        time_setup = None if trace else (lambda: run_child(["setup", name, str(seed)])[0])
        out = executor.run(name, s, seconds, trace, time_setup)
    unknown = set(out.metrics) - set(declared)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric, unit in declared.items():
        value, got = out.metrics.get(metric, (0.0, unit))
        if got != unit:
            raise RuntimeError(f"{metric} measured in {got}, BENCHMARK.json says {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    skipped = [m for m in declared if m not in out.metrics]
    if skipped:
        out.lines.append(f"layers not called by {name} (reported as 0): {', '.join(skipped)}")
    if out.tracer is not None:
        out.tracer.write(ROOT / ".perfbench" / f"trace-{name}-{seed}.csv")
    for line in out.lines:
        print(line)
    for metric, m in metrics.items():
        print(f"{metric} = {m['value']!r} {m['unit']}")
    correct = out.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process; nonzero if any fails."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout_src():
        print(f"error: no adjckpt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
