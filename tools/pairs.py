"""Alternating A/B pairs of the benchmark between two checkouts.

    python3 tools/pairs.py bench PARENT CHANGE --workload W --seed0 S --pairs N [--json OUT]
    python3 tools/pairs.py cold PARENT CHANGE --seed S --rounds R [--json OUT]

``bench``: pair i runs ``perfbench/run.py --workload W --seed S+i --seconds 40
--trace 0`` once in each checkout, the parent first on even pairs, one
process at a time.  For every end-to-end metric of BENCHMARK.json it prints
each pair's relative change, both sides' medians, the parent's quartile
spread and in how many pairs the change reads better.

``cold``: round r draws perfbench's ``inputs.advise_round(S, r)`` queries and
runs each in a fresh ``perfbench/child.py advise`` interpreter in both
checkouts, the parent's whole round first on even rounds.  It prints each
round's median ``advise_s`` per side: the time of a cold
``classify_regime`` plus one-point ``sweep``, without interpreter start.

Quartiles are linear interpolation (``statistics.quantiles``, inclusive),
as ``numpy.percentile`` computes them.  ``--json`` also writes every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _last_json(cmd: list[str], cwd: Path) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _order(i: int) -> tuple[int, int]:
    """Side indices in running order: the parent first on even i."""
    return (0, 1) if i % 2 == 0 else (1, 0)


def _summary(name: str, parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    per_pair = [c / p - 1.0 for p, c in zip(parent, change)]
    wins = sum((d < 0) == lower_is_better and d != 0 for d in per_pair)
    p1, pmed, p3 = _quartiles(parent)
    cmed = statistics.median(change)
    print(
        f"{name}: parent median {pmed:.6g} (IQR {p1:.6g}-{p3:.6g}), change median {cmed:.6g}, "
        f"{cmed / pmed - 1.0:+.1%}; change better in {wins} of {len(per_pair)}; "
        f"medians differ by more than the parent's IQR: {abs(cmed - pmed) > p3 - p1}"
    )
    print("  per pair: " + " ".join(f"{d:+.1%}" for d in per_pair))
    return {
        "parent": {"median": pmed, "q1": p1, "q3": p3, "iqr": p3 - p1, "runs": parent},
        "change": {"median": cmed, "runs": change},
        "change_over_parent": cmed / pmed - 1.0,
        "per_pair_change": per_pair,
        "change_better_in": f"{wins} of {len(per_pair)}",
        "resolved": abs(cmed - pmed) > p3 - p1,
    }


def bench(args) -> dict:
    roots = (args.parent, args.change)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs: list[list[dict]] = [[], []]
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in _order(i):
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            report = _last_json(cmd, roots[side])
            runs[side].append({"seed": seed, "failed": report["failed"],
                               "attempted": report["attempted"],
                               **{k: v["value"] for k, v in report["metrics"].items()}})
        print(f"pair {i} seed {seed}: " + ", ".join(
            f"{k} {runs[0][-1][k]:.4g} -> {runs[1][-1][k]:.4g}" for k in better), flush=True)
    metrics = {
        name: _summary(name, [r[name] for r in runs[0]], [r[name] for r in runs[1]],
                       better[name] == "lower")
        for name in better
    }
    return {"workload": args.workload, "seeds": [r["seed"] for r in runs[0]],
            "pairs": args.pairs, "metrics": metrics, "runs": dict(zip(SIDES, runs))}


def cold(args) -> dict:
    roots = (args.parent, args.change)
    draw = ("import child, json, sys; child.use_checkout_src(); import inputs; print(json.dumps("
            "[q.as_args() for q in inputs.advise_round(int(sys.argv[1]), int(sys.argv[2]))]))")
    medians: list[list[float]] = [[], []]
    rounds = []
    for r in range(args.rounds):
        queries = _queries(roots[1], draw, args.seed, r)
        times: list[list[float]] = [[], []]
        for side in _order(r):
            for q in queries:
                cmd = [sys.executable, "perfbench/child.py", "advise", json.dumps(q), "0"]
                report = _last_json(cmd, roots[side])
                if report["problems"]:
                    raise SystemExit(f"query {q} failed in {roots[side]}: {report['problems']}")
                times[side].append(report["advise_s"])
        for side in (0, 1):
            medians[side].append(statistics.median(times[side]))
        rounds.append({"round": r, "queries": len(queries), **dict(zip(SIDES, times))})
        print(f"round {r}: median advise_s {medians[0][-1] * 1e6:.1f} -> {medians[1][-1] * 1e6:.1f} us",
              flush=True)
    summary = _summary("advise_s (round medians)", medians[0], medians[1], True)
    return {"seed": args.seed, "rounds": args.rounds, "advise_s": summary, "runs": rounds}


def _queries(root: Path, draw: str, seed: int, rnd: int) -> list[dict]:
    proc = subprocess.run([sys.executable, "-c", draw, str(seed), str(rnd)], cwd=root / "perfbench",
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Alternating A/B pairs between two checkouts.")
    subs = parser.add_subparsers(dest="mode", required=True)
    for mode in ("bench", "cold"):
        sub = subs.add_parser(mode)
        sub.add_argument("parent", type=Path, help="checkout of the parent commit")
        sub.add_argument("change", type=Path, help="checkout of the change")
        sub.add_argument("--json", type=Path, help="write the summary and every run here")
    subs.choices["bench"].add_argument("--workload", required=True)
    subs.choices["bench"].add_argument("--seed0", type=int, required=True)
    subs.choices["bench"].add_argument("--pairs", type=int, default=10)
    subs.choices["bench"].add_argument("--seconds", type=float, default=40)
    subs.choices["cold"].add_argument("--seed", type=int, required=True)
    subs.choices["cold"].add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    out = (bench if args.mode == "bench" else cold)(args)
    if args.json:
        args.json.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
