"""Work that must start in a fresh interpreter, and the helper that starts it.

    python3 perfbench/child.py setup <executor workload> <seed>
    python3 perfbench/child.py advise <PerfParams JSON> <trace 0|1>
    python3 perfbench/child.py sweep

Each prints one JSON report as its last line, with ``work_s``: the seconds
spent after ``import adjckpt``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def use_checkout_src() -> bool:
    """Import adjckpt from this checkout's ``src/``; False when it is missing."""
    if not (SRC / "adjckpt" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def run_child(args: list[str]) -> tuple[float, dict]:
    """Run this script once with ``args``; (wall seconds, its JSON report)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if not use_checkout_src():
        print(f"error: no adjckpt package under {SRC}", file=sys.stderr)
        return 2
    import adjckpt  # noqa: F401  (its import time belongs to set-up)

    start = time.perf_counter()
    kind = argv[0]
    if kind == "setup":
        import executor

        executor.setup(executor.SPECS[argv[1]], int(argv[2]))
        report = {}
    elif kind == "advise":
        import planning
        from adjckpt.errors import AdjCkptError

        try:
            report = planning.advise(json.loads(argv[1]), argv[2] == "1")
        except AdjCkptError as exc:
            report = {"problems": [f"{exc.category}: {exc}"]}
    elif kind == "sweep":
        import planning

        report = planning.model_sweep()
    else:
        print(f"error: unknown child task {kind!r}", file=sys.stderr)
        return 2
    report["work_s"] = time.perf_counter() - start
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
