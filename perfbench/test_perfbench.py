"""The benchmark's own tests, on problems small enough to run in seconds.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import child

assert child.use_checkout_src()

import executor  # noqa: E402
import inputs  # noqa: E402
import planning  # noqa: E402
from tracing import tail  # noqa: E402

from adjckpt import schedule  # noqa: E402

TINY = {
    "null": executor.Spec((24, 24), 40, "null", None, "null", 3, 0.0),
    "cast": executor.Spec((60,), 300, "cast", None, "cast", 8, 1e-4),
    "quant": executor.Spec((24, 24), 40, "quant", 1e-6, "null", 2, 1e-4),
}
COUNTS = [
    "schedule.actions", "schedule.recompute_steps", "schedule.writes", "schedule.reads",
    "driver.forward_steps", "driver.adjoint_steps", "store.puts", "store.gets",
    "store.bytes_written", "store.bytes_read", "ckpt_peak_bytes", "grad_rel_err",
]


def _traced_run(spec, seed=3, s=None):
    s = s or executor.setup(spec, seed)
    return executor.run("tiny", s, seconds=0.0, trace=True)


@pytest.mark.parametrize("codec", ["null", "cast"])
def test_same_seed_reproduces_counts(codec):
    first, second = _traced_run(TINY[codec]), _traced_run(TINY[codec])
    assert first.failed == second.failed == 0
    for name in COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    if codec == "null":
        assert first.metrics["grad_rel_err"][0] == 0.0
    else:
        assert 0.0 < first.metrics["grad_rel_err"][0] <= 1e-4


def test_budget_too_small_for_quant_blobs_counts_failures():
    s = executor.setup(TINY["quant"], 3)
    # as if the slot count had been taken from the small early-time blobs
    slots = 3 * s.slots
    s = dataclasses.replace(s, slots=slots, counts=schedule.schedule_counts(s.spec.nt, slots))
    out = _traced_run(None, s=s)
    assert out.failed == out.attempted == 2
    assert out.metrics["ops_failed_frac"] == (1.0, "frac")
    assert out.metrics["store.capacity_errors"] == (2, "count")


def test_wrong_gradient_is_a_failed_check():
    s = executor.setup(TINY["null"], 3)
    op = executor.gradient(s)
    reference = executor.driver.reference_adjoint(s.stepper)
    assert executor.check(s, op, reference) == (0.0, None)
    reference.gradient[3, 4] *= 1.0 + 1e-12
    assert executor.check(s, op, reference)[1] is not None


def test_advise_round_is_seeded_distinct_and_stratified():
    a, b = inputs.advise_round(7, 0), inputs.advise_round(7, 0)
    assert a == b
    assert inputs.advise_round(8, 0) != a
    queries = a + inputs.advise_round(7, 1)
    assert len({(q.nsteps, q.memory_bytes, q.ratio) for q in queries}) == len(queries)
    edges = np.geomspace(inputs.MEMORY_LO, inputs.MEMORY_HI, inputs.STRATA + 1)
    strata = sorted(int(np.searchsorted(edges, q.memory_bytes)) for q in a)
    assert strata == list(range(1, inputs.STRATA + 1))


def test_advise_child_checks_pass_on_a_small_query():
    query = inputs.AdviseQuery(nsteps=300, memory_bytes=5 * inputs.STATE_BYTES, ratio=42.0)
    report = planning.advise(query.as_args(), trace=True)
    assert report["problems"] == []
    assert report["dp_s"] > 0 and report["recompute_steps"] >= 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(list(range(30))) == (19.0, pytest.approx(100 * 20 / 30))
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_exits_nonzero_without_the_package(tmp_path: Path):
    shutil.copytree(child.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(child.HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wave2d-plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
