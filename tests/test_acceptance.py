"""Acceptance gate: one test per shipping criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest failure marks the criterion failed.
"""

import csv
import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from adjckpt import cli, codecs, driver, perfmodel, schedule
from adjckpt.store import CheckpointStore
from oracles import dot_test, misfit


def _announce(num, text):
    print(f"\ncriterion {num} PASS: {text}")


def test_criterion_1_single_slot_closed_form():
    t0 = time.time()
    for n in range(1, 101):
        assert schedule.recompute_count(n, 1) == n * (n - 1) // 2
    assert time.time() - t0 < 1.0
    _announce(1, "p(N,1) equals N(N-1)/2 for all N <= 100")


def test_criterion_2_schedule_optimality_accounting():
    t0 = time.time()
    for n in range(1, 201):
        for m in range(1, 21):
            stats = schedule.schedule_stats(schedule.generate_schedule(n, m), n, m)
            assert stats.recompute_steps == schedule.recompute_count(n, m), (n, m)
            assert stats.peak_slots <= m

    @functools.lru_cache(maxsize=None)
    def brute(n, m):
        if m >= n:
            return 0
        if m == 1:
            return n * (n - 1) // 2
        return min(k + brute(k, m) + brute(n - k, m - 1) for k in range(1, n))

    for n in range(1, 13):
        for m in range(1, 5):
            assert schedule.recompute_count(n, m) == brute(n, m)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(2, f"replayed steps match the DP for N<=200, M<=20 and the brute-force oracle ({elapsed:.1f}s)")


@pytest.mark.parametrize("nt", [20, 37, 60])
@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_criterion_3_checkpointing_transparency(nt, m):
    params = driver.homogeneous_params((60,), nt=nt)
    stepper = driver.WaveStepper(params)
    reference = driver.reference_adjoint(stepper)
    codec = codecs.NullCodec()
    store = CheckpointStore(budget_bytes=m * stepper.initial_state().nbytes)
    result = driver.execute(schedule.generate_schedule(nt, m), stepper, store, codec)
    assert np.array_equal(result.adjoint.gradient, reference.gradient)
    assert np.array_equal(result.adjoint.lam, reference.lam)
    assert result.adjoint.misfit_value == reference.misfit_value
    assert result.stats.primal_steps == nt + schedule.recompute_count(nt, m)
    _announce(3, f"null-codec adjoint bit-identical to full storage at nt={nt}, M={m}")


def test_criterion_4_adjoint_correctness():
    params = driver.homogeneous_params((61,), nt=50)
    discrepancy = dot_test(params, trials=20, seed=0)
    assert discrepancy <= 1e-10

    base = driver.homogeneous_params((51,), nt=48)
    perturbation = 1.0 + 0.05 * np.sin(np.linspace(0, 3 * np.pi, 51))
    d_obs = driver.simulate(replace(base, slowness_sq=base.slowness_sq * perturbation))
    adj = driver.reference_adjoint(driver.WaveStepper(base, d_obs=d_obs))
    x = np.linspace(0, 1, 51)
    dm = np.sin(np.pi * x) * np.sin(5 * x) * base.slowness_sq.mean()
    directional = float(np.vdot(adj.gradient, dm).real)

    def objective(m):
        return misfit(driver.simulate(replace(base, slowness_sq=m)), d_obs)

    best = np.inf
    for h in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        fd = (objective(base.slowness_sq + h * dm) - objective(base.slowness_sq - h * dm)) / (2 * h)
        best = min(best, abs(fd - directional) / abs(fd))
    assert best <= 1e-4
    _announce(4, f"dot test {discrepancy:.2e} <= 1e-10; gradient vs central differences {best:.2e} <= 1e-4")


def test_criterion_5_codec_error_bound():
    t0 = time.time()
    ladder = [10.0**-e for e in range(0, 16)]
    rng = np.random.default_rng(2024)
    checked = 0
    for i in range(1000):
        kind = i % 3
        if kind == 0:
            x = rng.uniform(-1, 1, size=rng.integers(40, 300)) * 10.0 ** rng.integers(-2, 3)
        elif kind == 1:
            x = rng.normal(size=(rng.integers(5, 18), rng.integers(5, 18)))
            x *= 10.0 ** rng.integers(-2, 3)
        else:
            t = np.linspace(0, rng.uniform(2, 10), rng.integers(50, 300))
            x = np.sin(2 * np.pi * rng.uniform(0.3, 3.0) * t) * 10.0 ** rng.integers(-2, 3)
        scale = np.abs(x).max()
        for rel in (ladder[i % 16], ladder[(i * 7 + 3) % 16]):
            tol = rel * scale
            codec = codecs.QuantCodec(tol)
            y = codec.decode(codec.encode(x)[0])
            assert np.abs(x - y).max() <= tol, (i, rel)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(5, f"absolute error bound held on {checked} round trips over 1000 fields, tolerances 1e0..1e-15 ({elapsed:.1f}s)")


def test_criterion_6_regime_thresholds_at_production_scale():
    t0 = time.time()
    p = perfmodel.PerfParams(
        step_cost=0.1,
        nsteps=2500,
        state_bytes=900e6,
        bandwidth=10e9,
        memory_bytes=8e9,
        ratio=42.0,
        compress_time=0.05,
        decompress_time=0.05,
    )
    report = perfmodel.classify_regime(p)
    assert abs(report.threshold_compressed_fit - 53e9) / 53e9 < 0.05
    assert abs(report.threshold_uncompressed_fit - 2.2e12) / 2.2e12 < 0.05
    assert time.time() - t0 < 1.0
    _announce(
        6,
        f"thresholds {report.threshold_compressed_fit / 1e9:.1f} GB and "
        f"{report.threshold_uncompressed_fit / 1e12:.2f} TB within 5% of 53 GB / 2.2 TB",
    )


def test_criterion_7_asymptotic_speedup():
    t0 = time.time()
    n = 600
    p = perfmodel.PerfParams(
        step_cost=1.0,
        nsteps=n,
        state_bytes=1e6,
        bandwidth=1e9,
        memory_bytes=4e6,
        ratio=8.0,
        compress_time=1e-4,
        decompress_time=1e-4,
    )
    m = perfmodel.slots(p, compressed=False)
    m_c = min(perfmodel.slots(p, compressed=True), n)
    bound = (2 * n + schedule.recompute_count(n, m)) / (2 * n + schedule.recompute_count(n, m_c))
    for factor in (1e4, 1e5, 1e6):
        c = factor * (p.compress_time + p.decompress_time)
        q = replace(p, step_cost=c)
        s = perfmodel.evaluate(q, c, m, m_c).speedup
        assert abs(s - bound) / bound < 0.01, factor
    assert time.time() - t0 < 5.0
    _announce(7, f"speedup within 1% of the recompute-count bound {bound:.4f} for C >= 1e4 (t_c+t_d)")


def test_criterion_8_figure_shapes():
    t0 = time.time()
    # compute-dominant kernel so codec and copy costs are second order
    p = perfmodel.PerfParams(
        step_cost=10.0,
        nsteps=500,
        state_bytes=900e6,
        bandwidth=10e9,
        memory_bytes=1e9,
        ratio=42.0,
        compress_time=0.05,
        decompress_time=0.05,
    )
    fit_compressed = 500 * 900e6 / 42.0
    fit_raw = 500 * 900e6

    regime1 = perfmodel.sweep(p, "memory", 1e9, fit_compressed * 0.98, 8)
    assert all(row.speedup > 1.0 for row in regime1)
    # while the plain slot count is pinned, extra memory only helps the
    # compressed side, so the decline is asserted across distinct plain
    # slot counts
    by_m = {}
    for row in regime1:
        by_m.setdefault(row.m_plain, row.speedup)
    s1 = [by_m[m] for m in sorted(by_m)]
    assert len(s1) >= 3
    assert all(b <= a * (1 + 0.005) for a, b in zip(s1, s1[1:]))
    assert s1[-1] < s1[0]

    regime2 = perfmodel.sweep(p, "memory", fit_compressed * 1.4, fit_raw * 0.9, 4)
    assert all(row.p_compressed == 0 for row in regime2)
    assert all(row.speedup >= 1.0 for row in regime2)
    s2 = [row.speedup for row in regime2]
    assert all(b <= a * (1 + 0.005) for a, b in zip(s2, s2[1:]))
    assert min(s2) < min(s1)

    regime3 = perfmodel.sweep(p, "memory", fit_raw, fit_raw * 4, 2)
    for row in regime3:
        assert row.p_plain == row.p_compressed == 0
        assert abs(row.speedup - 1.0) < 0.05

    q = perfmodel.PerfParams(
        step_cost=0.1,
        nsteps=60,
        state_bytes=900e6,
        bandwidth=10e9,
        memory_bytes=4.5e9,
        ratio=4.0,
        compress_time=0.05,
        decompress_time=0.05,
    )
    growth = perfmodel.sweep(q, "nsteps", 60, 400, 10)
    g = [row.speedup for row in growth]
    assert all(b >= a * (1 - 0.005) for a, b in zip(g, g[1:]))
    assert g[-1] > g[0]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(8, f"memory sweep shows the three-regime shape; nsteps sweep grows {g[0]:.2f} -> {g[-1]:.2f} ({elapsed:.1f}s)")


def test_criterion_9_model_matches_measurement(tmp_path):
    t0 = time.time()
    # two plain slots force heavy recomputation, putting the comparison in
    # the compute-dominated region where the copy model is most faithful;
    # the budget holds 2 raw states or 4 cast blobs
    out = tmp_path / "run.csv"
    argv = ["run", "--grid", "200x200", "--nt", "100", "--codec", "cast", "--budget", "1280200"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    with out.open() as f:
        row = next(csv.DictReader(f))
    predicted, measured = float(row["speedup"]), float(row["measured_speedup"])

    rel = abs(predicted - measured) / measured
    elapsed = time.time() - t0
    assert (int(row["m_plain"]), int(row["m_compressed"])) == (2, 4)
    assert rel <= 0.25, (predicted, measured)
    assert elapsed < 300.0
    _announce(
        9,
        f"adjckpt run: predicted speedup {predicted:.3f} vs measured "
        f"{measured:.3f} ({100 * rel:.1f}% apart, {elapsed:.1f}s)",
    )
