from dataclasses import replace

import numpy as np
import pytest

from adjckpt import perfmodel as pm
from adjckpt import schedule as sched
from adjckpt.errors import InfeasibleConfigurationError, InvalidArgumentError


def params(**over):
    base = dict(
        step_cost=0.1,
        nsteps=2500,
        state_bytes=900e6,
        bandwidth=10e9,
        memory_bytes=8e9,
        ratio=42.0,
        compress_time=0.05,
        decompress_time=0.05,
    )
    base.update(over)
    return pm.PerfParams(**base)


class TestBasics:
    def test_naive_time(self):
        assert pm.t_naive(params(step_cost=1.0, nsteps=10)) == 20.0
        assert pm.t_naive(params(step_cost=0.5, nsteps=2500)) == 2500.0

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidArgumentError):
            params(ratio=0.5)
        with pytest.raises(InvalidArgumentError):
            params(step_cost=0.0)
        with pytest.raises(InvalidArgumentError):
            params(compress_time=-1.0)
        with pytest.raises(InvalidArgumentError, match="ratio must be finite"):
            params(ratio=float("inf"))

    def test_slots(self):
        p = params(memory_bytes=10 * 900e6, ratio=4.0)
        assert pm.slots(p, compressed=False) == 10
        assert pm.slots(p, compressed=True) == 40

    def test_slots_infeasible(self):
        with pytest.raises(InfeasibleConfigurationError):
            pm.slots(params(memory_bytes=1.0), compressed=True)

    @pytest.mark.parametrize("over,compressed", [
        (dict(ratio=1e308), True),
        (dict(state_bytes=1e-300, memory_bytes=1e300), False),
        (dict(state_bytes=5e-324, ratio=2.0), True),  # S / F underflows to 0
    ])
    def test_slots_refuses_an_infinite_count(self, over, compressed):
        with pytest.raises(InvalidArgumentError, match="no finite count"):
            pm.slots(params(**over), compressed=compressed)

    def test_compressed_trajectory_fits_at_threshold(self):
        p = params(memory_bytes=2500 * 900e6 / 42.0)
        assert pm.slots(p, compressed=True) >= 2500

    def test_recompute_overhead(self):
        p = params(nsteps=100, step_cost=2.0)
        assert pm.recompute_overhead(p, 100) == 0.0
        assert pm.recompute_overhead(p, 200) == 0.0
        assert pm.recompute_overhead(p, 3) == sched.recompute_count(100, 3) * 2.0


class TestStorageOverheads:
    def test_plain_matches_schedule_counts(self):
        p = params(nsteps=60)
        stats = sched.schedule_stats(sched.generate_schedule(60, 5), 60, 5)
        expected = (stats.writes + stats.reads) * p.state_bytes / p.bandwidth
        assert pm.storage_overhead_plain(p, 5) == pytest.approx(expected, rel=0, abs=0)

    def test_compressed_charges_codec_time_per_copy(self):
        p = params(nsteps=40, ratio=8.0, compress_time=0.3, decompress_time=0.2)
        stats = sched.schedule_stats(sched.generate_schedule(40, 12), 40, 12)
        copy = p.state_bytes / (8.0 * p.bandwidth)
        expected = stats.writes * (copy + 0.3) + stats.reads * (copy + 0.2)
        assert pm.storage_overhead_compressed(p, 12) == pytest.approx(expected, rel=1e-15)


class TestTotals:
    @pytest.mark.parametrize("m_plain,m_comb", [(8, 373), (3, 3), (2500, 2500)])
    def test_plain_side_is_the_zero_cost_codec(self, m_plain, m_comb):
        p = params()
        zero_cost = replace(p, ratio=1.0, compress_time=0.0, decompress_time=0.0)
        plain, _ = pm.predict(p, m_plain, m_comb)
        assert plain == pm.predict(zero_cost, m_comb, m_plain)[1]
        assert plain.encode == plain.decode == 0.0
        assert pm.storage_overhead_plain(p, m_plain) == pm.storage_overhead_compressed(
            zero_cost, m_plain
        )

    def test_evaluate_refuses_times_that_overflow(self):
        p = params(bandwidth=1e-320)  # every copy takes inf seconds
        with pytest.raises(InvalidArgumentError, match="overflow"):
            pm.evaluate(p, p.memory_bytes, 8, 373)
        with pytest.raises(InvalidArgumentError, match="overflow"):
            pm.sweep(p, "memory", 2e9, 3e12, 5)

    def test_infeasible_plain_side_leaves_its_cells_empty(self):
        p = params(memory_bytes=5e8)  # 23 compressed states, no raw one
        row = pm.sweep(p, "memory", 5e8, 5e8, 1)[0]
        assert (row.m_plain, row.m_compressed) == (0, 23)
        assert row.speedup is row.t_revolve_s is row.p_plain is None
        assert row.t_combined_s == pm.predict(p, 1, 23)[1].total
        assert row.p_compressed == sched.recompute_count(2500, 23)
        assert row.csv() == f"500000000.0,,,{row.t_combined_s!r},0,23,,{row.p_compressed}"

    def test_overflow_refused_with_the_plain_side_infeasible(self):
        p = params(memory_bytes=5e8, bandwidth=1e-320)
        with pytest.raises(InvalidArgumentError, match=r"predicted times inf s overflow"):
            pm.evaluate(p, p.memory_bytes, 0, 23)
        with pytest.raises(InvalidArgumentError, match="overflow"):
            pm.sweep(p, "memory", 1e8, 2e9, 4)

    def test_no_recompute_when_everything_fits(self):
        p = params(nsteps=50, memory_bytes=200 * 900e6)
        w, r = (lambda s: (s.writes, s.reads))(sched.schedule_counts(50, 50))
        plain, _ = pm.predict(p, pm.slots(p, compressed=False), pm.slots(p, compressed=True))
        assert plain.total == pytest.approx(
            pm.t_naive(p) + (w + r) * p.state_bytes / p.bandwidth
        )

    def test_paper_scale_row_against_hand_assembly(self):
        # independent spreadsheet-style recomputation of every term from the
        # raw schedule streams
        p = params()
        m_plain = int(p.memory_bytes // p.state_bytes)
        m_comp = int(p.memory_bytes * p.ratio // p.state_bytes)
        assert (m_plain, m_comp) == (8, 373)

        sp = sched.schedule_stats(sched.generate_schedule(2500, 8), 2500, 8)
        sc = sched.schedule_stats(sched.generate_schedule(2500, 373), 2500, 373)
        hand_naive = 2 * 0.1 * 2500
        hand_revolve = (
            hand_naive + sp.recompute_steps * 0.1 + (sp.writes + sp.reads) * 900e6 / 10e9
        )
        copy = 900e6 / (42.0 * 10e9)
        hand_combined = (
            hand_naive
            + sc.recompute_steps * 0.1
            + sc.writes * (copy + 0.05)
            + sc.reads * (copy + 0.05)
        )
        plain, comb = pm.predict(p, m_plain, m_comp)
        assert plain.total == pytest.approx(hand_revolve, rel=1e-12)
        assert comb.total == pytest.approx(hand_combined, rel=1e-12)
        assert pm.evaluate(p, p.memory_bytes, m_plain, m_comp).speedup > 1.0


class TestRegimes:
    def test_thresholds_at_production_scale(self):
        report = pm.classify_regime(params())
        assert abs(report.threshold_compressed_fit - 53e9) / 53e9 < 0.05
        assert abs(report.threshold_uncompressed_fit - 2.2e12) / 2.2e12 < 0.05

    def test_three_regimes(self):
        assert pm.classify_regime(params(memory_bytes=8e9)).regime == pm.REGIME_CHECKPOINT_REQUIRED
        assert pm.classify_regime(params(memory_bytes=100e9)).regime == pm.REGIME_COMPRESSION_FITS
        assert pm.classify_regime(params(memory_bytes=3e12)).regime == pm.REGIME_NO_ACTION_NEEDED

    def test_exact_fit_is_inclusive(self):
        p = params(nsteps=100, memory_bytes=100 * 900e6)
        assert pm.classify_regime(p).regime == pm.REGIME_NO_ACTION_NEEDED
        q = params(nsteps=100, memory_bytes=100 * 900e6 / 42.0)
        assert pm.classify_regime(q).regime == pm.REGIME_COMPRESSION_FITS

    def test_tiny_memory_surfaces_infeasible(self):
        with pytest.raises(InfeasibleConfigurationError):
            pm.classify_regime(params(memory_bytes=1.0))


class TestSweep:
    def test_rows_ordered_and_schema_stable(self):
        p = params(nsteps=200, state_bytes=1e6, memory_bytes=4e6, ratio=4.0)
        rows = pm.sweep(p, "memory", 2e6, 40e6, 7)
        xs = [r.x for r in rows]
        assert xs == sorted(xs)
        csv = pm.rows_to_csv(rows)
        header = csv.splitlines()[0]
        assert header == "x,speedup,t_revolve_s,t_combined_s,m_plain,m_compressed,p_plain,p_compressed"
        assert len(csv.splitlines()) == len(rows) + 1

    def test_one_point_sweep_sums_each_side_once(self, monkeypatch):
        # the priced stream and the row's replay count share one level sum per
        # side; at n = 2500 both slot counts lie in the write zones, so no
        # split (which also finds a level) is walked
        monkeypatch.setattr(sched, "_COUNTS", {})
        monkeypatch.setattr(sched, "_WRITES", {})
        calls, level = [], sched._level
        monkeypatch.setattr(sched, "_level", lambda m, n: calls.append((m, n)) or level(m, n))
        p = params(memory_bytes=60 * 900e6, ratio=1.5)
        row = pm.sweep(p, "memory", p.memory_bytes, p.memory_bytes, 1)[0]
        assert (row.m_plain, row.m_compressed) == (60, 90)
        assert calls == [(60, 2500), (90, 2500)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pm.sweep(params(), "bananas", 1, 2, 3)

    def test_compute_cost_asymptote(self):
        p = params(nsteps=600, state_bytes=1e6, bandwidth=1e9, memory_bytes=4e6,
                   ratio=8.0, compress_time=1e-4, decompress_time=1e-4)
        m = pm.slots(p, compressed=False)
        m_c = pm.slots(p, compressed=True)
        bound = (2 * 600 + sched.recompute_count(600, m)) / (
            2 * 600 + sched.recompute_count(600, min(m_c, 600))
        )
        big_c = 1e4 * (p.compress_time + p.decompress_time)
        row = pm.sweep(p, "compute-cost", big_c, big_c, 1)[0]
        assert abs(row.speedup - bound) / bound < 0.01

    def test_speedup_limit_with_plentiful_memory(self):
        # both strategies stop recomputing; the ratio is pure storage overhead
        p = params(nsteps=80, state_bytes=1e6, memory_bytes=80e6 * 2, ratio=4.0,
                   compress_time=1e-6, decompress_time=1e-6, step_cost=10.0)
        row = pm.sweep(p, "memory", p.memory_bytes, p.memory_bytes, 1)[0]
        assert row.p_plain == row.p_compressed == 0
        assert row.speedup == pytest.approx(1.0, abs=0.01)

    def test_speedup_monotone_in_nsteps(self):
        # the discrete recompute counts ripple at the 0.1 percent level, so
        # monotonicity is asserted with a matching slack band
        p = params(nsteps=60, state_bytes=900e6, memory_bytes=4.5e9, ratio=4.0)
        rows = pm.sweep(p, "nsteps", 60, 400, 12)
        speedups = [r.speedup for r in rows]
        assert all(b >= a * (1 - 0.005) for a, b in zip(speedups, speedups[1:]))
        assert speedups[-1] > speedups[0] * 1.1

    def test_outputs_finite_and_positive(self):
        p = params(nsteps=120, state_bytes=1e6, memory_bytes=3e6, ratio=6.0)
        for axis, lo, hi in [("memory", 2e6, 200e6), ("compute-cost", 1e-4, 10.0), ("nsteps", 20, 300)]:
            for row in pm.sweep(p, axis, lo, hi, 6):
                assert np.isfinite(row.speedup) and row.speedup > 0
                assert row.t_revolve_s > 0 and row.t_combined_s > 0
