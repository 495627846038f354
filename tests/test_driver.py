from dataclasses import replace

import numpy as np
import pytest

from adjckpt import codecs, driver, schedule
from adjckpt.errors import (
    CapacityError,
    ExecutionError,
    InvalidArgumentError,
    ScheduleValidationError,
)
from adjckpt.store import CheckpointStore
from test_schedule import DRIFTED_STREAMS


def null_store_for(stepper, m):
    blob = codecs.NullCodec().encode(stepper.initial_state())[0]
    return CheckpointStore(budget_bytes=(len(blob) + 64) * max(1, m))


class TestForwardOperator:
    def test_zero_source_keeps_zero_field(self):
        params = replace(driver.homogeneous_params((31,), nt=10), wavelet=np.zeros(10))
        u = driver.wave_forward_step(np.zeros(31), np.zeros(31), params, 0)
        assert not u.any()

    def test_point_source_field_is_symmetric(self):
        params = driver.homogeneous_params((41,), nt=30)
        stepper = driver.WaveStepper(params)
        state = stepper.initial_state()
        for i in range(30):
            state = stepper.forward(state, i)
        u = state[1]
        assert np.array_equal(u, u[::-1])
        assert np.abs(u).max() > 0

    def test_2d_symmetry_about_source(self):
        params = driver.homogeneous_params((33, 33), nt=24)
        stepper = driver.WaveStepper(params)
        state = stepper.initial_state()
        for i in range(24):
            state = stepper.forward(state, i)
        u = state[1]
        assert np.array_equal(u, u[::-1, :])
        assert np.array_equal(u, u[:, ::-1])

    def test_boundaries_stay_zero(self):
        params = driver.homogeneous_params((25, 19), nt=40)
        stepper = driver.WaveStepper(params)
        state = stepper.initial_state()
        for i in range(40):
            state = stepper.forward(state, i)
        u = state[1]
        assert not u[0].any() and not u[-1].any()
        assert not u[:, 0].any() and not u[:, -1].any()

    def test_cfl_violation_fails_at_construction(self):
        good = driver.homogeneous_params((41,), nt=10)
        with pytest.raises(InvalidArgumentError):
            replace(good, dt=good.dt * 10)

    def test_energy_conserved_after_source_stops(self):
        # leapfrog preserves a discrete energy once the source is quiet
        nt = 500
        params = driver.homogeneous_params((81,), nt=nt, peak_freq=15.0)
        quiet = np.array(params.wavelet)
        quiet[60:] = 0.0
        params = replace(params, wavelet=quiet)
        stepper = driver.WaveStepper(params)

        m = params.slowness_sq
        h, dt = params.spacing, params.dt

        def energy(u_prev, u_curr):
            vel = (u_curr - u_prev) / dt
            kinetic = 0.5 * float(np.sum(m * vel * vel)) * h
            grad = np.diff(u_curr) / h
            grad_prev = np.diff(u_prev) / h
            potential = 0.5 * float(np.sum(grad * grad_prev)) * h
            return kinetic + potential

        state = stepper.initial_state()
        series = []
        for i in range(nt):
            state = stepper.forward(state, i)
            if i >= 80:
                series.append(energy(state[0], state[1]))
        series = np.asarray(series)
        drift = np.abs(series - series[0]).max() / series[0]
        assert drift < 1e-9


class TestAdjointCorrectness:
    def test_dot_test_1d(self):
        params = driver.homogeneous_params((61,), nt=50)
        assert driver.dot_test(params, trials=20, seed=0) <= 1e-10

    def test_dot_test_2d(self):
        params = driver.homogeneous_params((24, 30), nt=30)
        assert driver.dot_test(params, trials=8, seed=1) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        base = driver.homogeneous_params((51,), nt=48)
        m_true = base.slowness_sq * (1.0 + 0.05 * np.sin(np.linspace(0, 3 * np.pi, 51)))
        d_obs = driver.simulate(replace(base, slowness_sq=m_true))
        adj = driver.reference_adjoint(driver.WaveStepper(base, d_obs=d_obs))

        x = np.linspace(0, 1, 51)
        dm = np.sin(np.pi * x) * np.sin(5 * x) * base.slowness_sq.mean()
        directional = float(np.vdot(adj.gradient, dm).real)

        def objective(m):
            return driver.misfit(driver.simulate(replace(base, slowness_sq=m)), d_obs)

        best = np.inf
        for h in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
            fd = (objective(base.slowness_sq + h * dm) - objective(base.slowness_sq - h * dm)) / (2 * h)
            best = min(best, abs(fd - directional) / abs(fd))
        assert best <= 1e-4

    def test_misfit_is_half_squared_norm(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        b = a + 2.0
        assert driver.misfit(a, b) == pytest.approx(0.5 * 12 * 4.0)
        assert driver.misfit(a, a) == 0.0

    def test_misfit_accumulated_during_adjoint_matches_definition(self):
        params = driver.homogeneous_params((41,), nt=25)
        d_obs = np.random.default_rng(4).normal(size=(25, len(params.receivers)))
        stepper = driver.WaveStepper(params, d_obs=d_obs)
        adj = driver.reference_adjoint(stepper)
        assert adj.misfit_value == pytest.approx(
            driver.misfit(driver.simulate(params), d_obs), rel=1e-12
        )


class TestExecutor:
    @pytest.mark.parametrize("nt,m", [(20, 3), (20, 25), (37, 4), (60, 8)])
    def test_bit_identical_to_full_storage(self, nt, m):
        params = driver.homogeneous_params((60,), nt=nt)
        stepper = driver.WaveStepper(params)
        ref = driver.reference_adjoint(stepper)
        res = driver.execute(
            schedule.generate_schedule(nt, m),
            stepper,
            null_store_for(stepper, m),
            codecs.NullCodec(),
        )
        assert np.array_equal(res.adjoint.gradient, ref.gradient)
        assert np.array_equal(res.adjoint.lam, ref.lam)
        assert res.adjoint.misfit_value == ref.misfit_value

    @pytest.mark.parametrize("nt,m", [(20, 3), (33, 2), (48, 6)])
    def test_primal_step_accounting(self, nt, m):
        params = driver.homogeneous_params((55,), nt=nt)
        stepper = driver.WaveStepper(params)
        store = null_store_for(stepper, m)
        res = driver.execute(
            schedule.generate_schedule(nt, m), stepper, store, codecs.NullCodec()
        )
        assert res.stats.primal_steps == nt + schedule.recompute_count(nt, m)
        assert res.stats.adjoint_steps == nt
        counted = schedule.schedule_stats(schedule.generate_schedule(nt, m), nt, m)
        assert store.counters.puts == counted.writes
        assert store.counters.gets == counted.reads

    def test_quantized_checkpoints_keep_gradient_close(self):
        params = driver.homogeneous_params((60,), nt=40)
        stepper = driver.WaveStepper(params)
        ref = driver.reference_adjoint(stepper)

        probe = stepper.initial_state()
        peak = 0.0
        for i in range(40):
            probe = stepper.forward(probe, i)
            peak = max(peak, np.abs(probe).max())
        codec = codecs.QuantCodec(1e-6 * peak)
        blob = codec.encode(probe)[0]
        store = CheckpointStore(budget_bytes=(len(blob) + 64) * 8)
        res = driver.execute(schedule.generate_schedule(40, 4), stepper, store, codec)
        rel = np.linalg.norm(res.adjoint.gradient - ref.gradient) / np.linalg.norm(ref.gradient)
        assert rel <= 1e-3

    def test_capacity_error_carries_schedule_position(self):
        params = driver.homogeneous_params((40,), nt=12)
        stepper = driver.WaveStepper(params)
        store = CheckpointStore(budget_bytes=64)
        with pytest.raises(ExecutionError) as err:
            driver.execute(
                schedule.generate_schedule(12, 3), stepper, store, codecs.NullCodec()
            )
        assert "action 0" in str(err.value)
        assert err.value.category == "execution"
        assert isinstance(err.value.__cause__, CapacityError)

    def test_executor_rejects_inconsistent_stream(self):
        params = driver.homogeneous_params((40,), nt=5)
        stepper = driver.WaveStepper(params)
        bad = [
            schedule.Store(slot=0, state=0),
            schedule.Advance(from_step=2, to_step=3),
        ]
        with pytest.raises(ExecutionError):
            driver.execute(bad, stepper, null_store_for(stepper, 2), codecs.NullCodec())
        for text, n, index in DRIFTED_STREAMS:
            acts = schedule.parse_schedule(text)
            stepper = driver.WaveStepper(driver.homogeneous_params((40,), nt=n))
            with pytest.raises(ScheduleValidationError) as err:
                driver.execute(acts, stepper, null_store_for(stepper, 2), codecs.NullCodec())
            assert err.value.index == index, text
            with pytest.raises(ScheduleValidationError) as err:
                schedule.schedule_stats(acts, n, 2)
            assert err.value.index == index, text

    def test_stats_report_phase_times(self):
        params = driver.homogeneous_params((50,), nt=30)
        stepper = driver.WaveStepper(params)
        res = driver.execute(
            schedule.generate_schedule(30, 3),
            stepper,
            null_store_for(stepper, 3),
            codecs.NullCodec(),
        )
        stats = res.stats
        assert stats.forward_step_seconds > 0
        assert stats.adjoint_step_seconds > 0


class TestConfig:
    def test_parse_and_defaults(self, tmp_path):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text(
            """
            # toy benchmark
            grid = 48x32
            nt = 25
            slots = 2
            codec = quant
            tolerance = 1e-5
            """
        )
        cfg = driver.load_benchmark_config(cfg_file)
        assert cfg["grid"] == "48x32"
        assert cfg["nt"] == 25
        assert cfg["slots"] == 2
        assert cfg["codec"] == "quant"
        assert cfg["tolerance"] == 1e-5
        assert cfg["spacing"] == 10.0
        params = driver.params_from_config(cfg)
        assert params.shape == (48, 32)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("gird = 10x10\n")
        with pytest.raises(InvalidArgumentError):
            driver.load_benchmark_config(cfg_file)

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just some words\n")
        with pytest.raises(InvalidArgumentError):
            driver.load_benchmark_config(cfg_file)
