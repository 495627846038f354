import hashlib
import math
import tracemalloc
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
from oracles import dot_test, misfit
from test_schedule import DRIFTED_STREAMS


def null_store_for(stepper, m):
    return CheckpointStore(budget_bytes=m * stepper.initial_state().nbytes)


class TestForwardOperator:
    def test_zero_source_keeps_zero_field(self):
        params = replace(driver.homogeneous_params((31,), nt=10), wavelet=np.zeros(10))
        stepper = driver.WaveStepper(params)
        state = stepper.forward(stepper.initial_state(), 0)
        assert not state.any()

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

    @pytest.mark.parametrize(
        "change",
        [
            {"dt": 0.0},
            {"dt": -1e-3},
            {"spacing": np.inf},
            {"spacing": np.inf, "dt": np.inf},
        ],
        ids=["dt-zero", "dt-negative", "spacing-inf", "both-inf"],
    )
    def test_nonsense_timing_fails_at_construction(self, change):
        # each of these passes the stability check: dt <= limit holds
        good = driver.homogeneous_params((41,), nt=10)
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            replace(good, **change)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_nonsense_medium_fails_at_construction(self, value):
        # +inf passes the stability check and NaN would fail it only as an
        # unstable dt; each is refused by name
        good = driver.homogeneous_params((41,), nt=10)
        medium = np.copy(good.slowness_sq)
        medium[20] = value
        with pytest.raises(InvalidArgumentError, match="finite and positive"):
            replace(good, slowness_sq=medium)

    def test_energy_conserved_after_source_stops(self):
        # leapfrog preserves a discrete energy once the source is quiet
        nt = 500
        params = driver.homogeneous_params((81,), nt=nt)
        quiet = driver.ricker_wavelet(nt, params.dt, 15.0)
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
        assert dot_test(params, trials=20, seed=0) <= 1e-10

    def test_dot_test_2d(self):
        params = driver.homogeneous_params((24, 30), nt=30)
        assert dot_test(params, trials=8, seed=1) <= 1e-10

    def test_gradient_matches_finite_differences(self):
        base = driver.homogeneous_params((51,), nt=48)
        m_true = base.slowness_sq * (1.0 + 0.05 * np.sin(np.linspace(0, 3 * np.pi, 51)))
        d_obs = driver.simulate(replace(base, slowness_sq=m_true))
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

    def test_misfit_is_half_squared_norm(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        b = a + 2.0
        assert misfit(a, b) == pytest.approx(0.5 * 12 * 4.0)
        assert misfit(a, a) == 0.0

    def test_misfit_accumulated_during_adjoint_matches_definition(self):
        params = driver.homogeneous_params((41,), nt=25)
        d_obs = np.random.default_rng(4).normal(size=(25, len(params.receivers)))
        stepper = driver.WaveStepper(params, d_obs=d_obs)
        adj = driver.reference_adjoint(stepper)
        assert adj.misfit_value == pytest.approx(
            misfit(driver.simulate(params), d_obs), rel=1e-12
        )


def perturbed_problem(shape, nt):
    """A smooth perturbation of the homogeneous medium, one receiver listed twice."""
    p = driver.homogeneous_params(shape, nt)
    axes = np.meshgrid(*[np.linspace(0, 1, s) for s in shape], indexing="ij")
    bump = np.sin(3 * np.pi * axes[0])
    if len(shape) == 2:
        bump = bump * np.cos(2 * np.pi * axes[1])
    q = replace(
        p,
        slowness_sq=p.slowness_sq * (1 + 0.08 * bump),
        receivers=p.receivers + (p.receivers[0],),
    )
    return driver.WaveStepper(q, driver.simulate(replace(q, slowness_sq=p.slowness_sq)))


class TestWaveKernel:
    # sha256 of final state, gradient, lam and lam_older, recorded when every
    # step still evaluated the plain formulas with fresh temporaries
    @pytest.mark.parametrize(
        "shape,nt,digest",
        [
            ((48, 40), 60, "7f772efd2c7ecfd9ed7dbef85cc8f5dd2c282c85db3688d13012925f20b7e4e9"),
            ((61,), 80, "521af902ee51699edecf1a8fc16f32221f75186f5a9924196422c84752655d65"),
        ],
    )
    def test_bit_identical_to_plain_formulas(self, shape, nt, digest):
        stepper = perturbed_problem(shape, nt)
        state = stepper.initial_state()
        for i in range(nt):
            state = stepper.forward(state, i)
        adj = driver.reference_adjoint(stepper)
        arrays = (state, adj.gradient, adj.lam, adj.lam_older)
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest

    @pytest.mark.parametrize("shape,nt", [((47,), 30), ((26, 21), 24)])
    def test_steps_neither_mutate_nor_alias(self, shape, nt):
        stepper = perturbed_problem(shape, nt)
        states = [stepper.initial_state()]
        for i in range(nt):
            before = states[-1].copy()
            states.append(stepper.forward(states[-1], i))
            assert np.array_equal(states[-2], before)
            assert not np.shares_memory(states[-1], states[-2])
            if i:
                assert not np.shares_memory(states[-1], states[-3])
        # a kept trajectory equals one recomputed step by step, each step by
        # a fresh stepper: a reused workspace carries nothing between steps
        params, d_obs = stepper.params, stepper.d_obs
        for i in range(nt):
            step = driver.WaveStepper(params, d_obs).forward(states[i], i)
            assert np.array_equal(states[i + 1], step)

        adjs = [stepper.initial_adjoint()]
        for i in reversed(range(nt)):
            adj = adjs[-1]
            inputs = [adj.lam, adj.lam_older, adj.gradient, states[i], states[i + 1]]
            copies = [a.copy() for a in inputs]
            new = stepper.adjoint(adj, states[i], states[i + 1], i)
            for a, c in zip(inputs, copies):
                assert np.array_equal(a, c)
            # lam_older is the previous level by design; the rest is fresh,
            # sharing nothing with the inputs, which include the last outputs
            assert new.lam_older is adj.lam
            for out in (new.lam, new.gradient):
                assert not any(np.shares_memory(out, a) for a in inputs)
            adjs.append(new)
        for k, i in enumerate(reversed(range(nt))):
            fresh = driver.WaveStepper(params, d_obs).adjoint(adjs[k], states[i], states[i + 1], i)
            assert np.array_equal(adjs[k + 1].lam, fresh.lam)

    @pytest.mark.parametrize("shape", [(61,), (48, 40), (200, 200)])
    def test_workspace_is_cache_line_aligned(self, shape):
        kernel = driver.WaveStepper(driver.homogeneous_params(shape, nt=4))._kernel
        for scratch in (kernel._a, kernel._grid):
            assert scratch.ctypes.data % 64 == 0
            assert scratch.flags.c_contiguous

    def test_steps_allocate_only_their_outputs(self):
        # the workspace is the stepper's: one step allocates its fresh
        # outputs and little else (evaluating the plain formulas with fresh
        # temporaries peaks at 2.7 states and 6.4 fields)
        stepper = driver.WaveStepper(driver.homogeneous_params((200, 200), nt=60))
        state = stepper.initial_state()
        for i in range(50):
            state = stepper.forward(state, i)
        adj = stepper.initial_adjoint()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            upper = stepper.forward(state, 50)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            stepper.adjoint(adj, state, upper, 50)
            adjoint_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert forward_peak <= 1.5 * state.nbytes
        assert adjoint_peak <= 3 * state[0].nbytes


def plain_laplacian(params, u):
    """The interior Laplacian of ``u`` by its plain formula, with fresh temporaries."""
    ndim = len(params.shape)
    inner = (slice(1, -1),) * ndim
    pairs = []
    for axis in range(ndim):
        lo, hi = list(inner), list(inner)
        lo[axis], hi[axis] = slice(None, -2), slice(2, None)
        pairs.append(u[tuple(lo)] + u[tuple(hi)])
    total = pairs[0]
    for pair in pairs[1:]:
        total = total + pair
    return (total - u[inner] * (2.0 * ndim)) / (params.spacing * params.spacing)


def plain_forward(params, u_prev, u_curr, step):
    """The forward step evaluated by its plain formulas, with fresh temporaries."""
    inner = (slice(1, -1),) * len(params.shape)
    coeff = (params.dt**2 / params.slowness_sq)[inner]
    lap = plain_laplacian(params, u_curr)
    u_next = np.zeros(params.shape)
    u_next[inner] = (u_curr[inner] * 2.0 - u_prev[inner]) + coeff * lap
    source = params.dt**2 / params.slowness_sq[params.source]
    u_next[params.source] += source * params.wavelet[step]
    return u_next


def plain_adjoint(params, lam, lam_older, residual):
    """The adjoint step evaluated by its plain formulas, with fresh temporaries."""
    inner = (slice(1, -1),) * len(params.shape)
    lap = plain_laplacian(params, (params.dt**2 / params.slowness_sq) * lam)
    lam_prev = np.zeros(params.shape)
    lam_prev[inner] = (lam[inner] * 2.0 - lam_older[inner]) + lap
    np.add.at(lam_prev, tuple(np.array(params.receivers).T), residual)
    return lam_prev


def plain_gradient(params, gradient, lam_prev, u_before, u_at, u_after):
    """The gradient update evaluated by its plain formula, with fresh temporaries."""
    return gradient - lam_prev * (((u_after - u_at * 2.0) + u_before) / params.slowness_sq)


def assert_adjoint_matches_plain_formulas(stepper, adj, state, state_next, step, label=None):
    """``stepper.adjoint``'s lam and gradient against the plain formulas, bit for bit."""
    params = stepper.params
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, NaN and inf * 0
        new = stepper.adjoint(adj, state, state_next, step)
        residual = state_next[1][tuple(np.array(params.receivers).T)] - stepper.d_obs[step]
        lam = plain_adjoint(params, adj.lam, adj.lam_older, residual)
        gradient = plain_gradient(params, adj.gradient, lam, state[0], state[1], state_next[1])
    assert np.array_equal(bits(new.lam), bits(lam)), (step, label)
    assert np.array_equal(bits(new.gradient), bits(gradient)), (step, label)
    assert new.lam_older is adj.lam
    return new


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def trajectory(stepper, nt):
    states = [stepper.initial_state()]
    for i in range(nt):
        states.append(stepper.forward(states[-1], i))
    return states


class TestLightCone:
    """Forward steps sweep only the source's light cone, bit for bit."""

    @pytest.mark.parametrize("shape,nt", [((48, 40), 60), ((61,), 80)])
    def test_trajectory_steps_match_plain_formulas(self, shape, nt):
        stepper = perturbed_problem(shape, nt)
        states = trajectory(stepper, nt)
        assert not states[0].any()  # step 0 starts from zeros
        for i in range(nt):
            want = plain_forward(stepper.params, states[i][0], states[i][1], i)
            assert np.array_equal(bits(states[i + 1][1]), bits(want)), i
            assert np.array_equal(bits(states[i + 1][0]), bits(states[i][1]))

    @pytest.mark.parametrize("shape", [(48, 40), (61,)])
    def test_any_state_matches_plain_formulas(self, shape):
        params = perturbed_problem(shape, 20).params
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(2, *shape))
        line = np.zeros((2, *shape))
        line[:, 2] = rng.normal(size=shape[1:])  # zero but for one line far from the source
        states = [dense, line]
        # outside any early cone: a boundary point in 2-D, interior points
        for at in (3, np.ravel_multi_index((2,) * len(shape), shape)):
            for special in (-0.0, np.nan, np.inf, -np.inf):
                for level in (0, 1):
                    quiet = np.zeros((2, *shape))
                    quiet[level].reshape(-1)[at] = special
                    states.append(quiet)
        for step in (0, 1, 5):
            # nonzero on both flat edges of the step's cone, which it spreads past
            edges = np.zeros((2, *shape))
            near = (step + 1) * math.prod(shape[1:])
            origin = np.ravel_multi_index(params.source, shape)
            edges[1].reshape(-1)[[origin - near, origin + near]] = rng.normal(size=2)
            for k, state in enumerate([*states, edges]):
                with np.errstate(invalid="ignore"):  # inf - inf in both
                    out = driver.WaveStepper(params).forward(state, step)[1]
                    want = plain_forward(params, state[0], state[1], step)
                assert np.array_equal(bits(out), bits(want)), (step, k)

    def test_early_steps_sweep_a_strict_sub_range_of_the_band(self):
        stepper = perturbed_problem((48, 40), 60)
        kernel = stepper._kernel
        band, *_ = kernel._full

        def flat(*arrays):
            views = [kernel._flat(a) for a in arrays]
            assert all(np.shares_memory(v, a) for v, a in zip(views, arrays))
            return views

        states = trajectory(stepper, 60)
        # forward step 5 checks its inputs against the source's cone of 6 lines
        span, *_ = kernel._cone(kernel._source_at, 6, *flat(*states[5]))
        assert band.start < span.start <= span.stop < band.stop
        far = np.copy(states[5])
        far[1, 1, 1] = 1e-300
        span, *_ = kernel._cone(kernel._source_at, 6, *flat(*far))
        assert span == band

        # the adjoint at step 54, after five steps of the reverse sweep,
        # checks its inputs against the receivers' cone of 60 - 54 lines
        adj = stepper.initial_adjoint()
        for i in range(59, 54, -1):
            adj = stepper.adjoint(adj, states[i], states[i + 1], i)
        span, *_ = kernel._cone(kernel._receivers_at, 6, *flat(adj.lam, adj.lam_older))
        assert band.start < span.start <= span.stop < band.stop
        far = np.copy(adj.lam_older)
        far[1, 1] = 1e-300
        span, *_ = kernel._cone(kernel._receivers_at, 6, *flat(adj.lam, far))
        assert span == band

    # (12, 40) spreads its receivers less along axis 0 than in depth, so
    # its kernel keeps C order
    @pytest.mark.parametrize("shape,nt", [((48, 40), 60), ((61,), 80), ((12, 40), 30)])
    def test_reverse_sweep_matches_plain_formulas(self, shape, nt):
        stepper = perturbed_problem(shape, nt)
        states = trajectory(stepper, nt)
        assert (stepper._kernel._perm == (0, 1)) == (shape == (12, 40))
        for i in range(nt):
            want = plain_forward(stepper.params, states[i][0], states[i][1], i)
            assert np.array_equal(bits(states[i + 1][1]), bits(want)), i
        adj = stepper.initial_adjoint()
        for i in reversed(range(nt)):
            adj = assert_adjoint_matches_plain_formulas(stepper, adj, states[i], states[i + 1], i)

    @pytest.mark.parametrize("shape", [(48, 40), (61,), (12, 40)])
    def test_any_adjoint_state_matches_plain_formulas(self, shape):
        nt = 20
        stepper = perturbed_problem(shape, nt)
        kernel = stepper._kernel
        rng = np.random.default_rng(11)
        states = trajectory(stepper, nt)
        adjs = {nt - 1: stepper.initial_adjoint()}
        for i in reversed(range(1, nt)):
            adjs[i - 1] = stepper.adjoint(adjs[i], states[i], states[i + 1], i)
        names = ("lam", "lam_older", "gradient", "u_before", "u_at", "u_after")

        def case(step, fields, label):
            lam, lam_older, gradient, u_before, u_at, u_after = fields
            adj = driver.WaveAdjoint(lam, lam_older, gradient, 0.0)
            state, state_next = np.stack([u_before, u_at]), np.stack([u_at, u_after])
            assert_adjoint_matches_plain_formulas(stepper, adj, state, state_next, step, label)

        def native(a):
            out = kernel.new()
            out[...] = a
            return out

        for step in (0, 1, nt // 2, nt - 2, nt - 1):
            adj, state, state_next = adjs[step], states[step], states[step + 1]
            track = [adj.lam, adj.lam_older, adj.gradient, state[0], state[1], state_next[1]]
            zeros = [np.zeros(shape) for _ in names]
            case(step, [rng.normal(size=shape) for _ in names], "dense")
            for k, name in enumerate(names):
                for base in (track, zeros):
                    # zero but for one line at the far end of the depth axis
                    fields = [native(f) for f in base]
                    fields[k][..., -2] = rng.normal(size=shape[:-1])
                    case(step, fields, (name, "line"))
                # special values at points all along the depth axis, inside
                # and outside each cone
                for depth in range(shape[-1]):
                    for special in (-0.0, np.nan, np.inf, -np.inf):
                        fields = [native(f) for f in track]
                        fields[k][(3,) * (len(shape) - 1) + (depth,)] = special
                        case(step, fields, (name, depth, special))
            # nonzeros on both flat edges of each cone, which the steps spread past
            receivers, source = (kernel._receivers_at, nt - step), (kernel._source_at, step + 2)
            for k, cone in enumerate([receivers, receivers, None, source, source, source]):
                if cone is None:  # the gradient
                    continue
                at, lines = cone
                fields = [native(f) for f in zeros]
                flat = kernel._flat(fields[k])
                for edge in (at[0] - lines * kernel._reach, at[1] + lines * kernel._reach):
                    if kernel._lo <= edge < kernel._hi:
                        flat[edge] = rng.normal()
                case(step, fields, (names[k], "edges"))

    @pytest.mark.parametrize("shape", [(48, 40), (61,)])
    def test_depth_cone_edges_match_plain_formulas(self, shape):
        stepper = perturbed_problem(shape, 20)
        kernel = stepper._kernel
        rng = np.random.default_rng(5)
        for step in (0, 1, 5):
            # nonzero on both flat edges of the step's cone, which it spreads past
            near = (step + 1) * kernel._reach
            for level in (0, 1):
                state = stepper.initial_state()
                flat = kernel._flat(state[level])
                flat[[kernel._source_at[0] - near, kernel._source_at[0] + near]] = rng.normal(size=2)
                out = stepper.forward(state, step)[1]
                want = plain_forward(stepper.params, state[0], state[1], step)
                assert np.array_equal(bits(out), bits(want)), (step, level)


class TestLayout:
    """States, adjoint fields and gradients are grid-shaped views of memory-order storage."""

    @pytest.mark.parametrize("shape,nt", [((48, 40), 30), ((61,), 30)])
    def test_outputs_are_grid_shaped_with_c_order_bytes(self, shape, nt):
        stepper = perturbed_problem(shape, nt)
        states = trajectory(stepper, nt)
        assert states[0].shape == (2, *shape)
        if len(shape) == 2:  # receivers spread along axis 0: depth is slowest in memory
            assert np.argmax(states[0].strides[1:]) == 1
            assert np.argmax(states[-1].strides[1:]) == 1
        for i in range(nt):
            assert states[i + 1].shape == (2, *shape)
            want = np.stack([states[i][1], plain_forward(stepper.params, *states[i], i)])
            assert states[i + 1].tobytes() == want.tobytes()
        adj = stepper.initial_adjoint()
        for a in (adj.lam, adj.lam_older, adj.gradient):
            assert a.shape == shape and not a.any()
        receivers = tuple(np.array(stepper.params.receivers).T)
        for i in reversed(range(nt)):
            new = stepper.adjoint(adj, states[i], states[i + 1], i)
            assert new.lam.shape == new.gradient.shape == shape
            residual = states[i + 1][1][receivers] - stepper.d_obs[i]
            lam = plain_adjoint(stepper.params, adj.lam, adj.lam_older, residual)
            assert new.lam.tobytes() == lam.tobytes()
            adj = new

    @pytest.mark.parametrize("shape,nt", [((48, 40), 30), ((61,), 30)])
    def test_c_ordered_inputs_give_the_same_bits(self, shape, nt):
        stepper = perturbed_problem(shape, nt)
        states = trajectory(stepper, nt)
        c_order = [np.ascontiguousarray(s) for s in states]
        for i in range(nt):
            assert np.array_equal(bits(stepper.forward(c_order[i], i)), bits(states[i + 1]))
        adj = stepper.initial_adjoint()
        for i in reversed(range(nt)):
            copy = driver.WaveAdjoint(
                *(np.ascontiguousarray(a) for a in (adj.lam, adj.lam_older, adj.gradient)),
                adj.misfit_value,
            )
            from_c = stepper.adjoint(copy, c_order[i], c_order[i + 1], i)
            adj = stepper.adjoint(adj, states[i], states[i + 1], i)
            assert np.array_equal(bits(from_c.lam), bits(adj.lam))
            assert np.array_equal(bits(from_c.gradient), bits(adj.gradient))
            assert from_c.misfit_value == adj.misfit_value

    @pytest.mark.parametrize(
        "codec", [codecs.CastCodec(), codecs.QuantCodec(1e-9)], ids=["cast", "quant"]
    )
    def test_a_sweep_lays_out_decoded_checkpoints_as_its_states(self, codec):
        # the sweep encodes each state as a C-ordered view of its memory and
        # restores a decoded checkpoint as a view in the stepper's layout,
        # which every step then reads without a copy having been made
        stepper = perturbed_problem((48, 40), 30)
        like = stepper.initial_state().strides
        read, encoded, decoded = [], [], []

        class Recording:
            nsteps = stepper.nsteps
            initial_state = stepper.initial_state
            initial_adjoint = stepper.initial_adjoint

            def forward(self, state, step):
                read.append(state)
                return stepper.forward(state, step)

            def adjoint(self, adj, state, state_next, step):
                read.extend((state, state_next))
                return stepper.adjoint(adj, state, state_next, step)

        class RecordingCodec:
            name = codec.name

            def encode(self, field):
                encoded.append(field)
                return codec.encode(field)

            def decode(self, blob):
                decoded.append(codec.decode(blob))
                return decoded[-1]

        store = CheckpointStore(budget_bytes=10**9)
        driver.execute(schedule.generate_schedule(30, 4), Recording(), store, RecordingCodec())
        assert store.counters.gets == len(decoded) > 0
        assert all(field.flags.c_contiguous for field in encoded)
        assert {state.strides for state in read} == {like}
        assert all(any(np.shares_memory(d, s) for s in read) for d in decoded)

    @pytest.mark.parametrize(
        "codec", [codecs.QuantCodec(1e-9), codecs.CastCodec(), codecs.NullCodec()],
        ids=["quant", "cast", "null"],
    )
    def test_blobs_do_not_depend_on_the_layout(self, codec):
        stepper = perturbed_problem((48, 40), 30)
        for state in trajectory(stepper, 30)[::7]:
            assert not state.flags.c_contiguous
            blob = codec.encode(state)[0]
            assert blob == codec.encode(np.ascontiguousarray(state))[0]


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

    def test_quantized_gradient_is_pinned(self):
        # sha256 of gradient, lam and lam_older and the blob bytes moved,
        # recorded when raw checkpoints were still blobs too: the quant
        # path through the store is bit-for-bit the same
        stepper = perturbed_problem((48, 40), 60)
        probe = stepper.initial_state()
        peak = 0.0
        for i in range(60):
            probe = stepper.forward(probe, i)
            peak = max(peak, np.abs(probe).max())
        store = CheckpointStore(budget_bytes=10**9)
        res = driver.execute(
            schedule.generate_schedule(60, 6), stepper, store, codecs.QuantCodec(1e-6 * peak)
        )
        adj = res.adjoint
        arrays = (adj.gradient, adj.lam, adj.lam_older)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert digest == "96ad65f82b62e4476e05c5b3359f30e9e4f5051329876bb56a5618d17d99a8a8"
        assert (store.counters.bytes_written, store.counters.bytes_read) == (169636, 196800)

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


def test_3d_grid_refused_before_its_medium_is_filled():
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(InvalidArgumentError):
            driver.homogeneous_params((200, 200, 200), 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2**20


class TestCalibrate:
    def test_params_come_from_the_measured_sweep(self):
        stepper = driver.WaveStepper(driver.homogeneous_params((24, 20), nt=12))
        p, samples = driver.calibrate(stepper, codecs.CastCodec(), 12345.0)
        assert p.ratio == 2.0
        assert p.state_bytes == samples[-1].nbytes
        assert p.nsteps == stepper.nsteps
        assert p.memory_bytes == 12345.0
        assert p.compress_time > 0
        assert np.isfinite(p.bandwidth)
        np.testing.assert_array_equal(samples[0], stepper.initial_state())
        final = stepper.initial_state()
        for i in range(stepper.nsteps):
            final = stepper.forward(final, i)
        np.testing.assert_array_equal(samples[-1], final)

    @pytest.mark.parametrize("nt", [3, 4, 5, 9, 12, 13])
    def test_samples_are_distinct_states_first_to_last(self, nt):
        # for nt - 1 a multiple of the sampling stride the loop samples the
        # final state itself, which must then not be appended a second time
        stepper = driver.WaveStepper(driver.homogeneous_params((16, 16), nt=nt))
        _, samples = driver.calibrate(stepper, codecs.CastCodec(), 1e9)
        assert len({id(s) for s in samples}) == len(samples)
        np.testing.assert_array_equal(samples[0], stepper.initial_state())
        final = stepper.initial_state()
        for i in range(nt):
            final = stepper.forward(final, i)
        np.testing.assert_array_equal(samples[-1], final)
        assert not np.array_equal(samples[-2], final)

    def test_codec_times_average_one_profile_per_sample(self, monkeypatch):
        profiled = []

        def fake_profile(codec, field, repetitions):
            i = len(profiled)
            profiled.append(field)
            return codecs.CodecStats(field.nbytes, 1, 10.0 + i, float(i), 2.0 * i, 0.0)

        monkeypatch.setattr(driver, "profile", fake_profile)
        stepper = driver.WaveStepper(driver.homogeneous_params((24, 20), nt=12))
        p, samples = driver.calibrate(stepper, codecs.QuantCodec(1e-6), 12345.0)
        assert len(profiled) == len(samples) > 2
        # each sample is profiled as the sweep encodes it: a C-ordered view
        assert all(a.flags.c_contiguous for a in profiled)
        assert all(np.shares_memory(a, b) for a, b in zip(profiled, samples))
        assert p.ratio == 10.0 + len(samples) - 1  # the final state's
        assert p.compress_time == np.mean(range(len(samples)))
        assert p.decompress_time == 2.0 * np.mean(range(len(samples)))
