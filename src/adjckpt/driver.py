"""Schedule executor and the toy acoustic-wave operator it is verified on.

The wave operator solves m(x) u_tt - lap(u) = q with a second-order
leapfrog stencil and zero Dirichlet boundaries, on a 1D or 2D grid.  The
restartable state after step i is the pair (u_{i-1}, u_i), stacked as one
array of shape (2, *grid).  The reverse sweep propagates the exact discrete
transpose of that update, injects receiver residuals as adjoint sources,
and accumulates the objective gradient with respect to the squared
slowness m.

``execute`` drives any ``Stepper`` through a schedule produced by the
schedule module, pulling checkpoints from a ``CheckpointStore`` through a
codec.  It has no register machine of its own: ``schedule.run_schedule``,
the interpreter behind ``schedule_stats`` too, walks the stream and calls
back here for each accepted action.  A stream that breaks the machine's
rules raises ``ScheduleValidationError`` at the index ``schedule_stats``
reports; any store or codec failure comes back from ``run_schedule`` as an
``ExecutionError`` naming the action's index and text form.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

import numpy as np

from .codecs import Codec
from .errors import InvalidArgumentError
from .schedule import ScheduleAction, ScheduleBackend, run_schedule
from .store import CheckpointStore

__all__ = [
    "WaveParams",
    "WaveAdjoint",
    "WaveStepper",
    "Stepper",
    "ExecutionStats",
    "ExecutionResult",
    "ricker_wavelet",
    "wave_forward_step",
    "wave_adjoint_step",
    "misfit",
    "simulate",
    "adjoint_source_series",
    "reference_adjoint",
    "calibrate",
    "dot_test",
    "execute",
    "load_benchmark_config",
]


def ricker_wavelet(nt: int, dt: float, peak_freq: float) -> np.ndarray:
    """Band-limited source pulse: second derivative of a Gaussian, peaking at 1 / peak_freq."""
    t = np.arange(nt) * dt - 1.0 / peak_freq
    arg = (np.pi * peak_freq * t) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


@dataclass(frozen=True)
class WaveParams:
    """Grid, medium, source and receivers of one toy wave problem.

    ``slowness_sq`` is 1/c(x)^2.  The leapfrog update is stable only under
    dt <= spacing * sqrt(min slowness_sq) / sqrt(ndim); construction fails
    on violation rather than letting a run blow up midway.
    """

    shape: tuple[int, ...]
    spacing: float
    dt: float
    slowness_sq: np.ndarray
    wavelet: np.ndarray
    source: tuple[int, ...]
    receivers: tuple[tuple[int, ...], ...]
    nt: int

    def __post_init__(self):
        ndim = len(self.shape)
        if ndim not in (1, 2):
            raise InvalidArgumentError("only 1D and 2D grids are supported")
        if self.slowness_sq.shape != self.shape:
            raise InvalidArgumentError("slowness_sq shape does not match the grid")
        if np.any(self.slowness_sq <= 0):
            raise InvalidArgumentError("slowness_sq must be positive everywhere")
        if self.nt < 1 or len(self.wavelet) < self.nt:
            raise InvalidArgumentError("need nt >= 1 and a wavelet covering nt steps")
        limit = self.spacing * np.sqrt(self.slowness_sq.min()) / np.sqrt(ndim)
        if not self.dt <= limit:
            raise InvalidArgumentError(
                f"stability violated: dt={self.dt:g} exceeds limit {limit:g}"
            )
        for loc in (self.source, *self.receivers):
            if len(loc) != ndim or any(not 0 < c < s - 1 for c, s in zip(loc, self.shape)):
                raise InvalidArgumentError(
                    f"point {loc} must lie strictly inside the grid {self.shape}"
                )


def homogeneous_params(
    shape: tuple[int, ...],
    nt: int,
    velocity: float = 1500.0,
    spacing: float = 10.0,
    peak_freq: float = 12.0,
) -> WaveParams:
    """Convenience constructor: uniform medium, centered source, spread receivers.

    dt is half the stability limit; up to eight receivers span the first
    axis, a quarter of the way down the second in 2D.
    """
    ndim = len(shape)
    m = np.full(shape, 1.0 / velocity**2)
    dt = 0.5 * spacing * np.sqrt(m.min()) / np.sqrt(ndim)
    xs = np.linspace(2, shape[0] - 3, 8).astype(int)
    depth = (max(1, shape[1] // 4),) if ndim == 2 else ()
    return WaveParams(
        shape=tuple(shape),
        spacing=spacing,
        dt=dt,
        slowness_sq=m,
        wavelet=ricker_wavelet(nt, dt, peak_freq),
        source=tuple(s // 2 for s in shape),
        receivers=tuple((int(x), *depth) for x in dict.fromkeys(xs.tolist())),
        nt=nt,
    )


def _laplacian(u: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(u)
    if u.ndim == 1:
        out[1:-1] = u[:-2] + u[2:] - 2.0 * u[1:-1]
    else:
        # per-axis pairs summed first: mirror images then produce bitwise
        # identical fields, which the symmetry checks rely on
        out[1:-1, 1:-1] = (
            (u[:-2, 1:-1] + u[2:, 1:-1])
            + (u[1:-1, :-2] + u[1:-1, 2:])
            - 4.0 * u[1:-1, 1:-1]
        )
    out /= h * h
    return out


def _interior(mask_like: np.ndarray) -> tuple[slice, ...]:
    return tuple(slice(1, -1) for _ in mask_like.shape)


def wave_forward_step(
    u_prev: np.ndarray, u_curr: np.ndarray, params: WaveParams, step: int
) -> np.ndarray:
    """One leapfrog update; boundaries stay at zero."""
    coeff = params.dt**2 / params.slowness_sq
    u_next = np.zeros_like(u_curr)
    inner = _interior(u_curr)
    lap = _laplacian(u_curr, params.spacing)
    u_next[inner] = (
        2.0 * u_curr[inner] - u_prev[inner] + coeff[inner] * lap[inner]
    )
    u_next[params.source] += coeff[params.source] * params.wavelet[step]
    return u_next


def wave_adjoint_step(
    lam: np.ndarray,
    lam_older: np.ndarray,
    residual: np.ndarray,
    params: WaveParams,
) -> np.ndarray:
    """Exact transpose of the forward update with residuals injected at receivers."""
    coeff = params.dt**2 / params.slowness_sq
    lam_prev = np.zeros_like(lam)
    inner = _interior(lam)
    lap = _laplacian(coeff * lam, params.spacing)
    lam_prev[inner] = 2.0 * lam[inner] - lam_older[inner] + lap[inner]
    for j, loc in enumerate(params.receivers):
        lam_prev[loc] += residual[j]
    return lam_prev


def misfit(d_sim: np.ndarray, d_obs: np.ndarray) -> float:
    """Half the squared l2 distance between simulated and observed data."""
    diff = np.asarray(d_sim) - np.asarray(d_obs)
    return 0.5 * float(np.vdot(diff, diff).real)


def simulate(params: WaveParams, wavelet: np.ndarray | None = None) -> np.ndarray:
    """Forward sweep recording receivers; row i holds the data after step i."""
    if wavelet is not None:
        params = replace(params, wavelet=np.asarray(wavelet, dtype=float))
    u_prev = np.zeros(params.shape)
    u_curr = np.zeros(params.shape)
    data = np.zeros((params.nt, len(params.receivers)))
    for i in range(params.nt):
        u_next = wave_forward_step(u_prev, u_curr, params, i)
        for j, loc in enumerate(params.receivers):
            data[i, j] = u_next[loc]
        u_prev, u_curr = u_curr, u_next
    return data


@dataclass(frozen=True)
class WaveAdjoint:
    """Adjoint sweep state: two adjoint field levels plus running outputs."""

    lam: np.ndarray
    lam_older: np.ndarray
    gradient: np.ndarray
    misfit_value: float


class Stepper(Protocol):
    """What ``execute`` needs from a forward/adjoint operator pair."""

    nsteps: int

    def initial_state(self) -> np.ndarray: ...

    def initial_adjoint(self): ...

    def forward(self, state: np.ndarray, step: int) -> np.ndarray: ...

    def adjoint(self, adj, state: np.ndarray, state_next: np.ndarray, step: int): ...


class WaveStepper:
    """Wave operator in executor form; states are (u_prev, u_curr) pairs.

    ``d_obs`` defaults to all zeros, which turns the misfit into the plain
    data energy; any fixed array of shape (nt, nreceivers) works.
    """

    def __init__(self, params: WaveParams, d_obs: np.ndarray | None = None):
        self.params = params
        self.nsteps = params.nt
        if d_obs is None:
            d_obs = np.zeros((params.nt, len(params.receivers)))
        d_obs = np.asarray(d_obs, dtype=float)
        if d_obs.shape != (params.nt, len(params.receivers)):
            raise InvalidArgumentError(
                f"d_obs must have shape ({params.nt}, {len(params.receivers)})"
            )
        self.d_obs = d_obs

    def initial_state(self) -> np.ndarray:
        return np.zeros((2, *self.params.shape))

    def initial_adjoint(self) -> WaveAdjoint:
        z = np.zeros(self.params.shape)
        return WaveAdjoint(z, z.copy(), np.zeros(self.params.shape), 0.0)

    def forward(self, state: np.ndarray, step: int) -> np.ndarray:
        u_next = wave_forward_step(state[0], state[1], self.params, step)
        return np.stack([state[1], u_next])

    def adjoint(
        self, adj: WaveAdjoint, state: np.ndarray, state_next: np.ndarray, step: int
    ) -> WaveAdjoint:
        u_before, u_at = state[0], state[1]
        u_after = state_next[1]
        residual = np.array([u_after[loc] for loc in self.params.receivers])
        residual -= self.d_obs[step]
        lam_prev = wave_adjoint_step(adj.lam, adj.lam_older, residual, self.params)
        gradient = adj.gradient - lam_prev * (
            (u_after - 2.0 * u_at + u_before) / self.params.slowness_sq
        )
        mis = adj.misfit_value + 0.5 * float(residual @ residual)
        return WaveAdjoint(lam_prev, adj.lam, gradient, mis)


def reference_adjoint(stepper: Stepper):
    """Full-storage adjoint: keep every forward state, then sweep backwards."""
    states = [stepper.initial_state()]
    for i in range(stepper.nsteps):
        states.append(stepper.forward(states[-1], i))
    adj = stepper.initial_adjoint()
    for i in reversed(range(stepper.nsteps)):
        adj = stepper.adjoint(adj, states[i], states[i + 1], i)
    return adj


# Forward steps left out of the calibrated step cost: they pay one-time
# allocation and cache-warming costs that no later step sees.
_CALIBRATION_WARMUP = 4


def calibrate(stepper: Stepper) -> tuple[float, list[np.ndarray]]:
    """Median seconds per forward step over one forward sweep, plus states.

    The states are the initial one, samples every quarter of the sweep and
    the final one, last; callers profile codecs on them.
    """
    state = stepper.initial_state()
    samples = [state]
    times = []
    for i in range(stepper.nsteps):
        t0 = time.perf_counter()
        state = stepper.forward(state, i)
        times.append(time.perf_counter() - t0)
        if i % max(1, stepper.nsteps // 4) == 0:
            samples.append(state)
    samples.append(state)
    good = times[_CALIBRATION_WARMUP:] if len(times) > _CALIBRATION_WARMUP else times
    return float(np.median(good)), samples


def adjoint_source_series(params: WaveParams, residuals: np.ndarray) -> np.ndarray:
    """Transpose of ``simulate``: data-space residuals back to source amplitudes."""
    residuals = np.asarray(residuals, dtype=float)
    lam = np.zeros(params.shape)
    lam_older = np.zeros(params.shape)
    coeff = params.dt**2 / params.slowness_sq
    out = np.zeros(params.nt)
    for i in reversed(range(params.nt)):
        lam_prev = wave_adjoint_step(lam, lam_older, residuals[i], params)
        out[i] = coeff[params.source] * lam_prev[params.source]
        lam, lam_older = lam_prev, lam
    return out


def dot_test(params: WaveParams, trials: int = 20, seed: int = 0) -> float:
    """Max relative mismatch of <A w, r> vs <w, A^T r> over random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.normal(size=params.nt)
        r = rng.normal(size=(params.nt, len(params.receivers)))
        d = simulate(params, wavelet=w)
        g = adjoint_source_series(params, r)
        lhs = float(np.vdot(d, r).real)
        rhs = float(np.vdot(w, g).real)
        denom = float(np.linalg.norm(d) * np.linalg.norm(r)) or 1.0
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------


@dataclass
class ExecutionStats:
    primal_steps: int = 0
    adjoint_steps: int = 0
    advance_seconds: float = 0.0
    capture_seconds: float = 0.0
    adjoint_seconds: float = 0.0

    @property
    def forward_step_seconds(self) -> float:
        if self.primal_steps == 0:
            return 0.0
        return (self.advance_seconds + self.capture_seconds) / self.primal_steps

    @property
    def adjoint_step_seconds(self) -> float:
        if self.adjoint_steps == 0:
            return 0.0
        return self.adjoint_seconds / self.adjoint_steps


@dataclass
class ExecutionResult:
    adjoint: object
    stats: ExecutionStats


class _Sweep(ScheduleBackend):
    """Executing backend of ``run_schedule``: steps the operator, moves checkpoints.

    It holds the live state array, the upper state array and the adjoint;
    which step each array belongs to is the interpreter's business.  The
    store is reached only through ``put``/``get``/``free``.
    """

    def __init__(self, stepper: Stepper, store: CheckpointStore, codec: Codec):
        self.stepper = stepper
        self.ckpts = store
        self.codec = codec
        self.cur = stepper.initial_state()
        self.upper: np.ndarray | None = None
        self.adj = stepper.initial_adjoint()
        self.stats = ExecutionStats()

    def store(self, slot: int, state: int) -> None:
        self.ckpts.put(slot, state, self.cur, self.codec)

    def restore(self, slot: int, state: int) -> None:
        _, self.cur = self.ckpts.get(slot, self.codec)

    def discard(self, slot: int) -> None:
        self.ckpts.free(slot)

    def advance(self, from_step: int, to_step: int) -> None:
        t0 = time.perf_counter()
        for k in range(from_step, to_step):
            self.cur = self.stepper.forward(self.cur, k)
        self.stats.advance_seconds += time.perf_counter() - t0

    def capture(self, step: int) -> None:
        t0 = time.perf_counter()
        self.upper = self.stepper.forward(self.cur, step)
        self.stats.capture_seconds += time.perf_counter() - t0

    def adjoint(self, step: int) -> None:
        t0 = time.perf_counter()
        self.adj = self.stepper.adjoint(self.adj, self.cur, self.upper, step)
        self.stats.adjoint_seconds += time.perf_counter() - t0
        self.upper = self.cur


def execute(
    actions: list[ScheduleAction],
    stepper: Stepper,
    store: CheckpointStore,
    codec: Codec,
) -> ExecutionResult:
    """Run an adjoint sweep by following a schedule action stream.

    The stream is interpreted by ``schedule.run_schedule`` with no slot
    bound, the store's byte budget being the bound; it raises
    ScheduleValidationError exactly where ``schedule_stats`` would.  Store
    and codec failures abort with the schedule position attached.
    """
    n = stepper.nsteps
    sweep = _Sweep(stepper, store, codec)
    counts = run_schedule(actions, n, None, sweep)
    stats = sweep.stats
    stats.primal_steps = n + counts.recompute_steps
    stats.adjoint_steps = n
    return ExecutionResult(adjoint=sweep.adj, stats=stats)


# ---------------------------------------------------------------------------
# Benchmark configuration (key = value text file)
# ---------------------------------------------------------------------------

_CONFIG_DEFAULTS = {
    "grid": "120x120",
    "spacing": 10.0,
    "dt": 0.0,  # 0 means: half the stability limit
    "velocity": 1500.0,
    "peak_freq": 12.0,
    "nt": 60,
    "slots": 3,
    "budget_bytes": 0.0,  # 0 means: derive from slots
    "codec": "cast",
    "tolerance": 1e-6,
}


def load_benchmark_config(path: str | Path | None) -> dict:
    """Parse the benchmark config file; missing keys fall back to defaults."""
    cfg = dict(_CONFIG_DEFAULTS)
    if path is None:
        return cfg
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in cfg:
            raise InvalidArgumentError(f"{path}:{lineno}: unknown key {key!r}")
        proto = _CONFIG_DEFAULTS[key]
        if isinstance(proto, str):
            cfg[key] = val
        elif isinstance(proto, int):
            cfg[key] = int(float(val))
        else:
            cfg[key] = float(val)
    return cfg


def params_from_config(cfg: dict) -> WaveParams:
    grid = cfg["grid"]
    shape = tuple(int(s) for s in str(grid).lower().split("x"))
    params = homogeneous_params(
        shape,
        nt=int(cfg["nt"]),
        velocity=float(cfg["velocity"]),
        spacing=float(cfg["spacing"]),
        peak_freq=float(cfg["peak_freq"]),
    )
    if float(cfg.get("dt", 0.0)) > 0:
        params = replace(
            params,
            dt=float(cfg["dt"]),
            wavelet=ricker_wavelet(params.nt, float(cfg["dt"]), float(cfg["peak_freq"])),
        )
    return params
