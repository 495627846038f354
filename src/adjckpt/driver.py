"""Schedule executor and the toy acoustic-wave operator it is verified on.

The wave operator solves m(x) u_tt - lap(u) = q with a second-order
leapfrog stencil and zero Dirichlet boundaries, on a 1D or 2D grid.  The
restartable state after step i is the pair (u_{i-1}, u_i), stacked as one
array of shape (2, *grid).  The reverse sweep propagates the exact discrete
transpose of that update, injects receiver residuals as adjoint sources,
and accumulates the objective gradient with respect to the squared
slowness m.  Each operator (a ``WaveStepper``, or one ``simulate`` call)
computes its coefficients once and reuses one workspace for every step,
yet every step returns fresh arrays, and the results are bit-identical to
evaluating the plain formulas step by step.
Fields are stored with the axis along which the source and receivers are
least spread (depth, when both sit near the surface) slowest in memory, so
each light cone is one contiguous flat range of grid lines.  A forward
step computes only the range the source's cone can have reached, and an
adjoint step only the range the receivers' cone can have reached since
the reverse sweep began.  Each first checks that its inputs are zero bits
outside that range and writes +0.0 on the rest, which is what the
formulas give; so the early steps of the forward sweep and of the reverse
sweep are the cheap ones.  The gradient update sweeps the whole grid.

``execute`` drives any ``Stepper`` through a schedule produced by the
schedule module, pulling checkpoints from a ``CheckpointStore`` through a
codec.  It has no register machine of its own: ``schedule.run_schedule``,
the interpreter behind ``schedule_stats`` too, walks the stream and calls
back here for each accepted action.  A stream that breaks the machine's
rules raises ``ScheduleValidationError`` at the index ``schedule_stats``
reports; any store or codec failure comes back from ``run_schedule`` as an
``ExecutionError`` naming the action's index and text form.

``calibrate`` is the one place that turns measurements into the cost
model's ``PerfParams``: one timed forward sweep for the median step
cost, the store's raw copy of its final state for the bandwidth, the
codec's profile on that state for the ratio, and its profiles on the
sampled states for the codec times (none for a ``NullCodec``, which the
store copies raw).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .codecs import Codec, NullCodec, profile
from .errors import InvalidArgumentError
from .perfmodel import PerfParams
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
    "simulate",
    "reference_adjoint",
    "calibrate",
    "execute",
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
    on violation rather than letting a run blow up midway, and on a ``dt``,
    ``spacing`` or point of ``slowness_sq`` that is not finite and positive.
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
        if not np.all(np.isfinite(self.slowness_sq) & (self.slowness_sq > 0)):
            raise InvalidArgumentError("slowness_sq must be finite and positive everywhere")
        for name in ("dt", "spacing"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InvalidArgumentError(f"{name} must be finite and positive, got {value!r}")
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


def homogeneous_params(shape: tuple[int, ...], nt: int) -> WaveParams:
    """Convenience constructor: uniform medium, centered source, spread receivers.

    The medium is 1500 m/s on a 10 m grid, dt is half the stability limit
    and the wavelet peaks at 12 Hz; up to eight receivers span the first
    axis, a quarter of the way down the second in 2D.
    """
    ndim = len(shape)
    if ndim not in (1, 2):  # before the medium of that shape is filled
        raise InvalidArgumentError("only 1D and 2D grids are supported")
    spacing = 10.0
    m = np.full(shape, 1.0 / 1500.0**2)
    dt = 0.5 * spacing * np.sqrt(m.min()) / np.sqrt(ndim)
    xs = np.linspace(2, shape[0] - 3, 8).astype(int)
    depth = (max(1, shape[1] // 4),) if ndim == 2 else ()
    return WaveParams(
        shape=tuple(shape),
        spacing=spacing,
        dt=dt,
        slowness_sq=m,
        wavelet=ricker_wavelet(nt, dt, 12.0),
        source=tuple(s // 2 for s in shape),
        receivers=tuple((int(x), *depth) for x in dict.fromkeys(xs.tolist())),
        nt=nt,
    )


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialised float64 vector whose data starts on a 64-byte boundary.

    The stencil sweeps its workspace about a quarter slower when the
    workspace sits off a cache line, so where malloc happens to put it
    would otherwise move the step time.
    """
    raw = np.empty(size + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + size]


def _outside(outer: slice, inner: slice) -> tuple[slice, ...]:
    """The nonempty parts of flat range ``outer`` that flat range ``inner`` leaves out."""
    parts = (
        slice(outer.start, min(outer.stop, inner.start)),
        slice(max(outer.start, inner.stop), outer.stop),
    )
    return tuple(p for p in parts if p.start < p.stop)


def _zero_bits(parts: tuple[slice, ...], *fields: np.ndarray) -> bool:
    """Whether every flat float64 field is zero bits on every part, so -0.0,
    NaN and inf are not."""
    for u in fields:
        bits = u.view(np.uint64)
        for p in parts:
            if bits[p].max(initial=0):
                return False
    return True


class _WaveKernel:
    """Forward and adjoint stencil of one ``WaveParams``, with its own workspace.

    What does not change from step to step is computed here once: the
    coefficient field dt^2 / m, h^2, the source amplitude series and the
    receiver index arrays.  Each step then does only the stencil arithmetic,
    through ufunc ``out=``, in the operation order of the plain formulas::

        lap      = (sum over axes of (u[i-1] + u[i+1]) - 2 ndim u[i]) / h^2
        u_next   = (2 u - u_prev) + coeff lap, plus coeff[src] wavelet[step]
        lam_prev = (2 lam - lam_older) + lap(coeff lam), plus the residuals
        gradient = gradient - lam_prev ((u_after - 2 u_at) + u_before) / m

    so the results are bit-identical to evaluating those formulas with
    fresh temporaries.  The axes' pairs are summed in grid order, axis 0's
    first, whatever the memory order.

    Fields are stored with the axis along which the source and receivers
    are least spread slowest in memory (depth, when the receivers spread
    along the surface; axis 0 on a tie, which is C order); ``new`` makes the
    grid-shaped views of such storage that states, adjoint fields and
    gradients are, and an array in any other layout is copied into it once
    on entry.
    The arithmetic runs on the band of the flattened storage from the first
    interior point to the last one, a contiguous slice that strided views
    are several times slower to sweep; the band's boundary points get
    throwaway values and are then zeroed.  One band-sized scratch array
    and one grid-sized one are reused by every step, and ``out``'s own
    band serves as the second scratch, so a kernel must not be shared
    between threads.

    Each forward and adjoint step sweeps only the flat range its fields can
    be nonzero on; the gradient update sweeps the whole grid.
    The stencil reaches one grid line of the slowest axis, the largest flat
    stride, per step, so the candidate for a forward ``step`` is ``step +
    1`` lines either side of the source, and for the adjoint at ``step``
    it is ``nt - step`` lines (one more than the adjoint steps taken)
    either side of the receivers' flat extent.  If the step's two inputs
    are zero bits outside the candidate (an integer view, so -0.0, NaN and
    inf count as nonzero), it computes the candidate widened by one line,
    the adjoint forming coeff lam only where the Laplacian reads it, and
    writes +0.0 on the rest of the band; otherwise, or once that span
    covers the band, it sweeps the whole band.  This is exact: a point
    outside the span sees only +0.0 inputs, and with ``coeff`` finite and
    positive the plain formulas give it +0.0, while the span holds the
    source and the receivers.

    ``forward`` and ``adjoint`` write every element of ``out``, which must
    come from ``new`` and must not overlap an input.
    """

    def __init__(self, params: WaveParams):
        shape = params.shape
        ndim = len(shape)
        points = np.array((params.source, *params.receivers))
        slow = int(np.argmin(np.ptp(points, axis=0)))  # the first on a tie
        self._perm = (slow, *(k for k in range(ndim) if k != slow))
        self._memory_shape = tuple(shape[k] for k in self._perm)
        axes = [self._perm.index(k) for k in range(ndim)]  # each grid axis's place in memory
        # storage to grid order, after no leading axis and after one
        self._to_grid = [(*range(n), *(n + a for a in axes)) for n in (0, 1)]
        strides = [math.prod(self._memory_shape[k + 1 :]) for k in range(ndim)]
        self._strides = [strides[a] for a in axes]  # flat stride of each grid axis
        self._reach = strides[0]  # the farthest flat neighbour: one grid line
        self._size = math.prod(shape)
        self._all = slice(0, self._size)
        self._lo = sum(strides)  # flat index of the first interior point
        self._hi = self._size - self._lo
        self._faces = []
        for axis in range(ndim):
            for end in (0, -1):
                face = [slice(None)] * ndim
                face[axis] = end
                self._faces.append(tuple(face))
        self._centre = 2.0 * ndim
        self._hh = params.spacing * params.spacing
        self._nt = params.nt
        self._slowness_sq = self._flat(params.slowness_sq)
        self.coeff = params.dt**2 / params.slowness_sq
        self._coeff = self._flat(self.coeff)
        self._source = params.source
        self._source_at = (self._at(params.source),) * 2
        flat = [self._at(r) for r in params.receivers]
        self._receivers_at = (min(flat, default=0), max(flat, default=0))
        self._amplitude = self.coeff[params.source] * np.asarray(params.wavelet, dtype=float)
        self.receivers = tuple(
            np.array(params.receivers, dtype=np.intp).reshape(-1, ndim).T
        )
        self._a = _aligned_empty(self._hi - self._lo)
        self._grid = _aligned_empty(self._size)
        self._spans: dict[tuple[int, int], tuple] = {}
        self._full = self._span(self._lo, self._hi)

    def new(self, *lead: int, zeros: bool = False) -> np.ndarray:
        """A fresh array of shape ``(*lead, *grid)``, each grid laid out in memory order.

        ``lead`` holds at most one axis.
        """
        raw = (np.zeros if zeros else np.empty)((*lead, *self._memory_shape))
        return raw.transpose(self._to_grid[len(lead)])

    def _flat(self, a: np.ndarray) -> np.ndarray:
        """Grid-shaped ``a`` in memory order, flat: a view if ``new`` laid it out, else a copy."""
        return a.transpose(self._perm).reshape(-1)

    def _at(self, point: tuple[int, ...]) -> int:
        return sum(c * st for c, st in zip(point, self._strides))

    def _span(self, lo: int, hi: int):
        """Slices that sweep flat [lo, hi) of the band, and the band's rest.

        Returns the span, each axis's pair of neighbour slices, the span's
        part of the scratch array and the slices of the band outside it.
        Each is made once: a sweep asks for the same spans step after step.
        """
        made = self._spans.get((lo, hi))
        if made is None:
            pairs = [(slice(lo - st, hi - st), slice(lo + st, hi + st)) for st in self._strides]
            span = slice(lo, hi)
            rest = _outside(slice(self._lo, self._hi), span)
            made = self._spans[lo, hi] = span, pairs, self._a[lo - self._lo : hi - self._lo], rest
        return made

    def _cone(self, at: tuple[int, int], lines: int, *fields: np.ndarray):
        """The ``_span`` a step must sweep if its flat ``fields`` can be
        nonzero only within ``lines`` grid lines of flat range ``at``."""
        reach = self._reach
        near = slice(max(at[0] - lines * reach, 0), min(at[1] + lines * reach + 1, self._size))
        if near.start - reach <= self._lo and near.stop + reach >= self._hi:
            return self._full
        if not _zero_bits(_outside(self._all, near), *fields):
            return self._full
        return self._span(max(near.start - reach, self._lo), min(near.stop + reach, self._hi))

    def _laplacian(self, u: np.ndarray, span, pairs, lap: np.ndarray, b: np.ndarray) -> None:
        """lap(u) on ``span`` of flat ``u`` into ``lap``, ``b`` as scratch."""
        # per-axis pairs summed first, in grid order: mirror images then
        # produce bitwise identical fields, which the symmetry checks rely on
        (lo, hi), *rest = pairs
        np.add(u[lo], u[hi], out=lap)
        for lo, hi in rest:
            np.add(u[lo], u[hi], out=b)
            np.add(lap, b, out=lap)
        np.multiply(u[span], self._centre, out=b)
        np.subtract(lap, b, out=lap)
        np.divide(lap, self._hh, out=lap)

    @staticmethod
    def _leapfrog(cur: np.ndarray, older: np.ndarray, lap: np.ndarray, new: np.ndarray) -> None:
        """new = (2 cur - older) + lap, all given on the same span."""
        np.multiply(cur, 2.0, out=new)
        np.subtract(new, older, out=new)
        np.add(new, lap, out=new)

    def _zero_faces(self, out: np.ndarray) -> None:
        for face in self._faces:
            out[face] = 0.0

    def forward(
        self, u_prev: np.ndarray, u_curr: np.ndarray, step: int, out: np.ndarray
    ) -> np.ndarray:
        """u after ``step`` into ``out``."""
        u_prev, u_curr, flat = self._flat(u_prev), self._flat(u_curr), self._flat(out)
        span, pairs, lap, quiet = self._cone(self._source_at, step + 1, u_prev, u_curr)
        new = flat[span]
        self._laplacian(u_curr, span, pairs, lap, new)
        np.multiply(self._coeff[span], lap, out=lap)
        self._leapfrog(u_curr[span], u_prev[span], lap, new)
        for rest in quiet:
            flat[rest] = 0.0
        self._zero_faces(out)
        out[self._source] += self._amplitude[step]
        return out

    def adjoint(
        self, lam: np.ndarray, lam_older: np.ndarray, residual, step: int, out: np.ndarray
    ) -> np.ndarray:
        """Exact transpose of ``forward`` with ``residual`` injected at the receivers."""
        lam, lam_older, flat = self._flat(lam), self._flat(lam_older), self._flat(out)
        span, pairs, lap, quiet = self._cone(self._receivers_at, self._nt - step, lam, lam_older)
        read = slice(span.start - self._reach, span.stop + self._reach)  # what the Laplacian reads
        field = self._grid
        np.multiply(self._coeff[read], lam[read], out=field[read])
        new = flat[span]
        self._laplacian(field, span, pairs, lap, new)
        self._leapfrog(lam[span], lam_older[span], lap, new)
        for rest in quiet:
            flat[rest] = 0.0
        self._zero_faces(out)
        # unbuffered, so a receiver listed twice gets its residual twice
        np.add.at(out, self.receivers, residual)
        return out

    def gradient(
        self,
        gradient: np.ndarray,
        lam_prev: np.ndarray,
        u_before: np.ndarray,
        u_at: np.ndarray,
        u_after: np.ndarray,
    ) -> np.ndarray:
        """Fresh gradient - lam_prev * ((u_after - 2 u_at) + u_before) / m."""
        g, lam, u_before, u_at, u_after = (
            self._flat(a) for a in (gradient, lam_prev, u_before, u_at, u_after)
        )
        out = self.new()
        t = np.multiply(u_at, 2.0, out=self._grid)
        np.subtract(u_after, t, out=t)
        np.add(t, u_before, out=t)
        np.divide(t, self._slowness_sq, out=t)
        np.multiply(lam, t, out=t)
        np.subtract(g, t, out=self._flat(out))
        return out


def simulate(params: WaveParams) -> np.ndarray:
    """Forward sweep recording receivers; row i holds the data after step i."""
    kernel = _WaveKernel(params)
    u_prev, u_curr, u_next = (kernel.new(zeros=True) for _ in range(3))
    data = np.zeros((params.nt, len(params.receivers)))
    for i in range(params.nt):
        kernel.forward(u_prev, u_curr, i, u_next)
        data[i] = u_next[kernel.receivers]
        u_prev, u_curr, u_next = u_curr, u_next, u_prev
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
        self._kernel = _WaveKernel(params)

    def initial_state(self) -> np.ndarray:
        return self._kernel.new(2, zeros=True)

    def initial_adjoint(self) -> WaveAdjoint:
        new = self._kernel.new
        return WaveAdjoint(new(zeros=True), new(zeros=True), new(zeros=True), 0.0)

    def forward(self, state: np.ndarray, step: int) -> np.ndarray:
        out = self._kernel.new(2)
        out[0] = state[1]
        self._kernel.forward(state[0], state[1], step, out[1])
        return out

    def adjoint(
        self, adj: WaveAdjoint, state: np.ndarray, state_next: np.ndarray, step: int
    ) -> WaveAdjoint:
        u_before, u_at = state[0], state[1]
        u_after = state_next[1]
        kernel = self._kernel
        residual = u_after[kernel.receivers] - self.d_obs[step]
        lam_prev = kernel.adjoint(adj.lam, adj.lam_older, residual, step, kernel.new())
        gradient = kernel.gradient(adj.gradient, lam_prev, u_before, u_at, u_after)
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
# allocation and cache-warming costs that no later step sees.  The steps
# after them are not all alike either: a step's cost grows with the light
# cone it sweeps, along the slowest axis in memory, until the cone covers
# the grid, so the median is one of those costs, not a steady-state one.
_CALIBRATION_WARMUP = 4
# Codec round trips, and raw store copies, that ``calibrate`` times.
_CALIBRATION_REPS = 5


def _memory_order(a: np.ndarray) -> tuple[int, ...]:
    """The axes of ``a``, slowest in memory first: ``a.transpose`` of them
    is C-ordered if ``a`` is contiguous in any axis order."""
    return tuple(np.argsort(a.strides, kind="stable")[::-1].tolist())


def calibrate(
    stepper: Stepper, codec: Codec, memory_bytes: float
) -> tuple[PerfParams, list[np.ndarray]]:
    """Cost-model parameters of ``stepper`` and ``codec``, measured, plus states.

    The step cost is the median seconds per forward step over one forward
    sweep, warm-up left out.  A step sweeps only the source's light cone
    along the slowest axis in memory, so its cost grows until the cone
    covers the grid, and the median falls among the growing costs unless
    the cone covers the grid within the first half of the sweep (on a
    square grid, the cone from a centred source does so after half the
    grid's side in steps).  The adjoint steps, priced at this cost too,
    sweep the receivers' cone, which grows over the reverse sweep.  The
    copy bandwidth comes from the median time
    of a ``NullCodec`` put of the final state, the read-only copy the store
    keeps of a raw checkpoint.  The states are the initial one, samples
    every quarter of the sweep and the final one, last.  ``codec`` is
    profiled once on each: the ratio is the final state's, and the codec
    times are the mean over all of them, because a codec's cost can grow
    with the state (the quantizer's with its share of hot blocks) and a
    sweep checkpoints states from every part of the run.  A
    ``NullCodec`` is priced as the store runs it, at ratio 1 with no codec
    time, so its side costs what the plain side does.  Each state is copied
    and profiled as a sweep hands it to the store, transposed into its
    memory order.  ``memory_bytes`` is passed through.
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
    if samples[-1] is not state:  # the loop may have sampled the final state
        samples.append(state)
    good = times[_CALIBRATION_WARMUP:] if len(times) > _CALIBRATION_WARMUP else times
    laid = [s.transpose(_memory_order(s)) for s in samples]
    raw, null = CheckpointStore(state.nbytes), NullCodec()
    copies = []
    for _ in range(_CALIBRATION_REPS):
        t0 = time.perf_counter()
        raw.put(0, 0, laid[-1], null, overwrite=True)
        copies.append(time.perf_counter() - t0)
    ratio, t_c, t_d = 1.0, 0.0, 0.0  # a raw checkpoint is the copy timed above
    if not isinstance(codec, NullCodec):
        profiles = [profile(codec, s, repetitions=_CALIBRATION_REPS) for s in laid]
        ratio = profiles[-1].ratio
        t_c = float(np.mean([p.t_c for p in profiles]))
        t_d = float(np.mean([p.t_d for p in profiles]))
    params = PerfParams(
        step_cost=float(np.median(good)),
        nsteps=stepper.nsteps,
        state_bytes=state.nbytes,
        bandwidth=state.nbytes / max(float(np.median(copies)), 1e-9),
        memory_bytes=memory_bytes,
        ratio=ratio,
        compress_time=t_c,
        decompress_time=t_d,
    )
    return params, samples


# ---------------------------------------------------------------------------
# Schedule execution
# ---------------------------------------------------------------------------


@dataclass
class ExecutionStats:
    """Forward steps run (the first sweep plus every replay) and adjoint steps run.

    The sweep keeps no clocks; time its phases from outside, by wrapping
    the stepper.
    """

    primal_steps: int
    adjoint_steps: int


@dataclass
class ExecutionResult:
    adjoint: object
    stats: ExecutionStats


class _Sweep(ScheduleBackend):
    """Executing backend of ``run_schedule``: steps the operator, moves checkpoints.

    It holds the live state array, the upper state array and the adjoint;
    which step each array belongs to is the interpreter's business.  The
    store is reached only through ``put``/``get``/``free``.  Each state goes
    to the store transposed into the memory order of the stepper's initial
    state, a C-ordered view that no codec has to copy, and a restored
    checkpoint is transposed back, a view in the stepper's own layout.
    """

    def __init__(self, stepper: Stepper, store: CheckpointStore, codec: Codec):
        self.stepper = stepper
        self.ckpts = store
        self.codec = codec
        self.cur = stepper.initial_state()
        self.order = _memory_order(self.cur)
        self.back = tuple(np.argsort(self.order).tolist())
        self.upper: np.ndarray | None = None
        self.adj = stepper.initial_adjoint()

    def store(self, slot: int, state: int) -> None:
        self.ckpts.put(slot, state, self.cur.transpose(self.order), self.codec)

    def restore(self, slot: int, state: int) -> None:
        self.cur = self.ckpts.get(slot, self.codec)[1].transpose(self.back)

    def discard(self, slot: int) -> None:
        self.ckpts.free(slot)

    def advance(self, from_step: int, to_step: int) -> None:
        for k in range(from_step, to_step):
            self.cur = self.stepper.forward(self.cur, k)

    def capture(self, step: int) -> None:
        self.upper = self.stepper.forward(self.cur, step)

    def adjoint(self, step: int) -> None:
        self.adj = self.stepper.adjoint(self.adj, self.cur, self.upper, step)
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
    and codec failures abort with the schedule position attached.  The
    step counts come from the interpreter's tally of the stream.
    """
    n = stepper.nsteps
    sweep = _Sweep(stepper, store, codec)
    counts = run_schedule(actions, n, None, sweep)
    return ExecutionResult(sweep.adj, ExecutionStats(n + counts.recompute_steps, n))
