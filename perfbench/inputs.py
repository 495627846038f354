"""Seeded inputs for every workload; the package only ever sees their output.

The same seed always gives the same inputs.  Two kinds are generated:

* wave problems: a heterogeneous velocity model (depth gradient plus smooth
  seeded perturbations), a seeded source and receiver line, a "true" model
  that adds one seeded anomaly near the source, and the observed data simulated on the
  true model.  The stepper runs on the background model, so the residuals
  and therefore the gradient are nonzero.
* advise queries around the paper defaults, stratified over memory so that
  every seed draws queries of comparable cost, and with N, memory and
  ratio all distinct so that no two queries share a cache key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from adjckpt import driver

SPACING = 10.0
CFL_FRACTION = 0.5

# Paper defaults behind `adjckpt advise`.
STATE_BYTES = 900e6
BANDWIDTH = 10e9
STEP_COST = 0.1
CODEC_SECONDS = 0.05
# Memory is drawn from [4/3 S, 2 S], low in the checkpoint-required regime,
# where one cold query costs about 1 s.  The median of a run is only as
# steady as the number of queries of similar cost in it: on a shared 2-core
# host, identical 2 s DP builds varied by +-25 %, and across the whole
# regime (or at the 8 GB CLI default, ~6 s a query) a 20 s run holds too
# few comparable queries.  The 25-point sweep covers 2 GB..3 TB.
MEMORY_LO = 4 / 3 * STATE_BYTES
MEMORY_HI = 2 * STATE_BYTES
# Four strata a round keep rounds short (about 5 s), so a run ends close to
# its time limit after whole rounds.
STRATA = 4
SWEEP_RANGE = (2e9, 3e12, 25)


@dataclass(frozen=True)
class WaveProblem:
    params: driver.WaveParams  # background model the gradient is taken on
    d_obs: np.ndarray  # data simulated on the true model


def _smooth_bumps(rng, shape, count, amplitude) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(s, dtype=float) for s in shape], indexing="ij")
    out = np.zeros(shape)
    for _ in range(count):
        centre = [rng.uniform(0, s) for s in shape]
        width = rng.uniform(0.08, 0.2) * max(shape)
        dist2 = sum((a - c) ** 2 for a, c in zip(axes, centre))
        out += rng.uniform(-amplitude, amplitude) * np.exp(-dist2 / (2 * width**2))
    return out


def wave_problem(shape: tuple[int, ...], nt: int, seed: int) -> WaveProblem:
    """Seeded heterogeneous wave problem on a 1D or 2D grid.

    The last axis is depth.  Source and receivers sit near the surface.
    """
    rng = np.random.default_rng(seed)
    depth = np.linspace(0.0, 1.0, shape[-1])
    v_top = rng.uniform(1450.0, 1550.0)
    v_bottom = rng.uniform(2200.0, 2600.0)
    background = (v_top + (v_bottom - v_top) * depth) * (
        1.0 + _smooth_bumps(rng, shape, 4, 0.04)
    )
    if len(shape) == 1:
        n = shape[0]
        source = (int(rng.integers(n // 4, 3 * n // 4)),)
        receivers = tuple((int(x),) for x in np.linspace(2, n - 3, 16).astype(int))
    else:
        nx, nz = shape
        source = (int(rng.integers(nx // 4, 3 * nx // 4)), int(rng.integers(2, 6)))
        z_rec = int(rng.integers(3, 8))
        receivers = tuple(
            (int(x), z_rec) for x in np.linspace(2, nx - 3, 32).astype(int)
        )
    # The anomaly sits 8..16 cells from the source, which the first arrival
    # and its reflection cross well within the shortest run (200 steps), so
    # every seed has residuals of the same order.  A random placement could
    # leave the residuals near 1e-5, where any lossy codec's error dominates.
    axes = np.meshgrid(*[np.arange(s, dtype=float) for s in shape], indexing="ij")
    offset = rng.normal(size=len(shape))
    centre = np.array(source) + rng.uniform(8.0, 16.0) * offset / np.linalg.norm(offset)
    centre[-1] = abs(centre[-1])
    width = rng.uniform(3.0, 6.0)
    dist2 = sum((a - c) ** 2 for a, c in zip(axes, centre))
    anomaly = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.1) * np.exp(-dist2 / (2 * width**2))
    true = background * (1.0 + anomaly)
    vmax = max(background.max(), true.max())
    dt = CFL_FRACTION * SPACING / (vmax * math.sqrt(len(shape)))
    wavelet = driver.ricker_wavelet(nt, dt, rng.uniform(10.0, 14.0))

    def params(velocity):
        return driver.WaveParams(
            shape=tuple(shape),
            spacing=SPACING,
            dt=dt,
            slowness_sq=1.0 / velocity**2,
            wavelet=wavelet,
            source=source,
            receivers=receivers,
            nt=nt,
        )

    return WaveProblem(params=params(background), d_obs=driver.simulate(params(true)))


@dataclass(frozen=True)
class AdviseQuery:
    nsteps: int
    memory_bytes: float
    ratio: float

    def as_args(self) -> dict:
        """Keyword arguments of ``perfmodel.PerfParams`` for this query."""
        return dict(
            step_cost=STEP_COST,
            nsteps=self.nsteps,
            state_bytes=STATE_BYTES,
            bandwidth=BANDWIDTH,
            memory_bytes=self.memory_bytes,
            ratio=self.ratio,
            compress_time=CODEC_SECONDS,
            decompress_time=CODEC_SECONDS,
        )


def advise_round(seed: int, round_index: int) -> list[AdviseQuery]:
    """One query per memory stratum, in a seeded order.

    [MEMORY_LO, MEMORY_HI] is cut into ``STRATA`` equal slices in log scale
    and each query draws its memory log-uniformly from its slice, so every
    seed covers the band evenly; N is drawn near 2500 and the ratio near 42.
    """
    rng = np.random.default_rng([seed, round_index])
    lo, hi = math.log(MEMORY_LO), math.log(MEMORY_HI)
    queries = []
    for j in rng.permutation(STRATA):
        u = rng.uniform()
        queries.append(
            AdviseQuery(
                nsteps=int(rng.integers(2450, 2551)),
                memory_bytes=float(math.exp(lo + (j + u) / STRATA * (hi - lo))),
                ratio=float(rng.uniform(41.0, 43.0)),
            )
        )
    return queries
