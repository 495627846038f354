"""Test oracles that the package itself never calls.

``misfit`` is the objective the reverse sweep accumulates, and
``adjoint_source_series`` the transpose of ``driver.simulate``, which
``dot_test`` checks ``simulate`` against.  ``starts_within_groups`` counts
the starts of a Revolve level block group by block group, the reference
for ``schedule._starts_within``'s closed form.
"""

from dataclasses import replace
from math import comb

import numpy as np

from adjckpt import driver


def misfit(d_sim: np.ndarray, d_obs: np.ndarray) -> float:
    """Half the squared l2 distance between simulated and observed data."""
    diff = np.asarray(d_sim) - np.asarray(d_obs)
    return 0.5 * float(np.vdot(diff, diff).real)


def adjoint_source_series(params: driver.WaveParams, residuals: np.ndarray) -> np.ndarray:
    """Transpose of ``simulate``: data-space residuals back to source amplitudes."""
    residuals = np.asarray(residuals, dtype=float)
    kernel = driver._WaveKernel(params)
    lam, lam_older, lam_prev = (kernel.new(zeros=True) for _ in range(3))
    out = np.zeros(params.nt)
    for i in reversed(range(params.nt)):
        kernel.adjoint(lam, lam_older, residuals[i], i, lam_prev)
        out[i] = kernel.coeff[params.source] * lam_prev[params.source]
        lam, lam_older, lam_prev = lam_prev, lam, lam_older
    return out


def dot_test(params: driver.WaveParams, trials: int = 20, seed: int = 0) -> float:
    """Max relative mismatch of <A w, r> vs <w, A^T r> over random draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = rng.normal(size=params.nt)
        r = rng.normal(size=(params.nt, len(params.receivers)))
        d = driver.simulate(replace(params, wavelet=w))
        g = adjoint_source_series(params, r)
        lhs = float(np.vdot(d, r).real)
        rhs = float(np.vdot(w, g).real)
        denom = float(np.linalg.norm(d) * np.linalg.norm(r)) or 1.0
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def starts_within_groups(m: int, q: int, t: int) -> int:
    """How many of the first t entries of level q >= 1 of row m >= 2 are starts,
    walking the level's groups of blocks one at a time (schedule.py, "Levels")."""
    if q > 1:
        t -= comb(m + q - 3, q - 2)
    if t <= 0:
        return 0
    starts, blocks = 0, 1
    for j, g in enumerate(range(m - 1, 2, -1)):
        if j:
            blocks = blocks * (q - 1 + j) // j  # C(q-1+j, j) from C(q-2+j, j-1)
        if t <= blocks * g:
            return starts - (-t // g)
        starts += blocks
        t -= blocks * g
    return starts - (-t // 2)
