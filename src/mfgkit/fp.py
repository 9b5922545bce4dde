"""Conservative forward solver for the Fokker-Planck equation.

Each step solves (I - dt L)^T m^{k+1} = m^k one axis after the other, L the
level's generator of the controlled dynamics with exponentially fitted
(Scharfetter-Gummel) rates: second order at small mesh Peclet number, upwind
in the limit. Its transpose is an M-matrix whose columns sum to one, so mass
is conserved to round-off and the density stays nonnegative at any time step;
in 2D only the explicit mixed term can break positivity. Each step is
renormalized to unit mass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError

from .core import (Grid, LineSystem, MeasureFlow, MeasureView, ProblemSpec,
                   StepCoefficients, _first_diff, _level_runs,
                   discretize_initial_density)

__all__ = ["FpError", "solve_fp"]

NEGATIVITY_TOL = 1e-12  # a density below -NEGATIVITY_TOL fails the solve
MASS_DRIFT_TOL = 1e-6   # as does a larger pre-renormalization mass drift


class FpError(RuntimeError):
    pass


def _bernoulli_weight(z: np.ndarray, big: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), the exponential-fitting weight; B(0) = 1. big
    marks |z| >= 1e-8; elsewhere B(z) = 1 - z / 2. Above z = 700, where e^z
    nears overflow, B is below 1e-300 and reads B(700); below zero it needs
    no cap, so B(-z) - B(z) = z holds at every mesh Peclet number."""
    zs = np.minimum(z, 700.0)
    return np.divide(zs, np.expm1(zs), out=1.0 - 0.5 * z, where=big)


def _transposed_band(a: np.ndarray, b: np.ndarray, h: float, dt: float) -> np.ndarray:
    """The band of (I - dt L)^T on every grid line (line axis last), for the
    node-fitted generator (L u)_i = (a_i / h^2) [B(-z_i) (u_{i+1} - u_i) +
    B(z_i) (u_{i-1} - u_i)], z_i = b_i h / a_i, with reflecting walls. Column
    i holds node i's rates alone, (-down_i, 1 + up_i + down_i, -up_i): it sums
    to one and its off-diagonals are <= 0, so the solve conserves mass and
    keeps a nonnegative density nonnegative at any dt."""
    r = dt * a / h ** 2
    z = b * h / a
    big = np.abs(z) >= 1e-8
    up, down = r * _bernoulli_weight(-z, big), r * _bernoulli_weight(z, big)
    up[..., -1] = down[..., 0] = 0.0  # no rate through a wall
    return np.stack((-down, 1.0 + up + down, -up))


def _axis_step(lines: LineSystem, m: np.ndarray, b: np.ndarray, a: np.ndarray,
               h: float, dt: float, axis: int,
               cross_rhs: Optional[np.ndarray] = None, level: int = 0) -> np.ndarray:
    """One implicit sub-step along one axis, for every grid line at once. b and
    a hold one level's coefficients or a run's, stacked on a leading axis, of
    which level `level` steps; they go unswapped when the axis is already
    last, so the run's later levels skip the compare in `LineSystem.solve`."""
    m = m.swapaxes(axis, -1)
    if axis != m.ndim - 1:
        b, a = (v.swapaxes(axis - m.ndim, -1) for v in (b, a))
    rhs = m if cross_rhs is None else m + dt * cross_rhs.swapaxes(axis, -1)
    lines.level = level
    return lines.solve((a, b), rhs).swapaxes(axis, -1)


def solve_fp(problem: ProblemSpec, grid: Grid,
             mu_flow: Optional[MeasureFlow],
             policy: Optional[np.ndarray]) -> MeasureFlow:
    """March m forward from the discretized initial density, one sweep per
    step, renormalizing each level to unit mass.

    mu_flow freezes the measure argument of the coefficients; passing None runs
    the self-coupled form with coefficients evaluated at the current step's
    density (explicit lag).
    policy: None (uncontrolled) or an array of per-node controls indexed by
    time level.

    Under a frozen flow the march takes runs of levels (`core._level_runs`):
    it evaluates a run's coefficients, factors each axis's generators of the
    whole run in one call, then steps the run's levels in order. The
    self-coupled form reads each level's density, so its runs hold one level.
    """
    densities = np.empty((grid.nt + 1,) + grid.shape)
    densities[0], _ = discretize_initial_density(problem, grid)
    coords = grid.coords()
    dt = grid.dt
    lines = [LineSystem(_transposed_band, grid.h[d], dt) for d in range(grid.dim)]
    mass_drift = np.zeros(grid.nt + 1)
    min_density = np.zeros(grid.nt + 1)
    min_density[0] = densities[0].min()
    # pending runs, next last; a run whose factoring fails is marched again
    # one level at a time, where a NaN band of one level cannot cross a line
    # end into the next level's pivots, so it fails as that level alone would
    pending = [slice(k, k + 1) for k in range(grid.nt)] if mu_flow is None else \
        _level_runs(0, grid.nt, grid)
    pending.reverse()
    while pending:
        run = pending.pop()
        levels = range(run.start, run.stop)
        coefs = [StepCoefficients(problem, grid.time(k), coords,
                                  MeasureView(densities[k], grid) if mu_flow is None
                                  else mu_flow.view(k)) for k in levels]
        drifts = [c.drift(None if policy is None else policy[k])
                  for k, c in zip(levels, coefs)]
        # per axis, the diffusion and the drift of the run's levels, stacked
        stacked = [(np.stack([c.diag_a[d] for c in coefs]), np.stack([b[d] for b in drifts]))
                   for d in range(grid.dim)]
        try:
            for j, (k, coef) in enumerate(zip(levels, coefs)):
                # the explicit mixed term enters the first axis sub-step only
                m_next = densities[k]
                cross = None if coef.a12 is None else _cross_divergence(m_next, coef.a12, grid)
                for d, (a, b) in enumerate(stacked):
                    m_next = _axis_step(lines[d], m_next, b, a, grid.h[d], dt, d, cross, j)
                    cross = None
                mass_drift[k + 1], min_density[k + 1] = _renormalize(
                    m_next, grid.cell_volume, k + 1, densities[k + 1])
        except LinAlgError:
            if len(levels) == 1:
                raise
            pending.extend(slice(k, k + 1) for k in reversed(levels))

    return MeasureFlow(densities, grid, mass_drift=mass_drift,
                       min_density=min_density)


def _renormalize(m: np.ndarray, cell_volume: float, k: int, out: np.ndarray) -> tuple:
    """Check the solved level k, clip its round-off negatives and write it
    into out at unit mass; FpError on a non-finite or negative density or a
    mass drift. Returns the pre-renormalization mass drift and minimum."""
    mass = m.sum() * cell_volume
    drift = abs(mass - 1.0)
    lowest = float(m.min())
    if not np.isfinite(m).all():
        bad = np.argwhere(~np.isfinite(m))[0].tolist()
        raise FpError(f"non-finite density at time index {k}, node {tuple(bad)}")
    if lowest < -NEGATIVITY_TOL:
        raise FpError(f"density fell to {lowest:.3e} at time index {k}; the "
                      "explicit mixed-term flux of the off-diagonal diffusion "
                      "a12 is not positivity-safe on this grid and time step")
    if drift > MASS_DRIFT_TOL:
        raise FpError(f"pre-renormalization mass drift {drift:.3e} at time index {k}")
    if lowest < 0:
        m = np.maximum(m, 0.0)
        mass = m.sum() * cell_volume
    np.divide(m, mass, out=out)
    return drift, lowest


def _cross_divergence(m: np.ndarray, a12: np.ndarray, grid: Grid) -> np.ndarray:
    """Conservative explicit contribution of the mixed term 2 d2(a12 m)/dx dy,
    assembled as flux differences so it telescopes in both directions."""
    h1, h2 = grid.h
    q = a12 * m
    dq_dy = _first_diff(q, h2, axis=1)
    fx = 0.5 * (dq_dy[1:, :] + dq_dy[:-1, :])   # x-face value of d(a12 m)/dy
    out = np.zeros_like(m)
    out[:-1, :] += fx / h1
    out[1:, :] -= fx / h1
    dq_dx = _first_diff(q, h1, axis=0)
    fy = 0.5 * (dq_dx[:, 1:] + dq_dx[:, :-1])
    out[:, :-1] += fy / h2
    out[:, 1:] -= fy / h2
    return out
