"""Conservative forward solver for the Fokker-Planck equation in flux form.

Per-face fluxes combine explicit advection with implicit diffusion; zero-flux
boundaries make the quadrature mass telescope to round-off. The advective flux
is exponentially fitted (Scharfetter-Gummel weights, second order at small mesh
Peclet, upwind in the limit): conservative and positivity-safe under the
advective CFL dt <= h / max|b|. Each step is renormalized to unit mass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (Grid, LineSystem, MeasureFlow, MeasureView, ProblemSpec,
                   StepCoefficients, _first_diff, discretize_initial_density)

__all__ = ["FpError", "solve_fp"]

NEGATIVITY_TOL = 1e-12  # a density below -NEGATIVITY_TOL fails the solve
MASS_DRIFT_TOL = 1e-6   # as does a larger pre-renormalization mass drift


class FpError(RuntimeError):
    pass


def _bernoulli_weight(z: np.ndarray, big: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), the exponential-fitting weight; B(0) = 1. big
    marks |z| >= 1e-8; elsewhere B(z) = 1 - z / 2."""
    zs = np.minimum(np.maximum(z, -700.0), 700.0)
    return np.divide(zs, np.expm1(zs), out=1.0 - 0.5 * z, where=big)


def _advective_face_flux(m: np.ndarray, v: np.ndarray, a_face: np.ndarray,
                         h: float) -> np.ndarray:
    """Explicit fitted advective flux at interior faces for densities m along
    the last axis.

    v is the effective face drift (drift minus the derivative of the diffusion
    coefficient). Returns flux of shape m.shape with the last axis shortened by
    one.
    """
    z = v * h / a_face
    big = np.abs(z) >= 1e-8
    bm = _bernoulli_weight(-z, big)
    bp = _bernoulli_weight(z, big)
    # exponential fitting split: total SG flux minus the implicit central part
    return (a_face / h) * ((bm - 1.0) * m[..., :-1] - (bp - 1.0) * m[..., 1:])


def _diffusion_band(a: np.ndarray, h: float, dt: float) -> np.ndarray:
    """The tridiagonal band of the implicit zero-flux diffusion on every grid
    line (line axis last): the diffusive flux through each face weighs the
    densities on both its sides by the face value of a."""
    face = 0.5 * (a[..., 1:] + a[..., :-1])
    r = dt / h ** 2
    band = np.zeros((3,) + a.shape)
    band[0, ..., 1:] = -r * face         # superdiagonal
    band[1] = 1.0                        # diagonal
    band[1, ..., :-1] += r * face
    band[1, ..., 1:] += r * face
    band[2, ..., :-1] = -r * face        # subdiagonal
    return band


def _axis_step(lines: LineSystem, m: np.ndarray, b: np.ndarray, a: np.ndarray,
               h: float, dt: float, axis: int,
               cross_rhs: Optional[np.ndarray] = None) -> np.ndarray:
    """One conservative sub-step along one axis, for every grid line at once."""
    m, b, a = (v.swapaxes(axis, -1) for v in (m, b, a))
    a_face = 0.5 * (a[..., 1:] + a[..., :-1])
    # the fitted flux transports against a d(m)/dx, so the drift absorbs a_x
    v_face = 0.5 * (b[..., 1:] + b[..., :-1]) - (a[..., 1:] - a[..., :-1]) / h
    flux = dt / h * _advective_face_flux(m, v_face, a_face, h)
    rhs = m.copy()
    rhs[..., :-1] -= flux
    rhs[..., 1:] += flux
    if cross_rhs is not None:
        rhs += dt * cross_rhs.swapaxes(axis, -1)
    return lines.solve(a, rhs).swapaxes(axis, -1)


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
    """
    densities = np.empty((grid.nt + 1,) + grid.shape)
    densities[0], _ = discretize_initial_density(problem, grid)
    coords = grid.coords()
    dt = grid.dt
    lines = [LineSystem(_diffusion_band, grid.h[d], dt) for d in range(grid.dim)]
    mass_drift = np.zeros(grid.nt + 1)
    min_density = np.zeros(grid.nt + 1)
    min_density[0] = densities[0].min()

    for k in range(grid.nt):
        m_k = densities[k]
        view = MeasureView(m_k, grid) if mu_flow is None else mu_flow.view(k)
        coef = StepCoefficients(problem, grid.time(k), coords, view)
        b = coef.drift(None if policy is None else policy[k])
        # the explicit mixed term enters the first axis sub-step only
        cross = None if coef.a12 is None else _cross_divergence(m_k, coef.a12, grid)
        m_next = m_k
        for d in range(grid.dim):
            m_next = _axis_step(lines[d], m_next, b[d], coef.diag_a[d],
                                grid.h[d], dt, d, cross)
            cross = None

        mass = m_next.sum() * grid.cell_volume
        drift = abs(mass - 1.0)
        lowest = float(m_next.min())
        mass_drift[k + 1] = drift
        min_density[k + 1] = lowest
        if not np.isfinite(m_next).all():
            bad = np.argwhere(~np.isfinite(m_next))[0].tolist()
            raise FpError(f"non-finite density at time index {k + 1}, node {tuple(bad)}")
        if lowest < -NEGATIVITY_TOL:
            cause = ("the advective step is unstable (check the CFL bound)"
                     if coef.a12 is None else
                     "the explicit mixed-term flux of the off-diagonal diffusion "
                     "a12 is not positivity-safe on this grid and time step")
            raise FpError(f"density fell to {lowest:.3e} at time index {k + 1}; "
                          + cause)
        if drift > MASS_DRIFT_TOL:
            raise FpError(f"pre-renormalization mass drift {drift:.3e} at "
                          f"time index {k + 1}")
        if lowest < 0:
            m_next = np.maximum(m_next, 0.0)
            mass = m_next.sum() * grid.cell_volume
        np.divide(m_next, mass, out=densities[k + 1])

    return MeasureFlow(densities, grid, mass_drift=mass_drift,
                       min_density=min_density)


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
