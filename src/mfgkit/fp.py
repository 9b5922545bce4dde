"""Conservative forward solver for the Fokker-Planck equation in flux form.

Per-face fluxes combine explicit advection with implicit diffusion; zero-flux
boundaries make the quadrature mass telescope to round-off. The advective flux
is either sign-upwinded or exponentially fitted (Scharfetter-Gummel weights,
second order at small mesh Peclet, upwind in the limit); both are conservative
and positivity-safe under the advective CFL dt <= h / max|b|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Grid, MeasureFlow, MeasureView, ProblemSpec, StepCoefficients,
                   _solve_lines, discretize_initial_density)

__all__ = ["FpSolverConfig", "FpError", "solve_fp"]

NEGATIVITY_TOL = 1e-12  # a density below -NEGATIVITY_TOL fails the solve
MASS_DRIFT_TOL = 1e-6   # as does a larger pre-renormalization mass drift


class FpError(RuntimeError):
    pass


@dataclass(frozen=True)
class FpSolverConfig:
    flux_scheme: str = "exponential"  # "exponential" | "upwind"
    renormalize_each_step: bool = True
    inner_sweeps: int = 1             # coefficient re-evaluation for self-coupled runs

    def __post_init__(self):
        if self.flux_scheme not in ("exponential", "upwind"):
            raise ValueError(f"unknown flux scheme {self.flux_scheme!r}")
        if self.inner_sweeps < 1:
            raise ValueError("inner_sweeps must be >= 1")


def _bernoulli_weight(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (e^z - 1), the exponential-fitting weight; B(0) = 1."""
    out = np.empty_like(z)
    small = np.abs(z) < 1e-8
    out[small] = 1.0 - 0.5 * z[small]
    zs = np.clip(z[~small], -700.0, 700.0)
    out[~small] = zs / np.expm1(zs)
    return out


def _advective_face_flux(m: np.ndarray, v: np.ndarray, a_face: np.ndarray,
                         h: float, scheme: str) -> np.ndarray:
    """Explicit advective flux at interior faces for densities m along the last
    axis.

    v is the effective face drift (drift minus the derivative of the diffusion
    coefficient when the scheme transforms the flux). Returns flux of shape
    m.shape with the last axis shortened by one.
    """
    if scheme == "upwind":
        return np.where(v > 0, v * m[..., :-1], v * m[..., 1:])
    z = v * h / a_face
    bm = _bernoulli_weight(-z)
    bp = _bernoulli_weight(z)
    # exponential fitting split: total SG flux minus the implicit central part
    return (a_face / h) * ((bm - 1.0) * m[..., :-1] - (bp - 1.0) * m[..., 1:])


def _axis_step(m: np.ndarray, b: np.ndarray, a: np.ndarray, h: float, dt: float,
               scheme: str, axis: int,
               cross_rhs: Optional[np.ndarray] = None) -> np.ndarray:
    """One conservative sub-step along one axis, for every grid line at once."""
    m, b, a = (v.swapaxes(axis, -1) for v in (m, b, a))
    v_face = 0.5 * (b[..., 1:] + b[..., :-1])
    a_face = 0.5 * (a[..., 1:] + a[..., :-1])
    if scheme == "exponential":
        # the fitted flux transports against a d(m)/dx, so the drift absorbs a_x
        v_face = v_face - (a[..., 1:] - a[..., :-1]) / h
    f_adv = _advective_face_flux(m, v_face, a_face, h, scheme)
    rhs = m.copy()
    rhs[..., :-1] -= dt / h * f_adv
    rhs[..., 1:] += dt / h * f_adv
    if cross_rhs is not None:
        rhs += dt * cross_rhs.swapaxes(axis, -1)
    # the implicit diffusive flux through each face weighs the densities on
    # its two sides: a_face on both for the fitted flux, the nodal a for the
    # flux form of the second derivative of (a m)
    left, right = (a_face, a_face) if scheme == "exponential" else (a[..., :-1], a[..., 1:])
    r = dt / h ** 2
    band = np.zeros((3,) + m.shape)
    band[0, ..., 1:] = -r * right        # superdiagonal
    band[1] = 1.0                        # diagonal
    band[1, ..., :-1] += r * left
    band[1, ..., 1:] += r * right
    band[2, ..., :-1] = -r * left        # subdiagonal
    return _solve_lines(band, rhs).swapaxes(axis, -1)


def solve_fp(problem: ProblemSpec, grid: Grid,
             mu_flow: Optional[MeasureFlow],
             policy: Optional[np.ndarray],
             config: FpSolverConfig = FpSolverConfig()) -> MeasureFlow:
    """March m forward from the discretized initial density.

    mu_flow freezes the measure argument of the coefficients (one sweep per
    step); passing None runs the self-coupled form with coefficients evaluated
    at the current step's density (explicit lag, config.inner_sweeps
    fixed-point sweeps per step).
    policy: None (uncontrolled) or an array of per-node controls indexed by
    time level.
    """
    densities = np.empty((grid.nt + 1,) + grid.shape)
    densities[0], _ = discretize_initial_density(problem, grid)
    coords = grid.coords()
    dt = grid.dt
    mass_drift = np.zeros(grid.nt + 1)
    min_density = np.zeros(grid.nt + 1)
    min_density[0] = densities[0].min()

    # a frozen flow fixes the coefficients, so every further sweep would
    # recompute the same step
    sweeps = config.inner_sweeps if mu_flow is None else 1
    for k in range(grid.nt):
        t = grid.time(k)
        m_k = densities[k]
        m_next = m_k
        for sweep in range(sweeps):
            if mu_flow is not None:
                view = mu_flow.view(k)
            elif sweep == 0:
                view = MeasureView(m_k, grid)
            else:
                view = MeasureView(m_next / (m_next.sum() * grid.cell_volume), grid)
            coef = StepCoefficients(problem, t, coords, view)
            b = coef.drift(None if policy is None else policy[k])
            # the explicit mixed term enters the first axis sub-step only
            cross = None if coef.a12 is None else _cross_divergence(m_k, coef.a12, grid)
            m_next = m_k
            for d in range(grid.dim):
                m_next = _axis_step(m_next, b[d], coef.diag_a[d], grid.h[d], dt,
                                    config.flux_scheme, d, cross)
                cross = None

        mass = m_next.sum() * grid.cell_volume
        drift = abs(mass - 1.0)
        lowest = float(m_next.min())
        mass_drift[k + 1] = drift
        min_density[k + 1] = lowest
        if not np.all(np.isfinite(m_next)):
            bad = np.argwhere(~np.isfinite(m_next))[0]
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
        if config.renormalize_each_step:
            m_next = m_next / (m_next.sum() * grid.cell_volume)
        densities[k + 1] = m_next

    return MeasureFlow(densities, grid, mass_drift=mass_drift,
                       min_density=min_density)


def _cross_divergence(m: np.ndarray, a12: np.ndarray, grid: Grid) -> np.ndarray:
    """Conservative explicit contribution of the mixed term 2 d2(a12 m)/dx dy,
    assembled as flux differences so it telescopes in both directions."""
    h1, h2 = grid.h
    q = a12 * m
    dq_dy = np.gradient(q, h2, axis=1)
    fx = 0.5 * (dq_dy[1:, :] + dq_dy[:-1, :])   # x-face value of d(a12 m)/dy
    out = np.zeros_like(m)
    out[:-1, :] += fx / h1
    out[1:, :] -= fx / h1
    dq_dx = np.gradient(q, h1, axis=0)
    fy = 0.5 * (dq_dx[:, 1:] + dq_dx[:, :-1])
    out[:, :-1] += fy / h2
    out[:, 1:] -= fy / h2
    return out
