"""Backward semi-implicit solver for the quasilinear HJB equation under a frozen
measure flow.

Time stepping: diffusion implicit, drift and source explicit with the control
lagged through phi(t, x, Du); inner Picard sweeps restore consistency of the
lagged gradient within each step. The one advection stencil blends central and
sign-upwinded differences by the mesh Peclet number: second order where
diffusion resolves the drift, monotone where it does not. Each step computes the
differences of u_old, the floored diffusion and the mixed term once; each sweep
adds only the drift's blend weights and max |b|. The one wall closure slaves
each wall node to cubic extrapolation of the interior (u_xxx = 0), eliminated
from the line systems. In 2D the implicit diffusion is split by axis; each axis
sweep solves all grid lines as one stacked tridiagonal system, factored once
per distinct diffusion array within a solve, and checks every line's residual
from one BLAS gbmv product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (Grid, LineSystem, MeasureFlow, ProblemSpec, StepCoefficients,
                   ValueField, _mixed_diff, gradient_field)
from .hamiltonian import PhiEvaluator, minimize_H

__all__ = ["HjbSolverConfig", "HjbError", "CFLAdvisory", "solve_hjb"]

LINEAR_SOLVER_TOL = 1e-10  # relative residual a line solve must meet


class HjbError(RuntimeError):
    pass


class CFLAdvisory(UserWarning):
    """Explicit drift step cfl = max dt |b| / h exceeded 1 (diffusion stays implicit)."""

    def __init__(self, cfl: float):
        super().__init__(f"explicit drift step reached dt|b|/h = {cfl:.2f} > 1; "
                         "results may be inaccurate (diffusion remains implicit)")
        self.cfl = cfl


@dataclass(frozen=True)
class HjbSolverConfig:
    picard_inner_iters: int = 2

    def __post_init__(self):
        if self.picard_inner_iters < 1:
            raise ValueError("picard_inner_iters must be >= 1")


def _advection(u: np.ndarray, a: np.ndarray, h: float, axis: int):
    """<b, D u> along one axis as a function advect(b, out) of the drift:
    Peclet-blended central/upwind differences, with what b does not enter (the
    differences of u, a floored at 1e-300) computed once per step.

    Upwinding follows the sign of b as it enters u_t + <Du, b> + ... = 0 marched
    backward: b > 0 couples to the forward neighbor (monotone explicit update).
    The weight on the upwind difference grows from 0 at mesh Peclet number
    |b| h / a <= 2 to 1 as it tends to infinity. advect writes the interior
    nodes of out, whose walls stay zero (the implicit diffusion solve discards
    the wall rows and its closure sets the wall nodes), and returns max |b|.
    """
    u = u.swapaxes(axis, -1)
    diff = (u[..., 1:] - u[..., :-1]) / h  # node i's forward, node i+1's backward
    cen = (u[..., 2:] - u[..., :-2]) / (2 * h)
    a = np.maximum(a.swapaxes(axis, -1)[..., 1:-1], 1e-300)

    def advect(b: np.ndarray, out: np.ndarray) -> float:
        b = b.swapaxes(axis, -1)
        mag = np.abs(b)
        pe = np.maximum(mag[..., 1:-1] * h / a, 1e-300)
        w = np.maximum(1.0 - 2.0 / pe, 0.0)  # and w <= 1, as 2 / pe > 0
        b = b[..., 1:-1]
        np.multiply(b, (1.0 - w) * cen + w * np.where(b > 0, diff[..., 1:], diff[..., :-1]),
                    out=out.swapaxes(axis, -1)[..., 1:-1])
        return float(mag.max())
    return advect


@lru_cache
def _pairs(n: int) -> tuple:
    """For i = 0 .. 3, nodes i and n - 1 - i of a line of n nodes, in that
    order, as one bounded basic slice: one node where the two coincide."""
    if n < 5:
        raise HjbError(f"the cubic wall closure needs lines of at least 5 nodes, got {n}")
    return tuple(slice(i, n - i if 2 * i < n else n - 2 - i, n - 1 - 2 * i or 1)
                 for i in range(4))


def _diffusion_band(a: np.ndarray, h: float, dt: float) -> np.ndarray:
    """The tridiagonal band of I - dt a Dxx on every grid line (line axis last)
    with the cubic wall closure u0 = 3 (u1 - u2) + u3 (u_xxx = 0, exact for
    quadratic profiles) eliminated: row 1 becomes u1 - rho u2 = rhs1 - rho rhs2,
    rho = a1 / a2, stored as rho u0 + u1 - rho u2 = rhs1 with an identity wall
    row that puts rhs2 in u0; row n - 2 mirrors it. HjbError where a at node 2
    or n - 3 is not positive, as the elimination divides by it."""
    n = a.shape[-1]
    with np.errstate(all="ignore"):
        rho = a[..., [1, -2]] / a[..., [2, -3]]
    bad = np.argwhere(~((a[..., [2, -3]] > 0) & np.isfinite(rho)))
    if bad.size:
        node = (*bad[0, :-1].tolist(), (2, n - 3)[bad[0, -1]])
        raise HjbError(f"diffusion a = {a[node]:.3e} at node {node} (line axis last) "
                       "breaks assumption (B2), uniform ellipticity: the wall "
                       "elimination divides by it")
    r = a * dt / h ** 2
    band = np.zeros((3,) + r.shape)
    band[0, ..., 3:-1] = band[2, ..., 1:-3] = -r[..., 2:-2]  # rows 2 .. n - 3: super, sub
    band[1] = 1.0 + 2.0 * r                                  # diagonal
    band[1, ..., [0, 1, -2, -1]] = 1.0
    band[2, ..., 0], band[0, ..., 2] = rho[..., 0], -rho[..., 0]    # row 1
    band[0, ..., -1], band[2, ..., -3] = rho[..., 1], -rho[..., 1]  # row n - 2
    return band


def _implicit_diffusion_solve(lines: LineSystem, a: np.ndarray, rhs: np.ndarray,
                              tol: float, axis: int) -> np.ndarray:
    """Solve (I - dt a Dxx) u = rhs along one axis with the cubic wall closure,
    for every grid line at once: the eliminated system of _diffusion_band,
    then each wall node by extrapolation. HjbError when any line's residual
    in the eliminated system exceeds tol (1 + max |rhs|). a goes unswapped
    when its axis is already last, so a level's second sweep skips the compare."""
    b_rhs = rhs.swapaxes(axis, -1).copy()
    walls, p1, p2, p3 = _pairs(b_rhs.shape[-1])
    b_rhs[..., walls] = b_rhs[..., p2]
    out = lines.solve(a if axis == a.ndim - 1 else a.swapaxes(axis, -1), b_rhs)
    worst = np.abs(lines.residual(out, b_rhs)).reshape(b_rhs.shape).max(axis=-1)
    bad = worst > tol * (1.0 + np.abs(b_rhs).max(axis=-1))
    if bad.any():
        raise HjbError(f"linear solve residual {worst[bad].max():.3e} exceeds tolerance")
    out[..., walls] = 3.0 * (out[..., p1] - out[..., p2]) + out[..., p3]
    return out.swapaxes(axis, -1)


def solve_hjb(problem: ProblemSpec, grid: Grid, mu_flow: MeasureFlow,
              config: HjbSolverConfig = HjbSolverConfig()) -> ValueField:
    """March u backward from u(T) = g(., mu(T)) under the frozen flow mu.

    Per step: lag the control through phi(t, x, Du) starting from the gradient at
    the previous time level, assemble the Peclet-blended drift and the source
    explicitly, solve the diffusion implicitly one axis after the other with the
    cubic-extrapolation wall closure, recompute Du, and repeat
    picard_inner_iters times. Each axis's line system is factored again only
    when its diffusion array changes.
    """
    if mu_flow.densities.shape != (grid.nt + 1,) + grid.shape:
        raise ValueError("measure flow shape does not match the grid")
    evaluator = PhiEvaluator.for_problem(problem)
    coords = grid.coords()
    dt, h = grid.dt, grid.h
    lines = [LineSystem(_diffusion_band, h[d], dt) for d in range(grid.dim)]
    values = np.empty((grid.nt + 1,) + grid.shape)
    grads = np.empty(values.shape + (() if grid.dim == 1 else (2,)))

    gT = np.asarray(problem.terminal_g(coords, mu_flow.view(grid.nt)), dtype=float)
    gT = np.broadcast_to(gT, grid.shape).copy()
    if not np.all(np.isfinite(gT)):
        raise HjbError("terminal data g(., mu(T)) is not finite")
    values[grid.nt] = gT
    grads[grid.nt] = gradient_field(gT, grid)

    adv = [np.zeros(grid.shape) for _ in range(grid.dim)]  # walls stay zero
    b_max = [0.0] * grid.dim  # max |b| per axis over every sweep
    for k in range(grid.nt - 1, -1, -1):
        t = grid.time(k)
        coef = StepCoefficients(problem, t, coords, mu_flow.view(k))
        u_old = values[k + 1]
        advect = [_advection(u_old, coef.diag_a[d], h[d], d) for d in range(grid.dim)]
        cross = None if coef.a12 is None else 2.0 * coef.a12 * _mixed_diff(u_old, h)
        p_lag = grads[k + 1]
        for _ in range(config.picard_inner_iters):
            alpha = minimize_H(problem, evaluator, t, coords, p_lag)
            for d, bd in enumerate(coef.drift(alpha)):
                b_max[d] = max(b_max[d], advect[d](bd, adv[d]))
            src = (adv[0] if grid.dim == 1 else adv[0] + adv[1]) + coef.cost(alpha)
            if cross is not None:
                src += cross
            u_new = u_old + dt * src
            for d in range(grid.dim):
                u_new = _implicit_diffusion_solve(lines[d], coef.diag_a[d], u_new,
                                                  LINEAR_SOLVER_TOL, axis=d)
            if np.isnan(u_new).any():
                bad = np.argwhere(np.isnan(u_new))[0].tolist()
                raise HjbError(f"NaN in HJB solution at time index {k}, node {tuple(bad)}")
            p_lag = gradient_field(u_new, grid)
        values[k] = u_new
        grads[k] = p_lag

    cfl_worst = max(b_max[d] * dt / h[d] for d in range(grid.dim))  # rounding is monotone
    if cfl_worst > 1.0:
        warnings.warn(CFLAdvisory(cfl_worst), stacklevel=2)
    return ValueField(values, grads, grid)
