"""Backward semi-implicit solver for the quasilinear HJB equation under a frozen
measure flow.

Time stepping: one sweep per level, diffusion implicit, drift and source
explicit with the control lagged one level, alpha_k = phi(t_k, x, Du^{k+1}).
The one advection stencil blends central and sign-upwinded differences by the
mesh Peclet number: second order where diffusion resolves the drift, monotone
where it does not. The one wall closure slaves each wall node to cubic
extrapolation of the interior (u_xxx = 0), eliminated from the line systems.
In 2D the implicit diffusion is split by axis; each axis sweep solves all grid
lines as one stacked tridiagonal system, factored once per distinct diffusion
array within a solve, and checks every line's residual from one BLAS gbmv
product.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .core import (Grid, LineSystem, MeasureFlow, ProblemSpec, StepCoefficients,
                   ValueField, _mixed_diff, gradient_field)
from .hamiltonian import PhiEvaluator, minimize_H

__all__ = ["HjbError", "CFLAdvisory", "solve_hjb"]

LINEAR_SOLVER_TOL = 1e-10  # relative residual a line solve must meet


class HjbError(RuntimeError):
    pass


class CFLAdvisory(UserWarning):
    """Explicit drift step cfl = max dt |b| / h exceeded 1 (diffusion stays implicit)."""

    def __init__(self, cfl: float):
        super().__init__(f"explicit drift step reached dt|b|/h = {cfl:.2f} > 1; "
                         "results may be inaccurate (diffusion remains implicit)")
        self.cfl = cfl


def _advection(u: np.ndarray, a: np.ndarray, b: np.ndarray, h: float, axis: int,
               out: np.ndarray) -> float:
    """<b, D u> along one axis by Peclet-blended central/upwind differences,
    written into the interior nodes of out; returns max |b|. The walls of out
    stay as they are: the implicit diffusion solve discards the wall rows and
    its closure sets the wall nodes.

    Upwinding follows the sign of b as it enters u_t + <Du, b> + ... = 0 marched
    backward: b > 0 couples to the forward neighbor (monotone explicit update).
    The weight on the upwind difference grows from 0 at mesh Peclet number
    |b| h / a <= 2 (a floored at 1e-300) to 1 as it tends to infinity; where
    no interior node's number exceeds 2, out gets b times the central
    difference without the weights: the blend's bits but for the sign of a
    zero.
    """
    u, b, out = u.swapaxes(axis, -1), b.swapaxes(axis, -1), out.swapaxes(axis, -1)[..., 1:-1]
    cen = (u[..., 2:] - u[..., :-2]) / (2 * h)
    mag = np.abs(b)
    pe = np.maximum(mag[..., 1:-1] * h / np.maximum(a.swapaxes(axis, -1)[..., 1:-1], 1e-300),
                    1e-300)
    b = b[..., 1:-1]
    if pe.max() <= 2.0:  # every weight is exactly 0 (a NaN pe fails the test)
        np.multiply(b, cen, out=out)
    else:
        diff = (u[..., 1:] - u[..., :-1]) / h  # node i's forward, node i+1's backward
        w = np.maximum(1.0 - 2.0 / pe, 0.0)  # and w <= 1, as 2 / pe > 0
        np.multiply(b, (1.0 - w) * cen + w * np.where(b > 0, diff[..., 1:], diff[..., :-1]),
                    out=out)
    return float(mag.max())


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
    then each wall node by extrapolation. a is the diffusion with the line
    axis last; passing the same array while it does not change lets `lines`
    skip the compare. HjbError when any line's residual in the eliminated
    system exceeds tol (1 + max |rhs|)."""
    b_rhs = rhs.swapaxes(axis, -1).copy()
    walls, p1, p2, p3 = _pairs(b_rhs.shape[-1])
    b_rhs[..., walls] = b_rhs[..., p2]
    out = lines.solve(a, b_rhs)
    worst = np.abs(lines.residual(out, b_rhs)).reshape(b_rhs.shape).max(axis=-1)
    bad = worst > tol * (1.0 + np.abs(b_rhs).max(axis=-1))
    if bad.any():
        raise HjbError(f"linear solve residual {worst[bad].max():.3e} exceeds tolerance")
    out[..., walls] = 3.0 * (out[..., p1] - out[..., p2]) + out[..., p3]
    return out.swapaxes(axis, -1)


def solve_hjb(problem: ProblemSpec, grid: Grid, mu_flow: MeasureFlow) -> ValueField:
    """March u backward from u(T) = g(., mu(T)) under the frozen flow mu.

    Per level k, one sweep: the control alpha_k = phi(t_k, x, Du^{k+1}) from
    the gradient of the level before in the march, the Peclet-blended drift
    and the source explicitly, then the diffusion implicitly one axis after
    the other with the cubic-extrapolation wall closure, and Du^k. A level
    whose sigma returns the last level's bits reuses its diffusion arrays
    (`StepCoefficients`), so each axis's line system is compared and factored
    again only when the diffusion changes.
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
    b_max = [0.0] * grid.dim  # max |b| per axis over every level
    coef = None
    for k in range(grid.nt - 1, -1, -1):
        t = grid.time(k)
        last, coef = coef, StepCoefficients(problem, t, coords, mu_flow.view(k), coef)
        if last is None or coef.diag_a is not last.diag_a:  # line-last views, made once
            a_lines = [a.swapaxes(d, -1) for d, a in enumerate(coef.diag_a)]
        u_old = values[k + 1]
        alpha = minimize_H(problem, evaluator, t, coords, grads[k + 1])
        for d, bd in enumerate(coef.drift(alpha)):
            b_max[d] = max(b_max[d], _advection(u_old, coef.diag_a[d], bd, h[d], d, adv[d]))
        src = (adv[0] if grid.dim == 1 else adv[0] + adv[1]) + coef.cost(alpha)
        if coef.a12 is not None:
            src += 2.0 * coef.a12 * _mixed_diff(u_old, h)
        u_new = u_old + dt * src
        for d in range(grid.dim):
            u_new = _implicit_diffusion_solve(lines[d], a_lines[d], u_new,
                                              LINEAR_SOLVER_TOL, axis=d)
        if np.isnan(u_new).any():
            bad = np.argwhere(np.isnan(u_new))[0].tolist()
            raise HjbError(f"NaN in HJB solution at time index {k}, node {tuple(bad)}")
        values[k] = u_new
        grads[k] = gradient_field(u_new, grid)

    cfl_worst = max(b_max[d] * dt / h[d] for d in range(grid.dim))  # rounding is monotone
    if cfl_worst > 1.0:
        warnings.warn(CFLAdvisory(cfl_worst), stacklevel=2)
    return ValueField(values, grads, grid)
