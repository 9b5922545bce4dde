"""Independent analytic/semianalytic ground truths used by the test battery.

Every oracle validates itself numerically before returning (transcription errors
in ground truth are the most dangerous failure mode); a failed self-check raises
OracleSelfCheckError. None of these share numerical kernels with the solvers.
"""

from __future__ import annotations

import numpy as np

from .core import Grid, MeasureFlow, ValueField

__all__ = [
    "OracleSelfCheckError",
    "hopf_cole_value",
    "lq_riccati_value",
    "heat_flow_density",
]


AUX_REFINE = 4  # the Hopf-Cole quadrature lattice refines the solver grid this often


class OracleSelfCheckError(RuntimeError):
    """An oracle failed its own numerical validation; results are not trustworthy."""


def _heat_kernel(s: float, z: np.ndarray) -> np.ndarray:
    # kernel of w_t = w_xx (1D): variance 2s
    return np.exp(-z * z / (4.0 * s)) / np.sqrt(4.0 * np.pi * s)


def hopf_cole_value(G, grid: Grid) -> ValueField:
    """Exact solution of u_t + u_xx - |u_x|^2/2 = 0, u(T,.) = G via u = -2 ln w.

    w(t,x) = int K(T-t, x-y) exp(-G(y)/2) dy with K the heat kernel of w_t = w_xx,
    by trapezoid quadrature on an auxiliary grid AUX_REFINE times finer than the
    solver grid, extended past the box so the kernel tail is negligible. 1D only;
    G must be bounded on the extended line (cap growth for integrability).
    """
    # imported here: only this oracle needs scipy.signal, whose import is slow
    # enough to show in every CLI start-up
    from scipy.signal import fftconvolve
    if grid.dim != 1:
        raise ValueError("hopf_cole_value is 1D")
    T = grid.horizon
    x = grid.axis(0)
    h_aux = grid.h[0] / AUX_REFINE
    pad = 8.0 * np.sqrt(2.0 * T)
    n_pad = int(np.ceil(pad / h_aux))
    y = np.concatenate([grid.x_min[0] - h_aux * np.arange(n_pad, 0, -1),
                        grid.x_min[0] + h_aux * np.arange((grid.nx - 1) * AUX_REFINE + 1),
                        grid.x_max[0] + h_aux * np.arange(1, n_pad + 1)])
    Gy = np.asarray(G(y), dtype=float)
    if not np.all(np.isfinite(Gy)):
        raise OracleSelfCheckError("terminal data non-finite on the quadrature grid")
    g_min = Gy.min()
    q = np.exp(-(Gy - g_min) / 2.0)  # rescale before exponentiating

    def u_and_du(t, xq):
        s = T - t
        if s <= 0:
            gx = np.asarray(G(xq), dtype=float)
            eps = 1e-6 * max(grid.h[0], 1e-12)
            dgx = (np.asarray(G(xq + eps)) - np.asarray(G(xq - eps))) / (2 * eps)
            return gx, dgx
        z = xq[:, None] - y[None, :]
        k = _heat_kernel(s, z)
        w = (k * q).sum(axis=1) * h_aux
        wx = (k * (-z / (2.0 * s)) * q).sum(axis=1) * h_aux
        if np.any(w <= 0):
            raise OracleSelfCheckError("quadrature underflow in Hopf-Cole weight")
        return g_min - 2.0 * np.log(w), -2.0 * wx / w

    _hopf_cole_self_check(u_and_du, grid)

    # the solver nodes sit on the auxiliary lattice, so each time level is a
    # lattice convolution; FFT keeps the oracle cheap on fine grids
    values = np.empty((grid.nt + 1, grid.nx))
    du = np.empty_like(values)
    values[grid.nt], du[grid.nt] = u_and_du(T, x)
    m = np.arange(-n_pad, n_pad + 1) * h_aux
    sel = n_pad + AUX_REFINE * np.arange(grid.nx)
    for k in range(grid.nt):
        s = T - grid.time(k)
        kern = _heat_kernel(s, m)
        w = fftconvolve(q, kern, mode="same") * h_aux
        wx = fftconvolve(q, kern * (-m / (2.0 * s)), mode="same") * h_aux
        wb = w[sel]
        if np.any(wb <= 0):
            raise OracleSelfCheckError("quadrature underflow in Hopf-Cole weight")
        values[k] = g_min - 2.0 * np.log(wb)
        du[k] = -2.0 * wx[sel] / wb
    # the returned levels against the quadrature the self-check validated
    tol = 1e-9 * (1.0 + np.abs(values).max())
    for k in sorted({0, grid.nt // 2, grid.nt - 1}):
        uk, duk = u_and_du(grid.time(k), x)
        err = max(np.abs(values[k] - uk).max(), np.abs(du[k] - duk).max())
        if not err <= tol:  # NaN too
            raise OracleSelfCheckError(
                f"Hopf-Cole level {k} deviates from its quadrature by {err:.3e}")
    return ValueField(values, du, grid)


def _hopf_cole_self_check(u_and_du, grid: Grid, tol: float = 1e-6) -> None:
    # residual of the substitution identity u_t + u_xx - u_x^2/2 = 0 by 4th-order
    # finite differences at interior probe points
    T = grid.horizon
    span = grid.x_max[0] - grid.x_min[0]
    xs = grid.x_min[0] + span * np.linspace(0.2, 0.8, 7)
    hs = 0.02 * span / 12.0
    ht = 0.004 * T
    c4 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0        # first derivative
    d4 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0    # second derivative
    worst = 0.0
    for t in T * np.array([0.15, 0.45, 0.75]):
        u0, _ = u_and_du(t, xs)
        stack_x = np.array([u_and_du(t, xs + j * hs)[0] for j in (-2, -1, 0, 1, 2)])
        stack_t = np.array([u_and_du(t + j * ht, xs)[0] for j in (-2, -1, 0, 1, 2)])
        u_x = c4 @ stack_x / hs
        u_xx = d4 @ stack_x / hs ** 2
        u_t = c4 @ stack_t / ht
        worst = max(worst, float(np.max(np.abs(u_t + u_xx - 0.5 * u_x ** 2))))
    if worst > tol:
        raise OracleSelfCheckError(
            f"Hopf-Cole substitution residual {worst:.3e} exceeds {tol:.1e}")


def _riccati_coeffs(c: float, T: float, t: np.ndarray):
    # u(t,x) = a(t) x^2 + d(t) solves u_t + u_xx - u_x^2/2 = 0 with u(T,x) = c x^2:
    # a' = 2a^2, a(T) = c;  d' = -2a, d(T) = 0
    a = c / (1.0 + 2.0 * c * (T - t))
    d = np.log(1.0 + 2.0 * c * (T - t))
    return a, d


def _riccati_rk4(c: float, T: float, nt: int) -> np.ndarray:
    """(a, d) at t = k T / nt, k = 0..nt, by classical RK4 on da/ds = -2a^2,
    dd/ds = 2a in s = T - t from (c, 0), each step split into equal substeps
    of length at most 1e-3 / max(1, 2c); both slopes read a alone."""
    sub = int(np.ceil(T / nt * max(1.0, 2.0 * c) / 1e-3))
    h = T / (nt * sub)
    a, d = float(c), 0.0
    out = [(a, d)]
    for _ in range(nt):
        for _ in range(sub):  # the stages' values of a
            a2 = a - h * a * a
            a3 = a - h * a2 * a2
            a4 = a - 2.0 * h * a3 * a3
            d += h / 3.0 * (a + 2.0 * a2 + 2.0 * a3 + a4)
            a -= h / 3.0 * (a * a + 2.0 * a2 * a2 + 2.0 * a3 * a3 + a4 * a4)
        out.append((a, d))
    return np.array(out[::-1])


def lq_riccati_value(c: float, grid: Grid) -> ValueField:
    """Closed-form LQ value u = a(t) x^2 + d(t) for terminal data c x^2 (1D).

    The closed form is cross-checked at every time level against an
    independent RK4 integration of the coefficient system before use.
    """
    if grid.dim != 1:
        raise ValueError("lq_riccati_value is 1D")
    if c <= 0:
        raise ValueError("terminal curvature c must be positive")
    T = grid.horizon
    a, d = _riccati_coeffs(c, T, grid.times)

    err = np.max(np.abs(_riccati_rk4(c, T, grid.nt) - np.column_stack([a, d])))
    if not err <= 1e-10:  # NaN too
        raise OracleSelfCheckError(
            f"Riccati closed form deviates from ODE integration by {err:.3e}")

    x = grid.axis(0)
    values = a[:, None] * x[None, :] ** 2 + d[:, None]
    du = 2.0 * a[:, None] * x[None, :]
    return ValueField(values, du, grid)


def heat_flow_density(mean0, var0: float, sigma_const: float,
                      grid: Grid) -> MeasureFlow:
    """Analytic Gaussian flow N(mean0, var0 + sigma^2 t) per axis, renormalized.

    Ground truth for the Fokker-Planck equation with zero drift and constant
    scalar diffusion sigma_const (variance rate sigma^2 = 2a).
    """
    if var0 <= 0:
        raise ValueError("initial variance must be positive")
    mean0 = np.broadcast_to(np.asarray(mean0, dtype=float), (grid.dim,))
    out = np.empty((grid.nt + 1,) + grid.shape)
    for k in range(grid.nt + 1):
        var = var0 + sigma_const ** 2 * grid.time(k)
        if grid.dim == 1:
            z = grid.axis(0) - mean0[0]
            d = np.exp(-z * z / (2 * var)) / np.sqrt(2 * np.pi * var)
        else:
            z1 = grid.axis(0) - mean0[0]
            z2 = grid.axis(1) - mean0[1]
            d = (np.exp(-z1 * z1 / (2 * var))[:, None]
                 * np.exp(-z2 * z2 / (2 * var))[None, :]) / (2 * np.pi * var)
        mass = d.sum() * grid.cell_volume
        if abs(mass - 1.0) > 1e-6:
            raise OracleSelfCheckError(
                f"Gaussian mass {mass:.8f} on the box deviates from 1 at t={grid.time(k):.3f}; "
                "the truncation box is too small for this flow")
        out[k] = d / mass
    return MeasureFlow(out, grid)
