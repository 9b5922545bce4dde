"""Reference solutions the benchmark checks mfgkit against.

Nothing here imports mfgkit: each reference is computed from the problem's
formulas alone, so a defect in the package cannot hide in its own oracle.
`vouch` is the one place the two meet: it compares these references with
`mfgkit.oracle` on a coarse grid so the two implementations vouch for each
other.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import solve_banded

LQ_CURVATURE = 0.5      # terminal cost c x^2 of the lq-riccati instance
INITIAL_VARIANCE = 0.25  # m0 = N(mean, 1/4) in every 1D catalog instance


def capped_quadratic(cap: float):
    """cap * tanh(x^2 / (2 cap)): the smooth capped quadratic terminal cost."""
    return lambda x: cap * np.tanh(x * x / (2.0 * cap))


def riccati_value(times, x, horizon: float, c: float = LQ_CURVATURE) -> np.ndarray:
    """u(t, x) = x^2 c / (1 + 2c(T - t)) + ln(1 + 2c(T - t)), shape (nt+1, nx)."""
    s = horizon - np.asarray(times, dtype=float)[:, None]
    return x[None, :] ** 2 * c / (1.0 + 2.0 * c * s) + np.log1p(2.0 * c * s)


def riccati_initial_expectation(horizon: float, var0: float = INITIAL_VARIANCE,
                                c: float = LQ_CURVATURE) -> float:
    """E[u(0, X0)] for X0 ~ N(0, var0)."""
    return var0 * c / (1.0 + 2.0 * c * horizon) + float(np.log1p(2.0 * c * horizon))


def hopf_cole_value(G, times, x, horizon: float, nodes: int = 120) -> np.ndarray:
    """u = -2 ln E[exp(-G(x + sqrt(2(T-t)) Z) / 2)] by Gauss-Hermite quadrature.

    The exact value of u_t + u_xx - u_x^2/2 = 0, u(T) = G; shape (nt+1, nx).
    """
    y, w = hermgauss(nodes)  # weight exp(-y^2); Z = sqrt(2) y
    out = np.empty((len(times), len(x)))
    for k, t in enumerate(times):
        spread = np.sqrt(2.0 * max(horizon - t, 0.0)) * np.sqrt(2.0)
        vals = np.exp(-0.5 * G(x[:, None] + spread * y[None, :]))
        out[k] = -2.0 * np.log(vals @ w / np.sqrt(np.pi))
    return out


def hopf_cole_2d(G1, G2, times, x1, x2, horizon: float) -> np.ndarray:
    """Separable 2D value: the sum of the two 1D Hopf-Cole values."""
    return (hopf_cole_value(G1, times, x1, horizon)[:, :, None]
            + hopf_cole_value(G2, times, x2, horizon)[:, None, :])


def linearised_value(G, drift, source, times, x, horizon: float,
                     refine: int = 2, pad: float = 8.0) -> np.ndarray:
    """Value of u_t + u_xx + B u_x - u_x^2/2 + F = 0, u(T) = G, on the nodes x.

    With unit diffusion and quadratic control cost, w = exp(-u/2) solves the
    linear equation w_t + w_xx + B w_x - F w / 2 = 0. It is marched backward by
    Crank-Nicolson on a grid `refine` times finer in x and `refine`^2 in t,
    extended `pad` units past each wall with reflecting ends, so neither the
    scheme nor the walls of the box being checked enter the reference.
    drift(t, y) and source(t, y) give B and F at time t.
    """
    h = (x[1] - x[0]) / refine
    n_pad = int(np.ceil(pad / h))
    y = x[0] + h * np.arange(-n_pad, (len(x) - 1) * refine + n_pad + 1)
    fine_steps = (len(times) - 1) * refine ** 2
    dt = horizon / fine_steps
    n = y.size

    def operator(t):
        # L w = w_yy + B w_y - F w / 2 as (sub, diag, super) with reflecting ends
        b, f = drift(t, y), source(t, y)
        lo = 1.0 / h ** 2 - b / (2.0 * h)
        up = 1.0 / h ** 2 + b / (2.0 * h)
        dg = -2.0 / h ** 2 - 0.5 * f
        up[0] += lo[0]
        lo[-1] += up[-1]
        return lo, dg, up

    def apply(op, v):
        lo, dg, up = op
        out = dg * v
        out[1:-1] += lo[1:-1] * v[:-2] + up[1:-1] * v[2:]
        out[0] += up[0] * v[1]
        out[-1] += lo[-1] * v[-2]
        return out

    w = np.exp(-0.5 * G(y))
    sel = n_pad + refine * np.arange(len(x))
    out = np.empty((len(times), len(x)))
    out[-1] = -2.0 * np.log(w[sel])
    op_next = operator(horizon)
    ab = np.empty((3, n))
    for j in range(fine_steps - 1, -1, -1):
        t = j * dt
        op = operator(t)
        rhs = w + 0.5 * dt * apply(op_next, w)
        lo, dg, up = op
        ab[0, 1:] = -0.5 * dt * up[:-1]
        ab[1] = 1.0 - 0.5 * dt * dg
        ab[2, :-1] = -0.5 * dt * lo[1:]
        w = solve_banded((1, 1), ab, rhs, check_finite=False)
        op_next = op
        if j % refine ** 2 == 0:
            out[j // refine ** 2] = -2.0 * np.log(w[sel])
    return out


def interior_max_err(u: np.ndarray, ref: np.ndarray, margin: int) -> float:
    """Largest |u - ref| over nodes at least `margin` away from every wall."""
    inner = (slice(None),) + (slice(margin, -margin),) * (u.ndim - 1)
    return float(np.max(np.abs(u - ref)[inner]))


def density_defects(densities: np.ndarray, cell_volume: float):
    """(worst |mass - 1| over time levels, smallest density entry)."""
    mass = densities.reshape(densities.shape[0], -1).sum(axis=1) * cell_volume
    return float(np.max(np.abs(mass - 1.0))), float(np.min(densities))


def vouch() -> dict:
    """Compare these references with mfgkit.oracle on coarse grids.

    Returns the worst discrepancy of each pair; the linearised solver is
    checked against Hopf-Cole (its B = F = 0 case).
    """
    from mfgkit.core import build_grid
    from mfgkit.oracle import hopf_cole_value as oracle_hc
    from mfgkit.oracle import lq_riccati_value

    g = build_grid(1, -6.0, 6.0, 61, 1.0, 50)
    x, t = g.axis(0), g.times
    riccati = float(np.max(np.abs(riccati_value(t, x, 1.0)
                                  - lq_riccati_value(LQ_CURVATURE, g).values)))
    G = capped_quadratic(25.0)
    hc = hopf_cole_value(G, t, x, 1.0)
    hopf_cole = float(np.max(np.abs(hc - oracle_hc(G, g).values)))

    g2 = build_grid(1, -6.0, 6.0, 31, 0.5, 20)
    G1, G2 = capped_quadratic(8.0), capped_quadratic(5.0)
    ref2 = oracle_hc(G1, g2).values[:, :, None] + oracle_hc(G2, g2).values[:, None, :]
    sep = float(np.max(np.abs(hopf_cole_2d(G1, G2, g2.times, g2.axis(0), g2.axis(0),
                                           0.5) - ref2)))
    zero = lambda s, y: np.zeros_like(y)
    lin = interior_max_err(linearised_value(G, zero, zero, t, x, 1.0, refine=4), hc, 10)
    return {"riccati": riccati, "hopf_cole": hopf_cole, "hopf_cole_2d": sep,
            "linearised": lin}


# agreement required of `vouch`: closed forms to round-off, quadratures to
# their own accuracy, and the Crank-Nicolson march to well below the 5e-3
# the acceptance battery allows the program on the same quantity
VOUCH_TOL = {"riccati": 1e-12, "hopf_cole": 1e-8, "hopf_cole_2d": 1e-8,
             "linearised": 5e-4}
