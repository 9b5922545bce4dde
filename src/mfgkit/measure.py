"""Discrete probability measures: Wasserstein-1 distances, flow regularity
diagnostics, and histogram estimation.

Grid densities are treated as atoms of mass m_i * h^n at the nodes, which makes
the 1D CDF formula and the transport LP agree to solver precision on the same
data. One CDF formula serves both dimensions: d1 is the max over axes a of
h_a * sum |F_a - F'_a|, where F_a is the cumulative mass of the axis-a
marginal. In 2D that is the larger marginal distance, a lower bound on d1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, MeasureFlow, _level_runs, _second_moments

__all__ = [
    "FlowRegularityReport",
    "d1_atoms",
    "d1_lp",
    "d1_grid",
    "flow_distance",
    "second_moment",
    "second_moment_atoms",
    "flow_regularity",
    "histogram_density",
]

_MASS_TOL = 1e-6
_LP_MAX_SUPPORT = 400


def _check_density(m: np.ndarray, grid: Grid, levels: int = 0):
    """Check one grid density (levels=0) or a time stack of them (levels=1):
    the grid shape behind the leading axes, no negative entry, unit quadrature
    mass within _MASS_TOL for each density. Returns (m as floats, the masses)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != grid.dim + levels or m.shape[levels:] != grid.shape:
        raise ValueError(f"density shape {m.shape} does not match grid {grid.shape}")
    if np.any(m < 0):
        raise ValueError(f"negative density entry {m.min():.3e}")
    mass = m.sum(axis=tuple(range(levels, m.ndim))) * grid.cell_volume
    worst = np.max(np.abs(mass - 1.0))
    if worst > _MASS_TOL:
        raise ValueError(f"density mass deviates from 1 by {worst:.3e} "
                         f"beyond {_MASS_TOL:.1e}")
    return m, mass


def _marginal_cdfs(m: np.ndarray, grid: Grid) -> list:
    """Cumulative marginal masses of one grid density or a stack of them, one
    array per axis a: the running sum of the axis-a marginal times h_a, with
    the last node (the total mass) dropped. The marginal is the density itself
    in 1D and the other axis summed out in 2D. Linear in m, so the CDFs of a
    difference are the difference of the CDFs."""
    h = grid.h
    out = []
    for a in range(grid.dim):
        p = m
        for b in range(grid.dim):
            if b != a:
                p = p.sum(axis=b - grid.dim) * h[b]
        out.append(np.cumsum(p * h[a], axis=-1)[..., :-1])
    return out


def _d1(cdf_diffs: list, grid: Grid) -> np.ndarray:
    """The grid d1 of each pair whose marginal CDF differences are given:
    max over axes of h_a * sum |dF_a|. Exact in 1D; in 2D the larger marginal
    distance, a lower bound on d1."""
    return np.max([np.sum(np.abs(f), axis=-1) * h
                   for f, h in zip(cdf_diffs, grid.h)], axis=0)


def d1_atoms(x1: np.ndarray, w1: np.ndarray, x2: np.ndarray, w2: np.ndarray) -> float:
    """Exact 1D Kantorovich-Rubinstein distance between atomic measures:
    the integral of |F1 - F2| between consecutive support points."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    w1 = np.asarray(w1, dtype=float) / np.sum(w1)
    w2 = np.asarray(w2, dtype=float) / np.sum(w2)
    xs = np.concatenate([x1, x2])
    ws = np.concatenate([w1, -w2])
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    diff = np.cumsum(ws[order])[:-1]
    return float(np.sum(np.abs(diff) * np.diff(xs)))


def d1_lp(x1, w1, x2, w2) -> float:
    """Ground-truth transport LP: min sum gamma_ij |x_i - y_j| over couplings.

    Oracle path for small supports (<= 400 atoms each); x may be (k,) in 1D or
    (k, 2) in 2D.
    """
    # imported here: scipy.optimize and scipy.sparse are slow to import and
    # nothing else needs them
    from scipy import sparse
    from scipy.optimize import linprog
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if np.any(w1 < 0) or np.any(w2 < 0):
        raise ValueError("atom masses must be nonnegative")
    s1, s2 = w1.sum(), w2.sum()
    if s1 <= 0 or s2 <= 0:
        raise ValueError("infeasible marginals: each side needs positive mass")
    w1, w2 = w1 / s1, w2 / s2  # compare as probability measures
    n1, n2 = len(w1), len(w2)
    if n1 > _LP_MAX_SUPPORT or n2 > _LP_MAX_SUPPORT:
        raise ValueError(f"transport LP limited to {_LP_MAX_SUPPORT} support points")
    if x1.ndim == 1:
        cost = np.abs(x1[:, None] - x2[None, :])
    else:
        cost = np.linalg.norm(x1[:, None, :] - x2[None, :, :], axis=-1)
    # marginal constraints; drop one redundant row for numerical rank
    rows_i = np.repeat(np.arange(n1), n2)
    rows_j = n1 + np.tile(np.arange(n2), n1)
    cols = np.arange(n1 * n2)
    A = sparse.csr_matrix(
        (np.ones(2 * n1 * n2),
         (np.concatenate([rows_i, rows_j]), np.concatenate([cols, cols]))),
        shape=(n1 + n2, n1 * n2))
    bvec = np.concatenate([w1, w2])
    res = linprog(cost.ravel(), A_eq=A[:-1], b_eq=bvec[:-1],
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def d1_grid(m1: np.ndarray, m2: np.ndarray, grid: Grid) -> float:
    """The production flow metric between two unit-mass grid densities, each
    renormalized to exact unit mass: the CDF formula, exact in 1D; in 2D the
    max of the two marginal distances (a lower bound on d1, used as the
    fixed-point monitor)."""
    (m1, mass1), (m2, mass2) = (_check_density(m, grid) for m in (m1, m2))
    return float(_d1(_marginal_cdfs(m1 / mass1 - m2 / mass2, grid), grid))


def flow_distance(flow_a: MeasureFlow, flow_b: MeasureFlow, grid: Grid) -> float:
    """rho(mu, mu') = sup over time levels of d1 (marginal-max metric in 2D)."""
    (da, _), (db, _) = (_check_density(f.densities, grid, levels=1)
                        for f in (flow_a, flow_b))
    if da.shape != db.shape:
        raise ValueError("flows have mismatched shapes")
    return float(np.max(_d1(_marginal_cdfs(da - db, grid), grid)))


def second_moment_atoms(x: np.ndarray, w: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    sq = x ** 2 if x.ndim == 1 else (x ** 2).sum(axis=-1)
    return float(np.sum(sq * w) / np.sum(w))


def second_moment(m: np.ndarray, grid: Grid) -> float:
    """Quadrature of |x|^2 against the density, renormalized to unit mass."""
    m, mass = _check_density(m, grid)
    return float(_second_moments(m / mass, grid))


@dataclass(frozen=True)
class FlowRegularityReport:
    """Sampled membership diagnostics for the Hoelder-in-time / bounded-moment
    set of measure flows; implied_C1 is the smallest constant the flow exhibits."""

    holder_half_seminorm: float
    max_second_moment: float

    @property
    def implied_C1(self) -> float:
        return max(self.holder_half_seminorm, self.max_second_moment)

    def to_dict(self) -> dict:
        return {"holder_half_seminorm": self.holder_half_seminorm,
                "max_second_moment": self.max_second_moment,
                "implied_C1": self.implied_C1}


def flow_regularity(flow: MeasureFlow, grid: Grid) -> FlowRegularityReport:
    """sup_{s != t} d1(m(s), m(t)) / |t - s|^(1/2) and sup_t of the second moment.

    Time pairs closer than 2 dt are skipped so discretization noise does not
    dominate the quotient. By the triangle inequality d1(m(k), m(j)) is at
    most C[j] - C[k], C the prefix sums of the consecutive distances, so a
    level whose quotients that bound keeps below the running sup is skipped;
    the sup is the one every pair gives.
    """
    dens, _ = _check_density(flow.densities, grid, levels=1)
    nt = dens.shape[0] - 1
    cdfs = _marginal_cdfs(dens, grid)
    C = np.concatenate([[0.0], np.cumsum(_d1([f[1:] - f[:-1] for f in cdfs], grid))])
    # rounding allowances: relative for each d1 sum, absolute for the prefix sums
    slack = 1e-9 * C[-1]
    worst = 0.0
    for k in range(nt - 1):  # level k against every level j >= k + 2
        gaps = np.arange(2, nt + 1 - k) * grid.dt
        bound = np.max((C[k + 2:] - C[k] + slack) / np.sqrt(gaps))
        if bound * (1 + 1e-9) < worst:
            continue
        dists = _d1([f[k + 2:] - f[k] for f in cdfs], grid)
        worst = max(worst, float(np.max(dists / np.sqrt(gaps))))
    return FlowRegularityReport(
        holder_half_seminorm=worst,
        max_second_moment=float(np.max(_second_moments(dens, grid))))


def _cell_counts(points: np.ndarray, grid: Grid) -> np.ndarray:
    """Points per node cell, (n_nodes,): points (count, dim), each counted at
    its nearest node, those outside the box at the nearest wall node. Counts
    add up over any split of the points."""
    flat = None
    for d in range(grid.dim):  # each step in place on one temporary per axis
        s = np.subtract(points[:, d], grid.x_min[d])
        s /= grid.h[d]
        i = np.rint(s, out=s).astype(np.intp)
        np.clip(i, 0, grid.nx - 1, out=i)
        if flat is not None:  # row-major: flat * nx + i
            flat *= grid.nx
            i += flat
        flat = i
    return np.bincount(flat, minlength=grid.n_nodes)


def _histogram_d1(counts: np.ndarray, n: int, densities: np.ndarray,
                  grid: Grid) -> np.ndarray:
    """The d1 between the histogram of n points and the grid density at each
    level: counts[k] holds the level's points per node cell (`_cell_counts`),
    densities[k] its density. Bit for bit d1_grid(histogram_density(points)[0],
    densities[k]) level by level, computed on runs of levels
    (`core._level_runs`) as `flow_distance` computes its levels."""
    out = np.empty(len(counts))
    lead = (slice(None),) + (None,) * grid.dim  # a level's mass against its nodes
    for run in _level_runs(0, len(counts), grid):
        hist = counts[run].reshape((-1,) + grid.shape) / (n * grid.cell_volume)
        (a, mass_a), (b, mass_b) = (_check_density(d, grid, levels=1)
                                    for d in (hist, densities[run]))
        out[run] = _d1(_marginal_cdfs(a / mass_a[lead] - b / mass_b[lead], grid), grid)
    return out


def histogram_density(points: np.ndarray, grid: Grid):
    """Cell-counting histogram normalized to unit quadrature mass.

    Points outside the box are clamped into it; returns (density, leak_fraction)
    where leak_fraction is the share of clamped points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("histogram needs at least one point")
    pts = pts.reshape(-1, grid.dim)
    leak = np.any((pts < np.array(grid.x_min)) | (pts > np.array(grid.x_max)), axis=1)
    dens = _cell_counts(pts, grid).reshape(grid.shape) / (len(pts) * grid.cell_volume)
    return dens, float(leak.mean())
