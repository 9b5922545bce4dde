"""Euler-Maruyama simulation of the controlled SDE against a frozen measure flow;
the same march adds up each path's control cost, for one policy or a stack of
them under common random numbers.

Randomness comes from counter-based Philox streams keyed (seed, step), with the
in-stream counter enumerating particles, so ensembles are bit-identical for a
given seed regardless of how the work is scheduled. Measure arguments are always
read from the frozen flow, never from the empirical ensemble.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Grid, MeasureFlow, ProblemSpec, _interpolate
from .measure import d1_grid, histogram_density

__all__ = ["ParticleEnsemble", "simulate", "compare_law", "sample_initial"]

_INIT_STREAM = 0xFFFFFFFF  # step key reserved for initial sampling


def _stream(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, step],
                                                             dtype=np.uint64)))


@dataclass(frozen=True)
class ParticleEnsemble:
    """positions[k, i] (1D) or [k, i, :] (2D) for time index k and particle i;
    cost[i] is path i's control cost; max_abs_position = sup |X| is a proxy for
    square-integrable paths (the expectation bound itself is not certified)."""

    positions: np.ndarray
    cost: np.ndarray
    n_particles: int
    seed: int
    boundary_leak: float
    max_abs_position: float

    def __post_init__(self):
        self.positions.flags.writeable = False
        self.cost.flags.writeable = False
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("ensemble contains non-finite positions")


def sample_initial(density: np.ndarray, grid: Grid, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw n points from a grid density: each node is drawn with its atom
    weight m_i * h^n by inverse CDF, then placed uniformly in its cell and
    clipped to the box."""
    m = np.asarray(density, dtype=float)
    if m.shape != grid.shape:
        raise ValueError(f"density shape {m.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(m)) or np.any(m < 0):
        raise ValueError("cannot sample from a density with negative or "
                         "non-finite entries")
    cdf = np.cumsum(m.ravel() * grid.cell_volume)
    if cdf[-1] <= 0:
        raise ValueError("cannot sample from a zero density")
    cdf /= cdf[-1]
    cells = np.searchsorted(cdf, rng.random(n), side="left")
    nodes = grid.coords().reshape(grid.n_nodes, grid.dim)
    x = nodes[cells] + (rng.random((n, grid.dim)) - 0.5) * np.array(grid.h)
    x = np.clip(x, grid.x_min, grid.x_max)
    return x.reshape(n) if grid.dim == 1 else x  # 1D points carry no coordinate axis


def _march(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow, controls,
           members: int, n: int, seed: int, observe=None):
    """One Euler-Maruyama march of a stack of policies, n paths each, under the
    frozen flow; each path's left-endpoint running cost (f0 + f1) * dt and
    terminal cost are summed as it goes.

    Every member starts from the same initial draw and sees the same Philox
    block (seed, k) at step k (common random numbers). The problem callbacks
    and the measure view are evaluated once per step on the members' points
    laid end to end, member-major: (members * n,) in 1D, (members * n, 2) in
    2D. Each member's numbers equal those of a march of that member alone.

    controls: None for the uncontrolled dynamics (f1 then does not enter), else
    k -> the members' per-node controls at time level k, stacked on a leading
    axis. observe(k, x), if given, sees the stacked points at every level.
    Returns (cost, boundary_leak, max_abs_position), with a leading member axis.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    dim, dt = problem.dim, grid.dt
    x0 = sample_initial(m_flow.densities[0], grid, n, _stream(seed, _INIT_STREAM))
    x = np.concatenate([x0] * members)
    # each point's offset to its member's field in the stacked controls
    base = np.repeat(np.arange(members) * grid.n_nodes, n) if members > 1 else None
    cost = np.zeros(members * n)
    clamped = np.zeros(members, dtype=np.int64)
    lo, hi = np.array(grid.x_min), np.array(grid.x_max)
    sqdt = np.sqrt(dt)
    max_abs = np.zeros(members)

    def reached(k, x):  # every time level: the running sup |X|, then observe
        nonlocal max_abs
        max_abs = np.maximum(max_abs, np.abs(x).reshape(members, -1).max(axis=1))
        if not np.all(np.isfinite(max_abs)):
            raise ValueError("ensemble contains non-finite positions")
        if observe is not None:
            observe(k, x)

    reached(0, x)
    for k in range(grid.nt):
        t = grid.time(k)
        view = m_flow.view(k)
        b = problem.drift_b0(t, x, view)
        f = problem.running_f0(t, x, view)
        if controls is not None:
            fields = controls(k)
            table = fields.reshape(members * grid.n_nodes, -1).T
            alpha = _interpolate(table, grid, x.reshape(-1, dim), base)
            alpha = alpha.T.reshape(x.shape[:1] + fields.shape[1 + dim:])
            b = b + problem.drift_b1(t, x, alpha)
            f = f + problem.running_f1(t, x, alpha)
        cost += np.broadcast_to(f, cost.shape) * dt
        sig = np.asarray(problem.diffusion_sigma(t, x, view), dtype=float)
        z = _stream(seed, k).standard_normal(x0.shape)
        z = np.concatenate([z] * members) if members > 1 else z
        # 1D sigma drops its matrix axes, as 1D points drop their coordinate axis
        noise = (sig * sqdt * z if dim == 1
                 else np.einsum("...ij,...j->...i", sig * sqdt, z))
        moved = x + np.broadcast_to(b, x.shape) * dt + noise
        x = np.clip(moved, lo, hi)
        clamped += np.count_nonzero((x != moved).reshape(members, -1), axis=1)
        reached(k + 1, x)
    cost += np.broadcast_to(problem.terminal_g(x, m_flow.view(grid.nt)), cost.shape)

    leak = clamped / (n * grid.nt * dim)
    if leak.max() > 1e-3:
        warnings.warn(f"boundary leak fraction {leak.max():.2e} exceeds 1e-3; "
                      "the truncation box is too small for this dynamics",
                      UserWarning, stacklevel=3)
    return cost.reshape(members, n), leak, max_abs


def simulate(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow,
             policy_or_none: Optional[np.ndarray],
             n: int, seed: int) -> ParticleEnsemble:
    """Euler-Maruyama march of n paths from m0 under the frozen flow, storing
    every path and summing each path's left-endpoint running cost
    (f0 + f1) * dt and terminal cost.

    policy_or_none: None for the uncontrolled dynamics (f1 then does not enter),
    else per-node feedback controls indexed by time level, interpolated at the
    particle positions.
    """
    positions = None

    def store(k, x):
        nonlocal positions
        if positions is None:
            positions = np.empty((grid.nt + 1,) + x.shape)
        positions[k] = x

    cost, leak, max_abs = _march(problem, grid, m_flow, _single(policy_or_none),
                                 1, n, seed, store)
    return ParticleEnsemble(positions=positions, cost=cost[0], n_particles=n,
                            seed=seed, boundary_leak=float(leak[0]),
                            max_abs_position=float(max_abs[0]))


def _single(policy: Optional[np.ndarray]):
    """The controls of a one-member march: policy[k] behind a unit member
    axis, or None for the uncontrolled dynamics."""
    if policy is None:
        return None
    policy = np.asarray(policy, dtype=float)
    return lambda k: policy[k][None]


def _law_d1(points: np.ndarray, density: np.ndarray, grid: Grid) -> float:
    """d1 between the histogram of the points and a grid density."""
    emp, _ = histogram_density(points, grid)
    return d1_grid(emp, density, grid)


def compare_law(ensemble: ParticleEnsemble, m_flow: MeasureFlow,
                grid: Grid) -> np.ndarray:
    """d1 between the empirical law and the flow at each time index (marginal-max
    metric in 2D)."""
    nt = m_flow.densities.shape[0]
    if ensemble.positions.shape[0] != nt:
        raise ValueError("ensemble and flow cover different time grids")
    return np.array([_law_d1(ensemble.positions[k], m_flow.densities[k], grid)
                     for k in range(nt)])
