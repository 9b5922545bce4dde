"""Euler-Maruyama simulation of the controlled SDE against a frozen measure flow;
the same march adds up each path's control cost.

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

from .core import Grid, MeasureFlow, ProblemSpec, interpolate_field
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


def simulate(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow,
             policy_or_none: Optional[np.ndarray],
             n: int, seed: int) -> ParticleEnsemble:
    """Euler-Maruyama march of n paths from m0 under the frozen flow, summing
    each path's left-endpoint running cost (f0 + f1) * dt and terminal cost.

    policy_or_none: None for the uncontrolled dynamics (f1 then does not enter),
    else per-node feedback controls indexed by time level, interpolated at the
    particle positions.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    dim, dt = problem.dim, grid.dt
    init_rng = _stream(seed, _INIT_STREAM)
    x = sample_initial(m_flow.densities[0], grid, n, init_rng)
    positions = np.empty((grid.nt + 1,) + x.shape)
    positions[0] = x
    max_abs = float(np.max(np.abs(x)))
    cost = np.zeros(n)
    clamped = 0
    lo, hi = np.array(grid.x_min), np.array(grid.x_max)
    sqdt = np.sqrt(dt)

    for k in range(grid.nt):
        t = grid.time(k)
        view = m_flow.view(k)
        b = problem.drift_b0(t, x, view)
        f = problem.running_f0(t, x, view)
        if policy_or_none is not None:
            alpha = interpolate_field(policy_or_none[k], grid, x)
            b = b + problem.drift_b1(t, x, alpha)
            f = f + problem.running_f1(t, x, alpha)
        cost += np.broadcast_to(f, cost.shape) * dt
        sig = np.asarray(problem.diffusion_sigma(t, x, view), dtype=float)
        z = _stream(seed, k).standard_normal(x.shape)
        # 1D sigma drops its matrix axes, as 1D points drop their coordinate axis
        noise = (sig * sqdt * z if dim == 1
                 else np.einsum("...ij,...j->...i", sig * sqdt, z))
        x = x + np.broadcast_to(b, x.shape) * dt + noise
        hit = (x < lo) | (x > hi)
        clamped += int(np.count_nonzero(hit))
        x = np.clip(x, lo, hi)
        positions[k + 1] = x
        max_abs = max(max_abs, float(np.max(np.abs(x))))
    cost += np.broadcast_to(problem.terminal_g(x, m_flow.view(grid.nt)), cost.shape)

    leak = clamped / (n * grid.nt * dim)
    if leak > 1e-3:
        warnings.warn(f"boundary leak fraction {leak:.2e} exceeds 1e-3; "
                      "the truncation box is too small for this dynamics",
                      UserWarning, stacklevel=2)
    return ParticleEnsemble(positions=positions, cost=cost, n_particles=n, seed=seed,
                            boundary_leak=leak, max_abs_position=max_abs)


def compare_law(ensemble: ParticleEnsemble, m_flow: MeasureFlow,
                grid: Grid) -> np.ndarray:
    """d1 between the empirical law and the flow at each time index (marginal-max
    metric in 2D)."""
    nt = m_flow.densities.shape[0]
    if ensemble.positions.shape[0] != nt:
        raise ValueError("ensemble and flow cover different time grids")
    out = np.empty(nt)
    for k in range(nt):
        emp, _ = histogram_density(ensemble.positions[k], grid)
        out[k] = d1_grid(emp, m_flow.densities[k], grid)
    return out
