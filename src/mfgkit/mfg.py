"""The fixed-point map Phi (HJB solve, then FP solve under the induced feedback)
and the Picard iteration that produces the MFG solution.

Each outer step records the map residual r_k = d1(mu_k, Phi(mu_k)) and stops
once r_k <= tol, so the returned m is within tol of the flow u was solved
against. While every recorded residual has strictly decreased the iteration
takes the one-secant Anderson step (Anderson mixing of depth 1, Walker & Ni,
SIAM J. Numer. Anal. 49(4), 2011): with the last map input and output
(x_{k-1}, g_{k-1}), f = g - x and df = f_k - f_{k-1}, it steps to
g_k - gamma (g_k - g_{k-1}), gamma = <df, f_k> / <df, df>, clipped at zero
and renormalized to unit mass on every level past 0 (level 0, m0, is the
map's own). The sums are plain elementwise products, so no BLAS thread pool
wakes on a flow-sized array. The step is the plain full step
mu_{k+1} = Phi(mu_k) where it cannot or need not mix: the first step, a step
whose residual meets tol, and every step of a map that read no view of its
flow. From the first step whose residual did not decrease the iteration
takes the theta-damped step to the end of the run (never switching back, so
an overshooting step cannot alternate with a damped one). The rule reads
only the residual history and the last map pair, both in `IterationState`,
so a resumed run repeats it.
For instances whose map ignores the measure the iteration terminates in
exactly two steps with a zero second residual. It applies such a map once:
when no callback read a view of the flow during one application (callbacks
are pure and see the measure only through their view argument, `core`), every
later application gives the same (u, m), so the later steps reuse it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .core import (Grid, MeasureFlow, ProblemSpec, StepCoefficients, ValueField,
                   _first_diff, _level_runs, _mixed_diff,
                   discretize_initial_density)
from .fp import solve_fp
from .hamiltonian import PhiEvaluator, minimize_H
from .hjb import solve_hjb
from .measure import flow_distance

__all__ = [
    "FixedPointConfig",
    "FixedPointReport",
    "IterationState",
    "feedback_policy",
    "apply_phi",
    "solve_mfg",
    "pde_residual",
]


@dataclass(frozen=True)
class FixedPointConfig:
    theta: float = 0.5          # damping used once the map residual stops contracting
    tol: float = 1e-4           # stopping threshold on sup_t d1(mu_k(t), Phi(mu_k)(t))
    max_iters: int = 50

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("damping theta must lie in (0, 1]")
        if not 0 < self.tol < np.inf:  # NaN too
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class FixedPointReport:
    residual_history: list = field(default_factory=list)
    iterations_used: int = 0
    converged: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class IterationState:
    """Resumable outer-iteration state (serialized by the CLI checkpoint).

    last_pair is the mixing history: the last map input and output
    (mu_k, Phi(mu_k)) that the next step mixes with, or () where the next
    step cannot mix (after a damped step, or for a map that reads no flow).
    """

    iteration: int
    mu: np.ndarray
    residual_history: list
    last_pair: tuple = ()


def feedback_policy(problem: ProblemSpec, grid: Grid, u: ValueField) -> np.ndarray:
    """The closed-loop control field: the Hamiltonian minimizer evaluated at the
    stored gradient, per time level and node."""
    evaluator = PhiEvaluator.for_problem(problem)
    coords = grid.coords()
    shape = (grid.nt + 1,) + grid.shape + ((2,) if grid.dim == 2 else ())
    out = np.empty(shape)
    for k in range(grid.nt + 1):
        out[k] = minimize_H(problem, evaluator, grid.time(k), coords, u.du[k])
    return out


def apply_phi(problem: ProblemSpec, grid: Grid, mu: MeasureFlow):
    """One application of the map: solve the backward equation under mu, extract
    the feedback policy, push m0 forward under it. Returns (u, m)."""
    u = solve_hjb(problem, grid, mu)
    policy = feedback_policy(problem, grid, u)
    m = solve_fp(problem, grid, mu, policy)
    return u, m


def solve_mfg(problem: ProblemSpec, grid: Grid,
              config: FixedPointConfig = FixedPointConfig(),
              initial_state: Optional[IterationState] = None,
              on_iteration=None):
    """Picard iteration on the measure flow: one-secant Anderson steps while
    the map residual contracts, theta-damped steps from its first
    non-decrease on (module docstring).

    Non-convergence within max_iters returns the last map output with
    converged=False (existence is known, convergence of the iteration is not).
    The iteration starts from the constant-in-time flow of m0, or from
    initial_state with any start flow. on_iteration(state) is called after
    every outer step for checkpointing; initial_state resumes from such a
    state bit-for-bit.
    """
    report = FixedPointReport()

    if initial_state is not None:
        mu = MeasureFlow(initial_state.mu.copy(), grid)
        report.residual_history = list(initial_state.residual_history)
        start = initial_state.iteration
        last = initial_state.last_pair
    else:
        m0, _ = discretize_initial_density(problem, grid)
        mu = MeasureFlow.constant_in_time(m0, grid)
        start = 0
        last = ()

    u = m = None
    constant = False  # no callback read the flow: every later map is (u, m)
    converged = False
    it = start
    for it in range(start + 1, config.max_iters + 1):
        if not constant:
            u, m = apply_phi(problem, grid, mu)
            constant = not mu.read
        r = flow_distance(mu, m, grid)
        history = report.residual_history
        history.append(r)
        if all(b < a for a, b in zip(history, history[1:])):
            pair = () if constant else (mu.densities, m.densities)
            mu = (MeasureFlow(_secant_step(pair, last, grid), grid)
                  if pair and last and r > config.tol else m)
            last = pair
        else:
            mu = MeasureFlow((1.0 - config.theta) * mu.densities
                             + config.theta * m.densities, grid)
            last = ()
        if on_iteration is not None:
            on_iteration(IterationState(iteration=it, mu=mu.densities.copy(),
                                        residual_history=list(history),
                                        last_pair=last))
        if r <= config.tol:
            converged = True
            break

    report.iterations_used = it
    report.converged = converged
    if u is None:  # resumed with no step left: the map of the stored flow
        u, m = apply_phi(problem, grid, mu)
    return u, m, report


def _secant_step(pair: tuple, last: tuple, grid: Grid) -> np.ndarray:
    """The one-secant Anderson step from the map pairs (x_k, g_k) and
    (x_{k-1}, g_{k-1}): g_k - gamma (g_k - g_{k-1}) on levels 1..nt, clipped
    at zero and renormalized per level; level 0 is g_k's. The plain step g_k
    where the two residual vectors coincide (gamma undefined)."""
    (x, g), (x_last, g_last) = pair, last
    out = g.copy()
    x, g, x_last, g_last = x[1:], g[1:], x_last[1:], g_last[1:]
    f = g - x
    df = f - (g_last - x_last)
    den = np.sum(df * df)
    if not den > 0:
        return out
    gamma = np.sum(df * f) / den
    step = g - g_last
    step *= gamma
    mixed = out[1:]
    mixed -= step
    np.maximum(mixed, 0.0, out=mixed)
    mass = mixed.sum(axis=tuple(range(1, mixed.ndim))) * grid.cell_volume
    mixed /= mass.reshape(mass.shape + (1,) * (mixed.ndim - 1))
    return out


def pde_residual(problem: ProblemSpec, grid: Grid, u: ValueField, m: MeasureFlow,
                 margin: int = 10):
    """Centered finite-difference residuals of the coupled system evaluated on
    the computed pair, maxed over `grid.interior(margin)` and levels 1..nt-1.

    The coefficients are evaluated level by level (`StepCoefficients`); the
    differences are taken on runs of levels (`core._level_runs`), with the
    level axis first, bit for bit the per-level arithmetic."""
    policy = feedback_policy(problem, grid, u)
    coords = grid.coords()
    dt, h, dim = grid.dt, grid.h, grid.dim
    uv, mv = u.values, m.densities
    hjb_worst = 0.0
    fp_worst = 0.0
    inner = (slice(None),) + (grid.interior(margin),) * dim
    node_axes = tuple(range(1, dim + 1))
    axes = range(dim)
    for run in _level_runs(1, grid.nt, grid):
        levels = range(run.start, run.stop)
        coefs = [StepCoefficients(problem, grid.time(k), coords, m.view(k))
                 for k in levels]
        # per-axis b and diag a, (dim, levels) + the grid's shape, and the cost
        bs = np.stack([c.drift(policy[k]) for c, k in zip(coefs, levels)], axis=1)
        diag_a = np.stack([c.diag_a for c in coefs], axis=1)
        cost = np.stack([c.cost(policy[k]) for c, k in zip(coefs, levels)])
        dus = [u.du[run]] if dim == 1 else [u.du[run][..., d] for d in axes]
        uk, mk = uv[run], mv[run]
        u_t = (uv[run.start + 1:run.stop + 1] - uv[run.start - 1:run.stop - 1]) / (2 * dt)
        m_t = (mv[run.start + 1:run.stop + 1] - mv[run.start - 1:run.stop - 1]) / (2 * dt)
        adv = sum(bs[d] * dus[d] for d in axes)
        diff = sum(diag_a[d] * _second_diff(uk, h[d], axis=d + 1) for d in axes)
        q = sum(_second_diff(diag_a[d] * mk, h[d], axis=d + 1) for d in axes)
        div_bm = sum(_first_diff(bs[d] * mk, h[d], axis=d + 1) for d in axes)
        mixed = [i for i, c in enumerate(coefs) if c.a12 is not None]
        if mixed:  # the correlated levels
            a12 = np.stack([coefs[i].a12 for i in mixed])
            diff[mixed] += 2 * a12 * _mixed_diff(uk[mixed], h)
            q[mixed] += 2 * _mixed_diff(a12 * mk[mixed], h)
        r_hjb = u_t + adv + diff + cost
        r_fp = m_t - q + div_bm
        # each level's max folded in level order: max passes over a NaN level
        hjb_worst = max(hjb_worst, *np.max(np.abs(r_hjb[inner]), axis=node_axes).tolist())
        fp_worst = max(fp_worst, *np.max(np.abs(r_fp[inner]), axis=node_axes).tolist())
    return hjb_worst, fp_worst


def _second_diff(v: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    v = v.swapaxes(axis, -1)
    out = np.zeros_like(v)  # the walls stay zero: the residuals read interior nodes
    out[..., 1:-1] = (v[..., 2:] - 2 * v[..., 1:-1] + v[..., :-2]) / h ** 2
    return out.swapaxes(axis, -1)
