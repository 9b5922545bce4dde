"""Hamiltonian evaluation, the minimizing control, and sampled assumption checks.

The Hamiltonian is H(t,x,m,a,p) = <p, b0+b1> + f0 + f1; the minimizing control
phi(t,x,p) depends only on the control block <p, b1> + f1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Grid, MeasureView, ProblemSpec, _stream, discretize_initial_density

__all__ = [
    "PhiEvaluator",
    "evaluate_H",
    "minimize_H",
    "AssumptionCheck",
    "AssumptionReport",
    "check_assumptions",
]


def _dot(p, v, dim: int):
    if dim == 1:
        return p * v
    return np.einsum("...i,...i->...", p, v)


def evaluate_H(problem: ProblemSpec, t: float, x, view: MeasureView, alpha, p):
    """H = <p, b(t,x,m,a)> + f(t,x,m,a), assembled through the b0+b1 / f0+f1 split."""
    b = problem.drift_b0(t, x, view) + problem.drift_b1(t, x, alpha)
    f = problem.running_f0(t, x, view) + problem.running_f1(t, x, alpha)
    out = _dot(p, b, problem.dim) + f
    if not np.all(np.isfinite(out)):
        raise ValueError("Hamiltonian evaluated to a non-finite value; "
                         "check the problem functions")
    return out


@dataclass(frozen=True)
class PhiEvaluator:
    """How to compute the minimizing control: closed form or exhaustive grid search.

    Grid-search ties are broken toward the lexicographically smallest control so
    the argmin is deterministic even when the discretized objective ties.
    """

    mode: str  # "closed_form" | "grid_search"
    control_points: Optional[np.ndarray] = None  # (P,) in 1D, (P, 2) in 2D

    @staticmethod
    def for_problem(problem: ProblemSpec) -> "PhiEvaluator":
        if problem.closed_form_phi is not None:
            return PhiEvaluator(mode="closed_form")
        if not problem.control_space.bounded:
            raise ValueError("grid-search control needs a bounded control_space")
        axes = problem.control_space.axes()
        if problem.dim == 1:
            pts = axes[0]
        else:
            pts = np.array(list(itertools.product(*axes)))  # lexicographic order
        return PhiEvaluator(mode="grid_search", control_points=pts)


def minimize_H(problem: ProblemSpec, evaluator: PhiEvaluator, t: float, x, p):
    """The control minimizing <p, b1(t,x,a)> + f1(t,x,a) over the control space.

    Vectorized over x/p; returns an array shaped like p.
    """
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("minimize_H needs finite p")
    if evaluator.mode == "closed_form":
        if problem.closed_form_phi is None:
            raise ValueError("closed-form phi requested but absent from the problem")
        return problem.control_space.clip(
            np.asarray(problem.closed_form_phi(t, x, p), dtype=float))

    pts = evaluator.control_points
    if pts is None or len(pts) == 0:
        raise ValueError("empty control grid")
    base = p if problem.dim == 1 else p[..., 0]
    best_obj = np.full(np.shape(base), np.inf)
    best = np.zeros(p.shape)
    for a in pts:
        alpha = np.broadcast_to(a, p.shape) if problem.dim == 2 else a
        obj = (_dot(p, problem.drift_b1(t, x, alpha), problem.dim)
               + problem.running_f1(t, x, alpha))
        obj = np.where(np.isfinite(obj), obj, np.inf)
        better = obj < best_obj  # strict: first (lexicographically smallest) wins ties
        best_obj = np.where(better, obj, best_obj)
        if problem.dim == 1:
            best = np.where(better, a, best)
        else:
            best = np.where(better[..., None], alpha, best)
    if np.any(~np.isfinite(best_obj)):
        raise ValueError("all control evaluations non-finite at some point")
    return best


@dataclass
class AssumptionCheck:
    name: str
    checked: bool
    passed: bool
    margin: float = np.nan
    detail: str = ""

    def __post_init__(self):  # json cannot write the numpy bool a margin test gives
        self.passed = bool(self.passed)

    def to_dict(self) -> dict:
        return {"name": self.name, "checked": self.checked, "passed": self.passed,
                "margin": None if np.isnan(self.margin) else float(self.margin),
                "detail": self.detail}


@dataclass
class AssumptionReport:
    """Per-assumption sampled margins; 'passed' means no violation found over the
    drawn samples, not a proof."""

    checks: dict = field(default_factory=dict)
    n_samples: int = 0
    seed: int = 0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values() if c.checked)

    def to_dict(self) -> dict:
        return {"n_samples": self.n_samples, "seed": self.seed,
                "all_passed": self.all_passed,
                "checks": {k: v.to_dict() for k, v in self.checks.items()}}


def _sample_views(grid: Grid, rng: np.random.Generator, count: int) -> list[MeasureView]:
    """count Gaussian measures of one width, centred in the box's middle half."""
    lo, hi = grid.x_min, grid.x_max
    views = []
    for _ in range(count):
        c = [rng.uniform(0.5 * lo[d] + 0.5 * hi[d] - 0.25 * (hi[d] - lo[d]),
                         0.5 * lo[d] + 0.5 * hi[d] + 0.25 * (hi[d] - lo[d]))
             for d in range(grid.dim)]
        s = rng.uniform(0.05, 0.25) * (hi[0] - lo[0])
        g = [np.exp(-(grid.axis(d) - c[d]) ** 2 / (2 * s * s)) for d in range(grid.dim)]
        dens = g[0] if grid.dim == 1 else g[0][:, None] * g[1][None, :]
        views.append(MeasureView(dens / (dens.sum() * grid.cell_volume), grid))
    return views


def check_assumptions(problem: ProblemSpec, grid: Grid, n_samples: int = 200,
                      seed: int = 0) -> AssumptionReport:
    """Sample-check the structural assumptions on a problem instance.

    Draws random (t, x, m-slice, alpha, p, xi) tuples and verifies the ellipticity
    bracket, growth bounds, and finite-difference Lipschitz estimates against the
    declared constants. Margins >= 0 mean the sampled inequality held with slack.
    One pass over the samples runs every sampled check; the difference
    quotients (B4, B5, B7) probe the first 64 samples.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = _stream(seed, 0xA55)
    n, L = problem.dim, problem.lipschitz
    views = _sample_views(grid, rng, min(8, n_samples))
    ts = rng.uniform(0.0, problem.horizon, n_samples)
    alphas = rng.normal(0.0, 3.0, (n_samples, n))
    alphas[:: max(1, n_samples // 10)] *= 4.0  # probe the growth regime
    ps = rng.normal(0.0, 3.0, (n_samples, n))
    xs = np.column_stack([rng.uniform(grid.x_min[d], grid.x_max[d], n_samples)
                          for d in range(n)])
    # the B2 directions, drawn before every B7 perturbation
    xis = rng.normal(size=(n_samples, 2)) if n == 2 else None
    if n == 1:  # 1D points, controls and costates carry no coordinate axis
        xs, alphas, ps = xs[:, 0], alphas[:, 0], ps[:, 0]
    fd = lambda v: 1e-4 * (1.0 + np.abs(v))  # central-difference probe step
    norm = np.abs if n == 1 else np.linalg.norm
    e1 = 1.0 if n == 1 else np.array([1.0, 0.0])  # the difference direction
    evaluator = (PhiEvaluator.for_problem(problem)
                 if problem.closed_form_phi is not None else None)

    n_fd = min(n_samples, 64)
    qs, b3s, quots, gv, gq, pq, growth = [], [], [], [], [], [], []
    worst_detail, argmin_ok = "", True
    for i in range(n_samples):
        t, x, al, view = ts[i], xs[i], alphas[i], views[i % len(views)]
        amag = norm(al)
        sig = np.asarray(problem.diffusion_sigma(t, x, view), dtype=float)
        # (B2) ellipticity bracket for a = sigma sigma^T / 2
        if n == 1:
            a = 0.5 * sig ** 2
            qs.append(0.5 * float(sig) ** 2)
        else:
            a = 0.5 * sig @ sig.T
            xi = xis[i] / np.linalg.norm(xis[i])
            qs.append(float(xi @ a @ xi))
        # (B3) growth: |f| <= L(1+|a|^2), |b| <= L(1+|a|), |a_ij| <= L
        f = problem.running_f0(t, x, view) + problem.running_f1(t, x, al)
        b = problem.drift_b0(t, x, view) + problem.drift_b1(t, x, al)
        trip = (L * (1 + amag ** 2) - abs(float(f)),
                L * (1 + amag) - float(norm(b)),
                L - float(np.max(np.abs(a))))
        b3s.append(min(trip))
        if b3s[-1] == min(b3s):  # the last sample at the running minimum
            worst_detail = (f"worst at t={t:.3f}, |alpha|={amag:.3f}: "
                            f"f/b/a margins {trip[0]:.3g}/{trip[1]:.3g}/{trip[2]:.3g}")
        if i >= n_fd:
            continue
        # (B4) Lipschitz in x and alpha by central differences
        hx = fd(norm(x))
        for fn in (
            lambda z: problem.drift_b0(t, z, view) + problem.drift_b1(t, z, al),
            lambda z: problem.running_f0(t, z, view) + problem.running_f1(t, z, al),
            lambda z: np.max(np.abs(problem.diffusion_sigma(t, z, view))),
        ):
            d = (np.asarray(fn(x + hx * e1), dtype=float)
                 - np.asarray(fn(x - hx * e1), dtype=float))
            quots.append(float(np.max(np.abs(d))) / (2 * hx))
        dg = abs(float(problem.terminal_g(x + hx * e1, view))
                 - float(problem.terminal_g(x - hx * e1, view))) / (2 * hx)
        ha = fd(amag)
        db = (np.asarray(problem.drift_b1(t, x, al + ha * e1), dtype=float)
              - np.asarray(problem.drift_b1(t, x, al - ha * e1), dtype=float))
        df = problem.running_f1(t, x, al + ha * e1) - problem.running_f1(t, x, al - ha * e1)
        quots += [dg, float(np.max(np.abs(db))) / (2 * ha),
                  abs(float(df)) / (2 * ha) / (1.0 + 2.0 * amag)]
        # (B5) terminal data bounded with bounded gradient
        gv.append(abs(float(problem.terminal_g(x, view))))
        gq.append(dg)
        if evaluator is None:
            continue
        # (B7) minimizer regularity; its argmin property spot-checked by perturbation
        p = ps[i]
        pmag = norm(p)
        hp = fd(pmag)
        phi0 = np.asarray(minimize_H(problem, evaluator, t, x, p), dtype=float)
        dphi = (np.asarray(minimize_H(problem, evaluator, t, x, p + hp * e1))
                - np.asarray(minimize_H(problem, evaluator, t, x, p - hp * e1)))
        pq.append(float(np.max(np.abs(dphi))) / (2 * hp))
        growth.append(float(np.max(np.abs(phi0))) / (1.0 + pmag))
        h0 = evaluate_H(problem, t, x, view, phi0, p)
        pert = rng.normal(0.0, 0.5, phi0.shape) if n == 2 else rng.normal(0.0, 0.5)
        h1 = evaluate_H(problem, t, x, view, problem.control_space.clip(phi0 + pert), p)
        if h1 < h0 - 1e-10:
            argmin_ok = False

    qs = np.array(qs)
    b2 = min(float(np.min(qs - problem.gamma1)), float(np.min(problem.gamma2 - qs)))
    b3 = float(np.min(b3s))
    b4 = L - float(np.max(quots))
    b5 = L - max(max(gv), max(gq))
    checks = {
        # (B1) split structure: enforced by construction of ProblemSpec
        "B1": AssumptionCheck(
            "B1 drift/cost split", True, True,
            detail="b and f are only evaluated through the b0+b1 / f0+f1 split"),
        "B2": AssumptionCheck(
            "B2 uniform ellipticity", True, b2 >= -1e-12, margin=b2,
            detail=f"rayleigh quotient in [{qs.min():.6g}, {qs.max():.6g}] "
                   f"vs [{problem.gamma1:.6g}, {problem.gamma2:.6g}]"),
        "B3": AssumptionCheck("B3 growth bounds", True, b3 >= -1e-12,
                              margin=b3, detail=worst_detail),
        "B4": AssumptionCheck(
            "B4 Lipschitz coefficients", True, b4 >= -1e-9, margin=b4,
            detail=f"worst sampled difference quotient {np.max(quots):.6g} vs L={L:.6g}"),
        "B5": AssumptionCheck(
            "B5 terminal data regularity", True, b5 >= -1e-9, margin=b5,
            detail=f"max |g| {max(gv):.4g}, max |Dg| {max(gq):.4g} vs L={L:.4g}"),
    }

    # (B6) initial density: nonnegative Hoelder density with finite second moment
    try:
        m0, leak = discretize_initial_density(problem, grid)
        sm = MeasureView(m0, grid).second_moment
        checks["B6"] = AssumptionCheck(
            "B6 initial density", True, bool(leak < 1e-6 and np.isfinite(sm)),
            margin=1e-6 - leak,
            detail=f"box mass leak {leak:.3e}, second moment {sm:.4g}")
    except ValueError as e:
        checks["B6"] = AssumptionCheck("B6 initial density", True, False,
                                       detail=str(e))

    # (B7) unverifiable for grid-search instances
    if evaluator is None:
        checks["B7"] = AssumptionCheck(
            "B7 minimizer regularity", False, True,
            detail="assumption (B7) unchecked: grid_search mode has no "
                   "differentiable minimizer to probe")
    else:
        b7 = L - max(max(pq), max(growth))
        checks["B7"] = AssumptionCheck(
            "B7 minimizer regularity", True, b7 >= -1e-9 and argmin_ok, margin=b7,
            detail=f"phi/p difference quotient {max(pq):.9g}, growth ratio "
                   f"{max(growth):.4g} vs L={L:.4g}; argmin spot-check "
                   f"{'passed' if argmin_ok else 'FAILED'}")
    return AssumptionReport(checks=checks, n_samples=n_samples, seed=seed)
