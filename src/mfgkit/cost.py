"""Monte Carlo control cost, statistical optimality checks, and `verify_solution`.

Pathwise costs are added up inside the particle march (`particle._march`).
Feedback and perturbed policies are costed in one stacked march, under the same
frozen equilibrium flow and the same noise realization (common random numbers);
the standard error of the paired per-path differences is what makes small
suboptimality gaps resolvable at moderate path counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .core import MASS_TOL, Grid, MeasureFlow, ProblemSpec, ValueField, _stream
from .fp import NEGATIVITY_TOL
from .hamiltonian import check_assumptions
from .measure import flow_regularity
from .mfg import FixedPointReport, feedback_policy, pde_residual
from .particle import _march, _single, law_check

__all__ = [
    "CostEstimate",
    "OptimalityReport",
    "evaluate_cost",
    "expected_initial_value",
    "verify_optimality",
    "verify_solution",
]

# the value identity's allowance for the time and space discretization of the
# solved pair, on top of three standard errors of the feedback cost
DISCRETIZATION_ALLOWANCE = 2e-2
EPSILONS = (0.1, 0.3)  # the perturbation sizes, each taken in every direction


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate_cost(problem: ProblemSpec, grid: Grid, m_flow: MeasureFlow,
                  policy: np.ndarray, n: int,
                  seed: int) -> CostEstimate:
    """Sample mean and standard error of the pathwise cost under the policy,
    which the particle march adds up without storing the paths: left-endpoint
    quadrature of the running cost plus the terminal cost, the Euler-Maruyama
    convention."""
    cost, _, _ = _march(problem, grid, m_flow, _single(policy), 1, n, seed)
    return _estimate(cost[0], seed)


def _std_error(samples: np.ndarray) -> float:
    n = samples.size
    return float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _estimate(total: np.ndarray, seed: int) -> CostEstimate:
    return CostEstimate(mean=float(np.mean(total)), std_error=_std_error(total),
                        n_paths=total.size, seed=seed)


def expected_initial_value(u: ValueField, m0_density: np.ndarray,
                           grid: Grid) -> float:
    """Grid quadrature of u(0, .) against the initial density."""
    m0 = np.asarray(m0_density, dtype=float)
    if m0.shape != grid.shape:
        raise ValueError("initial density shape does not match the grid")
    return float(np.sum(u.values[0] * m0) * grid.cell_volume)


@dataclass
class PerturbationResult:
    epsilon: float
    direction: int
    cost: CostEstimate
    gap: float            # perturbed mean minus feedback mean
    paired_std_error: float  # of the per-path differences against the feedback
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class OptimalityReport:
    feedback_cost: CostEstimate = None
    expected_value: float = np.nan
    value_gap: float = np.nan
    value_tolerance: float = np.nan
    value_check_passed: bool = False
    perturbations: list = field(default_factory=list)
    all_perturbations_passed: bool = False
    # the feedback paths' law check, by the march's `law`, as in
    # `particle.law_check`; verify_solution reports it under `particle`: d1 to the
    # flow per time level, boundary leak, sup |X|
    d1_profile: np.ndarray = None
    boundary_leak: float = np.nan
    max_abs_position: float = np.nan

    @property
    def all_passed(self) -> bool:
        return self.value_check_passed and self.all_perturbations_passed

    def to_dict(self) -> dict:
        return {
            "feedback_cost": self.feedback_cost.to_dict() if self.feedback_cost else None,
            "expected_initial_value": self.expected_value,
            "value_gap": self.value_gap,
            "value_tolerance": self.value_tolerance,
            "value_check_passed": self.value_check_passed,
            "perturbations": [p.to_dict() for p in self.perturbations],
            "all_perturbations_passed": self.all_perturbations_passed,
            "all_passed": self.all_passed,
        }


def _sinusoid_fields(grid: Grid, dim: int, count: int,
                     rng: np.random.Generator) -> list[tuple]:
    """Smooth unit-amplitude perturbation directions: tensor-product sinusoids
    in (t, x) with random integer frequencies and phases. Each control
    component is a product of sines over the axes, the spatial phase on the
    first axis only, times a sine in t.

    Each direction is kept as (spatial, time): spatial has the control
    field's shape, the grid's shape (plus a component axis in 2D), and time
    is (nt+1,) (plus a component axis in 2D); the direction at level k is
    spatial * time[k]."""
    T = grid.horizon if grid.horizon > 0 else 1.0
    xs = [grid.axis(a).reshape(tuple(-1 if b == a else 1 for b in range(dim)))
          for a in range(dim)]
    fields = []
    for _ in range(count):
        spatial, time = [], []
        for _d in range(dim):
            kx = rng.integers(1, 4)
            kt = rng.integers(1, 4)
            ph_x = rng.uniform(0, 2 * np.pi)
            ph_t = rng.uniform(0, 2 * np.pi)
            eta = None
            for a, x in enumerate(xs):
                arg = kx * np.pi * (x - grid.x_min[a]) / (grid.x_max[a] - grid.x_min[a])
                s = np.sin(arg + ph_x) if a == 0 else np.sin(arg)
                eta = s if eta is None else eta * s
            spatial.append(eta)
            time.append(np.sin(kt * np.pi * grid.times / T + ph_t))
        # 1D controls carry no component axis
        fields.append((spatial[0], time[0]) if dim == 1 else
                      (np.stack(spatial, axis=-1), np.stack(time, axis=-1)))
    return fields


def verify_optimality(problem: ProblemSpec, grid: Grid, u: ValueField,
                      m_flow: MeasureFlow, n_perturbations: int, n_paths: int,
                      seed: int, policy: Optional[np.ndarray] = None,
                      observe=None) -> OptimalityReport:
    """Statistical check of the verification theorem on a solved pair (u, m).

    (i) the feedback cost matches the quadrature of u(0,.) against m0 within
    3 standard errors plus a discretization allowance; (ii) every perturbed
    policy, each direction at each size in EPSILONS, costs at least the
    feedback cost minus 3 standard errors of the gap: the smaller of the
    paired-difference error and the hypot of the two standard errors. The
    feedback and every perturbed policy are marched together, against the
    same frozen flow and noise; the report also holds the feedback paths'
    law check against the flow. An observe(k, x), if given, sees the stacked
    points at each level, as in `particle._march`, and keeps the march in one
    process."""
    if policy is None:
        policy = feedback_policy(problem, grid, u)
    policy = np.asarray(policy, dtype=float)
    etas = _sinusoid_fields(grid, problem.dim, n_perturbations, _stream(seed, 0x5EED))
    members = [(j, eps) for j in range(len(etas)) for eps in EPSILONS]
    clip = problem.control_space.clip
    # the directions stacked once: the spatial factors, (directions,) + the
    # control's shape, and the time factors with unit node axes, so that
    # time[:, k] broadcasts against them
    shape = policy.shape[1:]
    spatial = np.array([s for s, _ in etas]).reshape((len(etas),) + shape)
    time = np.array([t for _, t in etas]).reshape(
        (len(etas), grid.nt + 1) + (1,) * grid.dim + shape[grid.dim:])
    sizes = np.reshape(EPSILONS, (-1,) + (1,) * len(shape))
    fields = np.empty((1 + len(members),) + shape)  # every member's controls
    perturbed = fields[1:].reshape((len(etas), len(EPSILONS)) + shape)

    def controls(k):  # the feedback, then each perturbed policy, at level k
        fields[0] = policy[k]
        np.multiply(sizes, (spatial * time[:, k])[:, None], out=perturbed)
        np.add(perturbed, policy[k], out=perturbed)
        clip(perturbed, out=perturbed)
        return fields

    report = OptimalityReport(d1_profile=np.empty(grid.nt + 1))
    cost, leak, max_abs = _march(problem, grid, m_flow, controls,
                                 1 + len(members), n_paths, seed, observe,
                                 law=report.d1_profile)
    report.boundary_leak = float(leak[0])
    report.max_abs_position = float(max_abs[0])
    fb = _estimate(cost[0], seed)
    report.feedback_cost = fb
    report.expected_value = expected_initial_value(u, m_flow.densities[0], grid)
    report.value_gap = abs(fb.mean - report.expected_value)
    report.value_tolerance = 3.0 * fb.std_error + DISCRETIZATION_ALLOWANCE
    report.value_check_passed = report.value_gap <= report.value_tolerance

    ok = True
    for (j, eps), total in zip(members, cost[1:]):
        ce = _estimate(total, seed)
        gap = ce.mean - fb.mean
        paired = _std_error(total - cost[0])
        combined = np.hypot(ce.std_error, fb.std_error)
        passed = bool(gap >= -3.0 * min(paired, combined))
        ok &= passed
        report.perturbations.append(PerturbationResult(
            epsilon=eps, direction=j, cost=ce, gap=gap,
            paired_std_error=paired, passed=passed))
    report.all_perturbations_passed = ok
    return report


def verify_solution(entry, grid: Grid, u: ValueField, m: MeasureFlow,
                    report: FixedPointReport, *, n_paths: int, n_perturbations: int,
                    seed: int, assumption_samples: int, duality_tol: float,
                    observe=None) -> tuple[dict, dict]:
    """The verification report of a solved pair (u, m) of a catalog entry:
    (blocks, checks), the summary.json blocks from `fixed_point` on and each
    check's pass/fail, in summary.json's order. With n_paths = 0 the solve-level
    ones only (fixed point, mass, oracle); else one march checks the law and, for
    a controlled entry, the optimality (`verify_optimality`), showing its points
    to observe(k, x) if given, and then the assumptions are sampled."""
    drift, low = float(m.mass_drift.max()), float(m.min_density.min())
    hjb_res, fp_res = pde_residual(entry.problem, grid, u, m)
    blocks = {
        "fixed_point": {**report.to_dict(),
                        "final_flow_regularity": flow_regularity(m, grid).to_dict(),
                        "pde_residuals": {"hjb": float(hjb_res), "fp": float(fp_res)}},
        "mass": {"max_pre_renormalization_drift": drift, "min_density": low},
    }
    checks = {"converged": report.converged,
              "mass_conservation": drift <= MASS_TOL,
              "positivity": low >= -NEGATIVITY_TOL}

    if entry.oracle is not None:
        ref = entry.oracle_value(grid)
        sl = (slice(None),) + (grid.interior(),) * grid.dim  # each axis, every level
        err = float(np.max(np.abs(u.values - ref.values)[sl]))
        gerr = float(np.max(np.abs(u.du - ref.du)[sl]))
        blocks["oracle"] = {"kind": entry.oracle,
                            "hjb_oracle_max_err": err,
                            "hjb_oracle_gradient_err": gerr,
                            "tolerance": entry.oracle_tol}
        checks["hjb_oracle"] = err <= entry.oracle_tol
    if not n_paths:
        return blocks, checks

    if entry.controlled:  # one march checks the feedback's law and cost
        opt = verify_optimality(entry.problem, grid, u, m, n_perturbations, n_paths,
                                seed, observe=observe)
        profile, leak, max_abs = opt.d1_profile, opt.boundary_leak, opt.max_abs_position
        optimality, optimality_check = opt.to_dict(), {"optimality": opt.all_passed}
    else:
        profile, leak, max_abs = law_check(entry.problem, grid, m, None, n_paths, seed,
                                           observe=observe)
        optimality = {"note": "control-free instance",
                      "expected_initial_value": expected_initial_value(
                          u, m.densities[0], grid)}
        optimality_check = {}
    blocks["particle"] = {
        "n": n_paths, "seed": seed,
        "max_d1": float(profile.max()),
        "boundary_leak": leak,
        "max_abs_position": max_abs,
        "d1_profile_head": [float(v) for v in profile[:: max(1, grid.nt // 10)]],
    }
    blocks["optimality"] = optimality
    checks["sde_fp_duality"] = float(profile.max()) <= duality_tol
    checks.update(optimality_check)
    assum = check_assumptions(entry.problem, grid, n_samples=assumption_samples,
                              seed=seed)
    blocks["assumptions"] = assum.to_dict()
    checks["assumptions"] = assum.all_passed
    return blocks, checks
