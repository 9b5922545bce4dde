"""Monte Carlo evaluation of the control cost and statistical optimality checks.

Pathwise costs are added up inside the particle march (`particle._march`).
Feedback and perturbed policies are costed in one stacked march, under the same
frozen equilibrium flow and the same noise realization (common random numbers);
the standard error of the paired per-path differences is what makes small
suboptimality gaps resolvable at moderate path counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Grid, MeasureFlow, ProblemSpec, ValueField
from .particle import _law_d1, _march, _single

__all__ = [
    "CostEstimate",
    "OptimalityReport",
    "evaluate_cost",
    "expected_initial_value",
    "verify_optimality",
]


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error,
                "n_paths": self.n_paths, "seed": self.seed}


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
        return {"epsilon": self.epsilon, "direction": self.direction,
                "cost": self.cost.to_dict(), "gap": self.gap,
                "paired_std_error": self.paired_std_error, "passed": self.passed}


@dataclass
class OptimalityReport:
    feedback_cost: CostEstimate = None
    expected_value: float = np.nan
    value_gap: float = np.nan
    value_tolerance: float = np.nan
    value_check_passed: bool = False
    perturbations: list = field(default_factory=list)
    all_perturbations_passed: bool = False
    # the feedback paths' law check, which the CLI reports under `particle`:
    # d1 to the flow per time level, boundary leak, sup |X|
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
                     rng: np.random.Generator) -> list[np.ndarray]:
    """Smooth unit-amplitude perturbation directions: tensor-product sinusoids
    in (t, x) with random integer frequencies and phases. Each control
    component is a product of sines over the axes, the spatial phase on the
    first axis only, times a sine in t."""
    T = grid.horizon if grid.horizon > 0 else 1.0
    t = grid.times.reshape((-1,) + (1,) * dim)
    xs = [grid.axis(a).reshape((1,) + tuple(-1 if b == a else 1 for b in range(dim)))
          for a in range(dim)]
    fields = []
    for _ in range(count):
        comps = []
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
            comps.append(eta * np.sin(kt * np.pi * t / T + ph_t))
        # 1D controls carry no component axis
        fields.append(comps[0] if dim == 1 else np.stack(comps, axis=-1))
    return fields


def verify_optimality(problem: ProblemSpec, grid: Grid, u: ValueField,
                      m_flow: MeasureFlow, n_perturbations: int, n_paths: int,
                      seed: int, epsilons=(0.1, 0.3),
                      discretization_allowance: float = 2e-2,
                      policy: Optional[np.ndarray] = None) -> OptimalityReport:
    """Statistical check of the verification theorem on a solved pair (u, m).

    (i) the feedback cost matches the quadrature of u(0,.) against m0 within
    3 standard errors plus a discretization allowance; (ii) every perturbed
    policy costs at least the feedback cost minus 3 standard errors of the
    gap: the smaller of the paired-difference error and the hypot of the two
    standard errors. The feedback and every perturbed policy are marched
    together, against the same frozen flow and noise; the report also holds
    the feedback paths' law check against the flow.
    """
    from .mfg import feedback_policy  # deferred: mfg depends on lower layers only

    if policy is None:
        policy = feedback_policy(problem, grid, u)
    policy = np.asarray(policy, dtype=float)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x5EED],
                                                            dtype=np.uint64)))
    etas = _sinusoid_fields(grid, problem.dim, n_perturbations, rng)
    members = [(j, eps) for j in range(len(etas)) for eps in epsilons]
    clip = problem.control_space.clip

    def controls(k):  # the feedback, then each perturbed policy, at level k
        return np.stack([policy[k]] + [clip(policy[k] + eps * etas[j][k])
                                       for j, eps in members])

    report = OptimalityReport()
    report.d1_profile = np.empty(grid.nt + 1)

    def law(k, x):
        report.d1_profile[k] = _law_d1(x[:n_paths], m_flow.densities[k], grid)

    cost, leak, max_abs = _march(problem, grid, m_flow, controls,
                                 1 + len(members), n_paths, seed, law)
    report.boundary_leak = float(leak[0])
    report.max_abs_position = float(max_abs[0])
    fb = _estimate(cost[0], seed)
    report.feedback_cost = fb
    report.expected_value = expected_initial_value(u, m_flow.densities[0], grid)
    report.value_gap = abs(fb.mean - report.expected_value)
    report.value_tolerance = 3.0 * fb.std_error + discretization_allowance
    report.value_check_passed = report.value_gap <= report.value_tolerance

    ok = True
    for (j, eps), total in zip(members, cost[1:]):
        ce = _estimate(total, seed)
        gap = ce.mean - fb.mean
        paired = _std_error(total - cost[0])
        combined = np.hypot(ce.std_error, fb.std_error)
        passed = gap >= -3.0 * min(paired, combined)
        ok &= passed
        report.perturbations.append(PerturbationResult(
            epsilon=eps, direction=j, cost=ce, gap=gap,
            paired_std_error=paired, passed=passed))
    report.all_perturbations_passed = ok
    return report
