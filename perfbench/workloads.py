"""The four benchmark workloads.

Each workload is a function (workdir, seed) -> (run, check). Calling it is the
operation's set-up: it imports the package and builds the problem, grid and
solver configs. `run()` performs the operation and returns its outputs;
`check(outputs)` returns (errors, oracle_max_err, artifact_bytes), where an
empty error list means every output matched its reference.

CLI workloads go through `mfgkit.cli.main`; library workloads call the public
functions. Both call through module attributes so the span recorder sees them.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference as ref

# tolerances of the acceptance battery where it gates the same quantity
MASS_TOL = 1e-8            # criterion 03: unit mass per level
NEG_TOL = -1e-12           # criterion 03: positivity
RICCATI_TOL = 1e-2         # criterion 02 / CLI oracle gate
HOPF_COLE_2D_TOL = 3e-2    # tests/test_hjb.py::test_2d_separable_hopf_cole
VALUE_ALLOWANCE = 2e-2     # verify_optimality's discretisation allowance
MARGIN_1D = 10             # interior margin of the CLI's oracle check
MARGIN_2D = 6              # interior margin of the 2D separable test
FIXED_POINT_TOL = 1e-4     # catalog tol, passed to the CLI explicitly

LQ_PATHS = 10_000          # verify-lq: verification dominates wall and RSS
D2_PATHS = 4_000           # verify-2d
D2_GRID = (61, 100)        # verify-2d: nx per axis, nt
GRIDSEARCH_BOX = (-8.0, 8.0, 161)
POLICY_STRIDE = 50          # solve-lq-gridsearch: policy levels checked


class ProgramFailed(RuntimeError):
    pass


def _density_errors(densities: np.ndarray, cell_volume: float) -> list:
    drift, low = ref.density_defects(densities, cell_volume)
    errors = []
    if drift > MASS_TOL:
        errors.append(f"density mass off by {drift:.3e} (tol {MASS_TOL:.0e})")
    if low < NEG_TOL:
        errors.append(f"density entry {low:.3e} below {NEG_TOL:.0e}")
    return errors


def _read_field(path: Path):
    """A 1D long-format field CSV as (times, x, values[k, i])."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    x = np.unique(data[:, 1])
    values = data[:, 2].reshape(-1, x.size)
    return data[::x.size, 0], x, values


def _cli(argv: list, out: Path):
    from mfgkit import cli

    def run():
        rc = cli.main(argv)
        if rc != 0:
            raise ProgramFailed(f"mfgkit {argv[0]} exited {rc}")
        return out
    return run


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def verify_lq(workdir: Path, seed: int):
    out = workdir / "out"
    run = _cli(["verify", "--problem", "lq-riccati", "--out", str(out),
                "--n-particles", str(LQ_PATHS), "--seed", str(seed)], out)

    def check(out):
        times, x, u = _read_field(out / "u_field.csv")
        _, _, m = _read_field(out / "m_flow.csv")
        horizon = times[-1]
        err = ref.interior_max_err(u, ref.riccati_value(times, x, horizon), MARGIN_1D)
        errors = _density_errors(m, x[1] - x[0])
        if err > RICCATI_TOL:
            errors.append(f"u off the Riccati closed form by {err:.3e}")
        fb = json.loads((out / "summary.json").read_text())["optimality"]["feedback_cost"]
        gap = abs(fb["mean"] - ref.riccati_initial_expectation(horizon))
        allowed = 3.0 * fb["std_error"] + VALUE_ALLOWANCE
        if gap > allowed:
            errors.append(f"feedback cost off E[u(0,X0)] by {gap:.3e} > {allowed:.3e}")
        return errors, err, _artifact_bytes(out)
    return run, check


def solve_ex5(workdir: Path, seed: int):
    out = workdir / "out"
    run = _cli(["solve", "--problem", "example5-weak", "--out", str(out),
                "--tol", repr(FIXED_POINT_TOL)], out)

    def check(out):
        times, x, u = _read_field(out / "u_field.csv")
        _, _, m = _read_field(out / "m_flow.csv")
        errors = _density_errors(m, x[1] - x[0])
        rho = np.loadtxt(out / "residuals.csv", delimiter=",", skiprows=1, ndmin=2)
        if not rho[-1, 1] <= FIXED_POINT_TOL:
            errors.append(f"final fixed-point residual {rho[-1, 1]:.3e} > tol")
        # no closed form: the reference is the benchmark's own solve of the
        # value equation under the computed flow's mean (example5-weak:
        # B = 0.3 tanh(mean - x), F = 0.1 * 9 tanh((x - mean)^2 / 9), G capped at 25)
        means = m @ x * (x[1] - x[0])
        mean = lambda t: np.interp(t, times, means)
        drift = lambda t, y: 0.3 * np.tanh(mean(t) - y)
        source = lambda t, y: 0.1 * 9.0 * np.tanh((y - mean(t)) ** 2 / 9.0)
        value = ref.linearised_value(ref.capped_quadratic(25.0), drift, source,
                                     times, x, times[-1])
        return errors, ref.interior_max_err(u, value, MARGIN_1D), _artifact_bytes(out)
    return run, check


def verify_2d(workdir: Path, seed: int):
    from mfgkit import core, cost, mfg, particle

    G1, G2 = ref.capped_quadratic(8.0), ref.capped_quadratic(5.0)
    problem = core.ProblemSpec(
        dim=2, horizon=0.5,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: a,
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.eye(2),
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: G1(x[..., 0]) + G2(x[..., 1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p: -p,
        gamma1=1.0, gamma2=1.0, lipschitz=15.0, name="separable-hopf-cole-2d")
    nx, nt = D2_GRID
    grid = core.build_grid(2, -6.0, 6.0, nx, 0.5, nt)
    fixed_point = mfg.FixedPointConfig(theta=0.5, tol=FIXED_POINT_TOL, max_iters=50)

    def run():
        u, m, report = mfg.solve_mfg(problem, grid, fixed_point)
        policy = mfg.feedback_policy(problem, grid, u)
        ensemble = particle.simulate(problem, grid, m, policy, D2_PATHS, seed)
        particle.compare_law(ensemble, m, grid)
        cost.verify_optimality(problem, grid, u, m, 5, D2_PATHS, seed, policy=policy)
        return u, m, report

    def check(outputs):
        u, m, report = outputs
        value = ref.hopf_cole_2d(G1, G2, grid.times, grid.axis(0), grid.axis(1), 0.5)
        err = ref.interior_max_err(u.values, value, MARGIN_2D)
        errors = _density_errors(m.densities, grid.cell_volume)
        if err > HOPF_COLE_2D_TOL:
            errors.append(f"u off the summed Hopf-Cole value by {err:.3e}")
        if not report.converged:
            errors.append("fixed point did not converge")
        return errors, err, 0
    return run, check


def solve_lq_gridsearch(workdir: Path, seed: int):
    from mfgkit import catalog, core, hamiltonian, mfg

    entry = catalog.get_entry("lq-riccati")
    lo, hi, points = GRIDSEARCH_BOX
    problem = replace(entry.problem, closed_form_phi=None,
                      control_space=core.ControlSpace.box(lo, hi, points))
    grid = entry.grid
    half_spacing = 0.5 * (hi - lo) / (points - 1)

    def run():
        return mfg.solve_mfg(problem, grid, entry.fixed_point)

    def check(outputs):
        u, m, report = outputs
        x = grid.axis(0)
        err = ref.interior_max_err(u.values, ref.riccati_value(grid.times, x, grid.horizon),
                                   MARGIN_1D)
        errors = _density_errors(m.densities, grid.cell_volume)
        if err > RICCATI_TOL:
            errors.append(f"u off the Riccati closed form by {err:.3e}")
        # the grid-search minimiser at Du on every POLICY_STRIDE-th level
        evaluator = hamiltonian.PhiEvaluator.for_problem(problem)
        levels = range(0, grid.nt + 1, POLICY_STRIDE)
        policy = np.array([hamiltonian.minimize_H(problem, evaluator, grid.time(k), x,
                                                  u.du[k]) for k in levels])
        miss = float(np.max(np.abs(policy + u.du[levels])))
        if miss > half_spacing + 1e-12:
            errors.append(f"|policy + Du| reaches {miss:.3e} > {half_spacing:.3e}")
        if not report.converged:
            errors.append("fixed point did not converge")
        return errors, err, 0
    return run, check


WORKLOADS = {
    "verify-lq": verify_lq,
    "solve-ex5": solve_ex5,
    "verify-2d": verify_2d,
    "solve-lq-gridsearch": solve_lq_gridsearch,
}
