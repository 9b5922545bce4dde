"""Acceptance battery: every exit criterion at its stated tolerance, one
pass/fail line each. Run with -s to see the lines as they complete.

The expensive converged solves are shared through the session-scoped cache in
conftest; criteria that need refined grids request refine=2 variants.
"""

import time

import numpy as np
import pytest

from mfgkit.catalog import get_entry, heat_check_problem
from mfgkit.core import build_grid, discretize_initial_density
from mfgkit.cost import evaluate_cost, expected_initial_value, verify_optimality
from mfgkit.fp import solve_fp
from mfgkit.hjb import HjbSolverConfig, solve_hjb
from mfgkit.measure import d1_atoms, d1_grid, d1_lp, flow_distance, flow_regularity
from mfgkit.mfg import FixedPointConfig, feedback_policy, pde_residual, solve_mfg
from mfgkit.oracle import heat_flow_density
from mfgkit.particle import law_check

ALL_CATALOG = ("decoupled-hopfcole", "lq-riccati", "example5-weak",
               "uncontrolled-fp")


def _report(num, name, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_hjb_hopf_cole_equivalence(solved):
    entry, grid, u, _, _ = solved.get("decoupled-hopfcole")
    assert (grid.nx, grid.nt, grid.x_min[0], grid.x_max[0]) == (241, 400, -6.0, 6.0)
    t0 = time.perf_counter()
    u_timed = solve_hjb(entry.problem, grid,
                        _frozen_flow(entry.problem, grid), HjbSolverConfig())
    runtime = time.perf_counter() - t0
    ref = entry.oracle_value(grid)
    err = float(np.max(np.abs(u.values - ref.values)[:, 10:-10]))

    fine = grid.refine(2)
    u_fine = solve_hjb(entry.problem, fine, _frozen_flow(entry.problem, fine),
                       HjbSolverConfig())
    ref_fine = entry.oracle_value(fine)
    err_fine = float(np.max(np.abs(u_fine.values - ref_fine.values)[:, 10:-10]))
    factor = err / err_fine

    ok = err <= 5e-3 and runtime < 30.0 and factor >= 1.8
    _report(1, "hjb vs hopf-cole", ok,
            f"interior max err {err:.2e} (tol 5e-3), solve {runtime:.1f}s "
            f"(limit 30s), refinement factor {factor:.2f} (need >= 1.8)")


def test_criterion_02_hjb_riccati_equivalence(solved):
    entry, grid, u, _, _ = solved.get("lq-riccati")
    ref = entry.oracle_value(grid)
    sl = slice(10, -10)
    err = float(np.max(np.abs(u.values - ref.values)[:, sl]))
    # analytic gradient 2 a(t) x
    gerr = float(np.max(np.abs(u.du - ref.du)[:, sl]))
    ok = err <= 1e-2 and gerr <= 2e-2
    _report(2, "hjb vs riccati", ok,
            f"interior max err {err:.2e} (tol 1e-2), gradient err {gerr:.2e} "
            f"(tol 2e-2)")


def test_criterion_03_fp_conservation_and_positivity(solved):
    worst_drift, worst_min = 0.0, 0.0
    for name in ALL_CATALOG:
        _, _, _, m, _ = solved.get(name)
        worst_drift = max(worst_drift, float(m.mass_drift.max()))
        worst_min = min(worst_min, float(m.min_density.min()))
    ok = worst_drift <= 1e-8 and worst_min >= -1e-12
    _report(3, "fp conservation/positivity", ok,
            f"max pre-renormalization drift {worst_drift:.1e} (tol 1e-8), "
            f"min density {worst_min:.1e} (tol -1e-12)")


def test_criterion_04_fp_heat_kernel_equivalence():
    problem, grid = heat_check_problem()
    assert (grid.nx, grid.nt) == (321, 500)
    flow = solve_fp(problem, grid, None, None)
    ref = heat_flow_density(0.0, 0.25, np.sqrt(2.0), grid)
    worst = max(d1_grid(flow.densities[k], ref.densities[k], grid)
                for k in range(grid.nt + 1))
    ok = worst <= 2e-3
    _report(4, "fp vs heat kernel", ok,
            f"max d1 over all {grid.nt + 1} levels {worst:.2e} (tol 2e-3)")


def test_criterion_05_sde_fp_duality(solved):
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("uncontrolled-fp", "example5-weak"):
        entry, grid, u, m, _ = solved.get(name)
        policy = feedback_policy(entry.problem, grid, u) if entry.controlled else None
        profile, _, _ = law_check(entry.problem, grid, m, policy, 100_000, seed=101)
        worst = float(profile.max())
        ds = []
        for n in (1_000, 10_000, 100_000):
            profile, _, _ = law_check(entry.problem, grid, m, policy, n, seed=202)
            ds.append(float(profile.max()))
        slope = float(np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(ds), 1)[0])
        ok &= worst <= 5e-2 and -0.65 <= slope <= -0.35
        details.append(f"{name}: max d1 {worst:.2e}, slope {slope:.2f}")
    runtime = time.perf_counter() - t0
    ok &= runtime < 120.0
    _report(5, "sde-fp duality", ok,
            "; ".join(details) + f"; runtime {runtime:.0f}s (limit 120s)")


def test_criterion_06_fixed_point_convergence(solved):
    _, grid, _, _, rep = solved.get("example5-weak")
    ok = rep.converged and rep.iterations_used <= 50
    detail = f"example5-weak converged in {rep.iterations_used} iterations"
    for name in ("decoupled-hopfcole", "lq-riccati"):
        _, _, _, _, r = solved.get(name)
        ok &= r.converged and r.iterations_used == 2 and r.residual_history[1] <= 1e-12
        detail += (f"; {name}: {r.iterations_used} iters, "
                   f"second residual {r.residual_history[1]:.1e}")
    # both from one start whose history damps every step: theta 1.0 takes the
    # full steps, theta 0.5 half steps along a different residual history
    _, _, _, m_half, rep_half = solved.get("example5-weak", theta=0.5)
    _, _, _, m_one, rep_one = solved.get("example5-weak", theta=1.0)
    gap = flow_distance(m_half, m_one, grid)
    ok &= (rep_half.converged and rep_one.converged and gap <= 1e-3
           and rep_half.residual_history != rep_one.residual_history)
    detail += (f"; theta 1.0 vs 0.5 limit distance {gap:.1e} (tol 1e-3), "
               f"{rep_one.iterations_used} vs {rep_half.iterations_used} steps")
    _report(6, "fixed-point convergence", ok, detail)


def test_criterion_07_verification_theorem(solved):
    ok = True
    details = []
    for name in ("lq-riccati", "example5-weak"):
        entry, grid, u, m, _ = solved.get(name)
        policy = feedback_policy(entry.problem, grid, u)
        rep = verify_optimality(entry.problem, grid, u, m, n_perturbations=5,
                                n_paths=100_000, seed=404, policy=policy)
        n_pert_pass = sum(p.passed for p in rep.perturbations)
        ok &= rep.value_check_passed and n_pert_pass == 10
        # constant-shift perturbation: analytic suboptimality gap eps^2 T / 2
        fb = rep.feedback_cost
        shift_ok = True
        shift_bits = []
        for eps in (0.1, 0.3):
            pert = policy + eps
            ce = evaluate_cost(entry.problem, grid, m, pert, 100_000, seed=404)
            gap = ce.mean - fb.mean
            target = 0.5 * eps ** 2 * grid.horizon
            tol = 3.0 * np.hypot(ce.std_error, fb.std_error) + 2e-2
            shift_ok &= abs(gap - target) <= tol
            shift_bits.append(f"eps={eps}: gap {gap:.4f} vs {target:.4f}")
        ok &= shift_ok
        details.append(
            f"{name}: value gap {rep.value_gap:.2e} (tol {rep.value_tolerance:.2e}),"
            f" {n_pert_pass}/10 perturbations, shift gaps [{'; '.join(shift_bits)}]")
    _report(7, "verification theorem", ok, " | ".join(details))


def test_criterion_08_regularity_membership(solved):
    ok = True
    details = []
    for name in ALL_CATALOG:
        _, grid, _, m, _ = solved.get(name)
        base = flow_regularity(m, grid)
        _, grid2, _, m2, _ = solved.get(name, refine=2)
        fine = flow_regularity(m2, grid2)
        finite = np.isfinite(base.holder_half_seminorm) and \
            np.isfinite(base.max_second_moment)
        rel = abs(fine.holder_half_seminorm - base.holder_half_seminorm) \
            / base.holder_half_seminorm
        ok &= finite and rel <= 0.10 and fine.max_second_moment < 50.0
        details.append(f"{name}: holder {base.holder_half_seminorm:.3f} "
                       f"(refined drift {100 * rel:.1f}%), "
                       f"mom2 {base.max_second_moment:.3f}")
    _report(8, "regularity membership", ok, "; ".join(details))


def test_criterion_09_wasserstein_oracle_agreement(rng):
    worst = 0.0
    for _ in range(100):
        n1, n2 = rng.integers(2, 51, size=2)
        x1 = np.sort(rng.uniform(-5, 5, n1))
        x2 = np.sort(rng.uniform(-5, 5, n2))
        w1 = rng.random(n1) + 1e-3
        w2 = rng.random(n2) + 1e-3
        a = d1_atoms(x1, w1, x2, w2)
        b = d1_lp(x1, w1, x2, w2)
        worst = max(worst, abs(a - b))
    axiom_worst = 0.0
    g = build_grid(1, -4.0, 4.0, 50, 1.0, 4)
    for _ in range(100):
        ms = []
        for _j in range(3):
            m = rng.random(50) + 0.01
            ms.append(m / (m.sum() * g.h[0]))
        dab = d1_grid(ms[0], ms[1], g)
        dba = d1_grid(ms[1], ms[0], g)
        tri = d1_grid(ms[0], ms[2], g) + d1_grid(ms[2], ms[1], g) - dab
        axiom_worst = max(axiom_worst, abs(dab - dba), max(0.0, -tri),
                          d1_grid(ms[0], ms[0], g))
    ok = worst <= 1e-9 and axiom_worst <= 1e-12
    _report(9, "wasserstein oracle agreement", ok,
            f"max |cdf - lp| {worst:.1e} over 100 pairs (tol 1e-9); "
            f"metric-axiom violation {axiom_worst:.1e} over 100 triples (tol 1e-12)")


def test_criterion_10_pde_residual_refinement(solved):
    ok = True
    details = []
    for name in ALL_CATALOG:
        entry, grid, u, m, _ = solved.get(name)
        _, grid2, u2, m2, _ = solved.get(name, refine=2)
        (h0, f0), (h1, f1) = (pde_residual(entry.problem, grid, u, m),
                              pde_residual(entry.problem, grid2, u2, m2))
        hjb_f = h0 / h1 if h1 > 1e-12 else np.inf
        fp_f = f0 / f1 if f1 > 1e-12 else np.inf
        ok &= hjb_f >= 1.5 and fp_f >= 1.5
        details.append(f"{name}: hjb x{hjb_f:.1f}, fp x{fp_f:.1f}")
    _report(10, "pde residual refinement", ok,
            "; ".join(details) + " (need >= 1.5)")


def _frozen_flow(problem, grid):
    from mfgkit.core import MeasureFlow
    m0, _ = discretize_initial_density(problem, grid)
    return MeasureFlow.constant_in_time(m0, grid)
