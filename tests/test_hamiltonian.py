import numpy as np
import pytest

from mfgkit.core import ControlSpace, MeasureView, ProblemSpec, build_grid
from mfgkit.catalog import capped_quadratic, gaussian_density, get_entry
from mfgkit.hamiltonian import (PhiEvaluator, check_assumptions, evaluate_H,
                                minimize_H)


def _quadratic_problem(**kw):
    base = dict(
        dim=1, horizon=1.0,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: a,
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.ones_like(x),
        running_f0=lambda t, x, m: np.zeros_like(x),
        running_f1=lambda t, x, a: 0.5 * a * a,
        terminal_g=lambda x, m: np.zeros_like(x),
        initial_density=gaussian_density(0.0, 0.25),
        closed_form_phi=lambda t, x, p: -p,
        gamma1=1.0, gamma2=1.0, lipschitz=1.0)
    base.update(kw)
    return ProblemSpec(**base)


@pytest.fixture
def view():
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 4)
    m = gaussian_density(0.0, 0.25)(g.axis(0))
    return MeasureView(m / (m.sum() * g.h[0]), g)


def test_evaluate_H_quadratic_example(view):
    # b = alpha, f = |alpha|^2/2, p = 1, alpha = 2 -> <1,2> + 2 = 4
    p = _quadratic_problem()
    x = np.array([0.3])
    assert evaluate_H(p, 0.1, x, view, np.array([2.0]), np.array([1.0]))[0] \
        == pytest.approx(4.0, abs=1e-14)


def test_evaluate_H_zero(view):
    p = _quadratic_problem()
    x = np.array([0.0])
    z = np.array([0.0])
    assert evaluate_H(p, 0.0, x, view, z, z)[0] == pytest.approx(0.0, abs=1e-15)


def test_evaluate_H_definition_consistency(view, rng):
    p = _quadratic_problem(
        drift_b0=lambda t, x, m: 0.2 * np.tanh(x),
        running_f0=lambda t, x, m: 0.1 * x * x)
    x = rng.uniform(-3, 3, 20)
    al = rng.normal(size=20)
    pv = rng.normal(size=20)
    h = evaluate_H(p, 0.3, x, view, al, pv)
    raw = pv * (p.drift_b0(0.3, x, view) + p.drift_b1(0.3, x, al)) \
        + p.running_f0(0.3, x, view) + p.running_f1(0.3, x, al)
    assert np.allclose(h, raw, atol=1e-12)


def test_minimize_closed_form_is_minus_p(rng):
    p = _quadratic_problem()
    ev = PhiEvaluator.for_problem(p)
    assert ev.mode == "closed_form"
    pv = rng.normal(size=50)
    out = minimize_H(p, ev, 0.2, rng.uniform(-5, 5, 50), pv)
    assert np.array_equal(out, -pv)


def test_minimize_zero_p():
    p = _quadratic_problem()
    ev = PhiEvaluator.for_problem(p)
    assert minimize_H(p, ev, 0.0, np.array([1.0]), np.array([0.0]))[0] == 0.0


def test_minimize_grid_search_within_half_spacing(rng):
    cs = ControlSpace.box(-4.0, 4.0, 81)  # spacing 0.1
    p = _quadratic_problem(closed_form_phi=None, control_space=cs)
    ev = PhiEvaluator.for_problem(p)
    assert ev.mode == "grid_search"
    pv = rng.uniform(-3, 3, 40)
    out = minimize_H(p, ev, 0.1, rng.uniform(-5, 5, 40), pv)
    assert np.all(np.abs(out - (-pv)) <= 0.05 + 1e-12)


def test_minimize_grid_search_clamps_to_box(rng):
    cs = ControlSpace.box(-1.0, 1.0, 21)
    p = _quadratic_problem(closed_form_phi=None, control_space=cs)
    ev = PhiEvaluator.for_problem(p)
    out = minimize_H(p, ev, 0.0, np.array([0.0]), np.array([5.0]))
    assert out[0] == -1.0  # -p clamped to the box edge


def test_minimize_grid_search_exhaustive(rng):
    cs = ControlSpace.box(-2.0, 2.0, 17)
    p = _quadratic_problem(closed_form_phi=None, control_space=cs)
    ev = PhiEvaluator.for_problem(p)
    x = rng.uniform(-1, 1, 10)
    pv = rng.normal(size=10)
    out = minimize_H(p, ev, 0.5, x, pv)
    best = pv * out + 0.5 * out ** 2
    for a in cs.axes()[0]:
        assert np.all(best <= pv * a + 0.5 * a * a + 1e-12)


def test_minimize_tie_break_lexicographic():
    # objective constant in the control: smallest grid point must win
    cs = ControlSpace.box(-2.0, 2.0, 9)
    p = _quadratic_problem(closed_form_phi=None, control_space=cs,
                           drift_b1=lambda t, x, a: np.zeros_like(x),
                           running_f1=lambda t, x, a: np.zeros_like(x))
    ev = PhiEvaluator.for_problem(p)
    out = minimize_H(p, ev, 0.0, np.array([0.0]), np.array([1.0]))
    assert out[0] == -2.0


def test_minimize_grid_search_2d_is_the_nearest_lattice_point(rng):
    # <p, a> + |a|^2 / 2 separates by coordinate: the 2D grid search returns
    # the lattice point nearest to -p on each axis, clamped to the box, and a
    # tie between two lattice points goes to the lower one
    cs = ControlSpace.box([-2.0, -2.0], [2.0, 2.0], 9)  # spacing 0.5
    p = ProblemSpec(
        dim=2, horizon=1.0,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: a,
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.eye(2),
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1)),
        control_space=cs)
    ev = PhiEvaluator.for_problem(p)
    assert ev.mode == "grid_search"
    ties = np.array([[-0.75, 0.25], [0.25, -1.25], [-0.75, -0.75]])
    pv = np.concatenate([ties, rng.uniform(-3.0, 3.0, (40, 2))])
    out = minimize_H(p, ev, 0.3, rng.uniform(-4.0, 4.0, pv.shape), pv)
    lattice = cs.axes()[0]
    nearest = lattice[np.argmin(np.abs(lattice - (-pv)[..., None]), axis=-1)]
    assert np.array_equal(out, nearest)
    assert out[:3].tolist() == [[0.5, -0.5], [-0.5, 1.0], [0.5, 0.5]]


def test_argmin_invariant_to_f0_shifts(view, rng):
    p1 = _quadratic_problem()
    p2 = _quadratic_problem(running_f0=lambda t, x, m: 3.0 + np.sin(x))
    ev = PhiEvaluator.for_problem(p1)
    x = rng.uniform(-4, 4, 30)
    pv = rng.normal(size=30)
    assert np.array_equal(minimize_H(p1, ev, 0.1, x, pv),
                          minimize_H(p2, ev, 0.1, x, pv))


def test_quadratic_infimum_identity(view, rng):
    # H at the minimizer equals <p,b0> + f0 - |p|^2/2 for the quadratic block
    p = _quadratic_problem(
        drift_b0=lambda t, x, m: 0.3 * np.cos(x),
        running_f0=lambda t, x, m: 0.2 * x)
    ev = PhiEvaluator.for_problem(p)
    x = rng.uniform(-4, 4, 30)
    pv = rng.normal(size=30)
    alpha = minimize_H(p, ev, 0.4, x, pv)
    h = evaluate_H(p, 0.4, x, view, alpha, pv)
    expect = pv * p.drift_b0(0.4, x, view) + p.running_f0(0.4, x, view) - 0.5 * pv ** 2
    assert np.allclose(h, expect, atol=1e-10)


def test_check_assumptions_unit_ellipticity():
    e = get_entry("decoupled-hopfcole")
    rep = check_assumptions(e.problem, e.grid, n_samples=100, seed=1)
    b2 = rep.checks["B2"]
    assert b2.passed
    # sigma = sqrt(2) I makes the rayleigh quotient exactly 1 = gamma1 = gamma2
    assert abs(b2.margin) <= 1e-12


def test_check_assumptions_quadratic_growth_flag():
    ok = _quadratic_problem(lipschitz=2.0)
    rep = check_assumptions(ok, build_grid(1, -6, 6, 61, 1.0, 4), 100, seed=2)
    assert rep.checks["B3"].passed
    bad = _quadratic_problem(lipschitz=0.1)  # f = |a|^2/2 needs L >= 1/2
    rep2 = check_assumptions(bad, build_grid(1, -6, 6, 61, 1.0, 4), 100, seed=2)
    assert not rep2.checks["B3"].passed
    assert not rep2.all_passed


def test_check_assumptions_phi_lipschitz_estimate():
    e = get_entry("decoupled-hopfcole")
    rep = check_assumptions(e.problem, e.grid, n_samples=100, seed=3)
    b7 = rep.checks["B7"]
    assert b7.checked and b7.passed
    # difference quotient of phi = -p in p is exactly 1
    quot = float(b7.detail.split("quotient ")[1].split(",")[0])
    assert quot == pytest.approx(1.0, abs=1e-6)


def test_check_assumptions_grid_search_b7_unchecked():
    cs = ControlSpace.box(-2.0, 2.0, 9)
    p = _quadratic_problem(closed_form_phi=None, control_space=cs)
    rep = check_assumptions(p, build_grid(1, -6, 6, 61, 1.0, 4), 50, seed=4)
    assert not rep.checks["B7"].checked
    assert "unchecked" in rep.checks["B7"].detail


def test_check_assumptions_deterministic():
    e = get_entry("example5-weak")
    r1 = check_assumptions(e.problem, e.grid, n_samples=64, seed=9)
    r2 = check_assumptions(e.problem, e.grid, n_samples=64, seed=9)
    assert r1.to_dict() == r2.to_dict()
    # the two largest seeds the CLI accepts key distinct streams
    top = [check_assumptions(e.problem, e.grid, n_samples=64, seed=2 ** 64 - j)
           for j in (1, 2)]
    assert top[0].to_dict()["checks"] != top[1].to_dict()["checks"]


def _separable_hopf_cole_2d():
    G1, G2 = capped_quadratic(8.0), capped_quadratic(5.0)
    return ProblemSpec(
        dim=2, horizon=0.5,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: a,
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.eye(2),
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: G1(x[..., 0]) + G2(x[..., 1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: -p_,
        gamma1=1.0, gamma2=1.0, lipschitz=15.0)


_CHECK_NAMES = ("B1 drift/cost split", "B2 uniform ellipticity", "B3 growth bounds",
                "B4 Lipschitz coefficients", "B5 terminal data regularity",
                "B6 initial density", "B7 minimizer regularity")
_PINNED_CHECKS = {  # (margin, detail) of B1 to B7 at 64 samples, seed 5
    "example5-weak": [
        (None, "b and f are only evaluated through the b0+b1 / f0+f1 split"),
        (-2.220446049250313e-16, "rayleigh quotient in [1, 1] vs [1, 1]"),
        (25.0, "worst at t=0.687, |alpha|=3.473: f/b/a margins 333/113/25"),
        (22.064669722989326, "worst sampled difference quotient 3.93533 vs L=26"),
        (10.609594015353757, "max |g| 15.39, max |Dg| 3.935 vs L=26"),
        (1e-06, "box mass leak 0.000e+00, second moment 0.5"),
        (24.999999999999368, "phi/p difference quotient 1, growth ratio 0.8683 "
                             "vs L=26; argmin spot-check passed")],
    "separable-2d": [
        (None, "b and f are only evaluated through the b0+b1 / f0+f1 split"),
        (-4.440892098500626e-16, "rayleigh quotient in [1, 1] vs [1, 1]"),
        (14.0, "worst at t=0.057, |alpha|=2.162: f/b/a margins 82.8/45.3/14"),
        (12.774123870538437, "worst sampled difference quotient 2.22588 vs L=15"),
        (2.4416186408717913, "max |g| 12.56, max |Dg| 2.226 vs L=15"),
        (9.999999997779553e-07, "box mass leak 2.220e-16, second moment 0.5"),
        (13.99999999999952, "phi/p difference quotient 1, growth ratio 0.8542 "
                            "vs L=15; argmin spot-check passed")],
}


@pytest.mark.parametrize("case", sorted(_PINNED_CHECKS))
def test_check_assumptions_pinned_report(case):
    # literal margins and details pin the draws and their order (the 2D B2
    # directions included) and every per-check reduction; the B3 detail names
    # the last sample that reaches the running minimum
    if case == "example5-weak":
        e = get_entry(case)
        problem, grid = e.problem, e.grid
    else:
        problem, grid = _separable_hopf_cole_2d(), build_grid(2, -6.0, 6.0, 61, 0.5, 100)
    checks = {f"B{j + 1}": {"name": name, "checked": True, "passed": True,
                            "margin": margin, "detail": detail}
              for j, (name, (margin, detail))
              in enumerate(zip(_CHECK_NAMES, _PINNED_CHECKS[case]))}
    report = check_assumptions(problem, grid, n_samples=64, seed=5)
    assert report.to_dict() == {"n_samples": 64, "seed": 5, "all_passed": True,
                                "checks": checks}


def test_minimize_closed_form_requested_but_absent():
    cs = ControlSpace.box(-1.0, 1.0, 5)
    p = _quadratic_problem(closed_form_phi=None, control_space=cs)
    ev = PhiEvaluator(mode="closed_form")
    with pytest.raises(ValueError, match="absent"):
        minimize_H(p, ev, 0.0, np.array([0.0]), np.array([1.0]))
