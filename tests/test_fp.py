from collections import Counter

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mfgkit.core import LineSystem, MeasureFlow, MeasureView, ProblemSpec, build_grid, \
    discretize_initial_density
from mfgkit.catalog import gaussian_density, heat_check_problem
from mfgkit.fp import FpError, _axis_step, _diffusion_band, solve_fp
from mfgkit.hjb import solve_hjb, HjbSolverConfig
from mfgkit.measure import d1_grid
from mfgkit.oracle import heat_flow_density


def _problem(**kw):
    base = dict(
        dim=1, horizon=1.0,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: np.zeros_like(x),
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.ones_like(x),
        running_f0=lambda t, x, m: np.zeros_like(x),
        running_f1=lambda t, x, a: np.zeros_like(x),
        terminal_g=lambda x, m: np.zeros_like(x),
        initial_density=gaussian_density(0.0, 0.25),
        closed_form_phi=lambda t, x, p: np.zeros_like(p),
        gamma1=1.0, gamma2=1.0, lipschitz=2.0)
    base.update(kw)
    return ProblemSpec(**base)


@pytest.mark.parametrize("scheme", ["exponential"])
def test_heat_kernel_agreement(scheme):
    problem, grid = heat_check_problem()
    flow = solve_fp(problem, grid, None, None)
    ref = heat_flow_density(0.0, 0.25, np.sqrt(2.0), grid)
    worst = max(d1_grid(flow.densities[k], ref.densities[k], grid)
                for k in range(0, grid.nt + 1, 5))
    assert worst <= 2e-3


def test_constant_drift_first_moment():
    p = _problem(drift_b0=lambda t, x, m: 0.9 * np.ones_like(x),
                 diffusion_sigma=lambda t, x, m: 0.3 * np.ones_like(x),
                 gamma1=0.045, gamma2=0.045)
    g = build_grid(1, -6.0, 6.0, 241, 1.0, 400)
    flow = solve_fp(p, g, None, None)
    mean_T = MeasureView(flow.densities[-1], g).mean
    assert mean_T == pytest.approx(0.9, abs=1e-3)


@pytest.mark.parametrize("scheme", ["exponential"])
def test_mass_conserved_to_round_off(scheme):
    p = _problem(drift_b0=lambda t, x, m: np.sin(x))
    g = build_grid(1, -6.0, 6.0, 161, 1.0, 200)
    flow = solve_fp(p, g, None, None)
    assert flow.mass_drift.max() <= 1e-8
    flow.validate()


def test_positivity_without_clipping_under_cfl():
    p = _problem(drift_b0=lambda t, x, m: np.tanh(-x))
    g = build_grid(1, -6.0, 6.0, 161, 1.0, 200)  # dt max|b| / h = 0.067
    flow = solve_fp(p, g, None, None)
    assert flow.min_density.min() >= 0.0


def test_negativity_aborts():
    # violent drift far beyond the CFL bound destabilizes the explicit advection
    p = _problem(drift_b0=lambda t, x, m: 200.0 * np.sign(np.sin(5 * x)),
                 initial_density=gaussian_density(0.0, 0.04))
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 40)
    with pytest.raises(FpError):
        solve_fp(p, g, None, None)


def test_frozen_vs_self_coupled_paths():
    # measure-independent coefficients: frozen-flow and self-coupled runs agree
    p = _problem(drift_b0=lambda t, x, m: 0.3 * np.tanh(-x))
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 100)
    m0, _ = discretize_initial_density(p, g)
    frozen = solve_fp(p, g, MeasureFlow.constant_in_time(m0, g), None)
    self_coupled = solve_fp(p, g, None, None)
    assert np.allclose(frozen.densities, self_coupled.densities, atol=1e-13)


def test_mean_coupled_drift_runs_and_conserves():
    p = _problem(drift_b0=lambda t, x, view: 0.5 * np.tanh(view.mean - x))
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 100)
    flow = solve_fp(p, g, None, None)
    assert flow.mass_drift.max() <= 1e-8
    assert flow.min_density.min() >= -1e-12


def test_duality_with_backward_equation():
    # frozen linear case: sum u(0) m(0) - sum u(T) m(T) = sum_k sum_x f m h dt,
    # the discrete integration by parts underlying the verification argument
    # (d/dt int u m = -int f m when u solves the backward equation with source f)
    b_field = lambda t, x, m: 0.4 * np.sin(x)
    f_field = lambda t, x, m: np.cos(0.5 * x)
    g = build_grid(1, -6.0, 6.0, 321, 1.0, 800)
    G = lambda x: np.tanh(x)
    p_back = _problem(drift_b0=b_field, running_f0=f_field,
                      terminal_g=lambda x, m: G(x))
    m0, _ = discretize_initial_density(p_back, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    u = solve_hjb(p_back, g, mu, HjbSolverConfig(picard_inner_iters=1))
    flow = solve_fp(p_back, g, mu, None)
    h = g.h[0]
    lhs = np.sum(u.values[0] * flow.densities[0]) * h \
        - np.sum(u.values[-1] * flow.densities[-1]) * h
    rhs = sum(np.sum(f_field(g.time(k), g.axis(0), None) * flow.densities[k]) * h * g.dt
              for k in range(g.nt))
    assert abs(lhs - rhs) <= 1e-3


def test_weak_form_residual_shrinks_under_refinement():
    # residual of the weak formulation against a compactly supported C^2 test
    # function (analytic derivatives), evaluated on the computed flow
    def weak_residual(nx, nt):
        p = _problem(drift_b0=lambda t, x, m: 0.5 * np.tanh(-x))
        g = build_grid(1, -6.0, 6.0, nx, 1.0, nt)
        flow = solve_fp(p, g, None, None)
        x = g.axis(0)
        s2 = (x / 4.0) ** 2
        inside = s2 < 1.0
        phi = np.where(inside, (1.0 - s2) ** 3, 0.0)
        dphi = np.where(inside, -(3.0 * x / 8.0) * (1.0 - s2) ** 2, 0.0)
        d2phi = np.where(inside,
                         -(3.0 / 8.0) * (1.0 - s2) * ((1.0 - s2) - x * x / 4.0),
                         0.0)
        total = np.sum(phi * flow.densities[0]) * g.h[0] \
            - np.sum(phi * flow.densities[-1]) * g.h[0]
        for k in range(g.nt):
            b = 0.5 * np.tanh(-x)
            total += np.sum((d2phi + b * dphi) * flow.densities[k]) * g.h[0] * g.dt
        return abs(total)

    r_coarse = weak_residual(41, 25)
    r_fine = weak_residual(161, 100)
    assert r_fine < r_coarse
    assert r_fine <= 5e-3


def test_2d_product_gaussian_heat():
    p = ProblemSpec(
        dim=2, horizon=0.25,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: np.zeros_like(x),
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.eye(2),
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, a: np.zeros(x.shape[:-1]),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: np.zeros_like(p_),
        gamma1=1.0, gamma2=1.0, lipschitz=2.0)
    g = build_grid(2, -6.0, 6.0, 121, 0.25, 100)
    flow = solve_fp(p, g, None, None)
    ref = heat_flow_density([0.0, 0.0], 0.25, np.sqrt(2.0), g)
    assert flow.mass_drift.max() <= 1e-8
    assert flow.min_density.min() >= -1e-12
    err = np.max(np.abs(flow.densities[-1] - ref.densities[-1]))
    assert err <= 2e-3  # about 1% of the final peak; first order in dt


def test_2d_cross_term_mixed_moment_growth():
    # constant correlated a: d/dt E[x1 x2] = 2 a12, pinning the sign and scale
    # of the explicit mixed-flux contribution
    sig = np.array([[1.2, 0.3], [0.0, 1.0]])
    a = 0.5 * sig @ sig.T
    p = ProblemSpec(
        dim=2, horizon=0.5,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, al: np.zeros_like(x),
        diffusion_sigma=lambda t, x, m: sig,
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, al: np.zeros(x.shape[:-1]),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: np.zeros_like(p_),
        gamma1=0.3, gamma2=1.0, lipschitz=2.0)
    g = build_grid(2, -7.0, 7.0, 141, 0.5, 100)
    flow = solve_fp(p, g, None, None)
    c = g.coords()
    w = flow.densities[-1] * g.cell_volume
    mixed = float(np.sum(w * c[..., 0] * c[..., 1]))
    assert mixed == pytest.approx(2.0 * a[0, 1] * 0.5, abs=2e-3)


def test_2d_cross_term_conserves_mass_and_positivity():
    sig = np.array([[1.2, 0.3], [0.0, 1.0]])
    p = ProblemSpec(
        dim=2, horizon=0.25,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: np.zeros_like(x),
        diffusion_sigma=lambda t, x, m: sig,
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, a: np.zeros(x.shape[:-1]),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: np.zeros_like(p_),
        gamma1=0.4, gamma2=0.85, lipschitz=2.0)
    g = build_grid(2, -6.0, 6.0, 61, 0.25, 50)
    flow = solve_fp(p, g, None, None)
    assert flow.mass_drift.max() <= 1e-8
    assert flow.min_density.min() >= -1e-9  # cross term is explicit


@pytest.mark.parametrize("axis", [0, 1], ids=["exponential-0", "exponential-1"])
def test_2d_stacked_sweep_matches_per_line_solve(axis, varying_diffusion):
    # zero drift: the fitted flux diffuses with the face value a_face and
    # carries the drift -a_x as an explicit fitted flux along each line
    g, diag_a = varying_diffusion
    x = g.coords()
    a, h, dt = diag_a[axis], g.h[axis], g.dt
    m = np.exp(-((x - 0.3) ** 2).sum(-1))
    out = _axis_step(LineSystem(_diffusion_band, h, dt), m, np.zeros_like(m), a,
                     h, dt, axis)
    ref = np.empty_like(m)
    r = dt / h ** 2
    for j in range(g.nx):
        line = (slice(None), j) if axis == 0 else (j, slice(None))
        al, rhs = a[line], m[line].copy()
        ab = np.zeros((3, g.nx))
        a_face = 0.5 * (al[1:] + al[:-1])
        z = -(al[1:] - al[:-1]) / a_face  # face Peclet number of the drift -a_x
        with np.errstate(invalid="ignore"):
            bm, bp = (np.where(s == 0, 1.0, s / np.expm1(s)) for s in (-z, z))
        flux = a_face / h * ((bm - 1.0) * rhs[:-1] - (bp - 1.0) * rhs[1:])
        rhs[:-1] -= dt / h * flux
        rhs[1:] += dt / h * flux
        ab[0, 1:] = ab[2, :-1] = -r * a_face
        ab[1] = 1.0
        ab[1, :-1] += r * a_face
        ab[1, 1:] += r * a_face
        ref[line] = solve_banded((1, 1), ab, rhs)
    np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("scheme", ["exponential"])
@pytest.mark.parametrize("dim,varying", [(1, False), (1, True), (2, False), (2, True)],
                         ids=["1d-constant", "1d-varying", "2d-constant", "2d-varying"])
def test_factored_lines_equal_solve_banded(dim, varying, scheme, varying_diffusion):
    # the stored factors, reused for a second right-hand side, give the bits
    # of a fresh solve_banded call on the same stacked tridiagonal band
    g, diag_a = varying_diffusion
    if dim == 1:
        g = build_grid(1, -3.0, 3.0, 41, 1.0, 10)
        diag_a = (1.0 + 0.3 * np.tanh(g.axis(0)),)
    if not varying:
        diag_a = tuple(np.full(g.shape, 1.3) for _ in diag_a)
    x = g.coords().reshape(g.shape + (dim,))
    for axis, a in enumerate(diag_a):
        h, dt = g.h[axis], g.dt
        lines = LineSystem(_diffusion_band, h, dt)
        a = a.swapaxes(axis, -1)
        for rhs in (np.exp(-(x ** 2).sum(-1)), 1.0 + np.cos(3.0 * x[..., 0]) ** 2):
            rhs = rhs.swapaxes(axis, -1)
            out = lines.solve(a, rhs)
            band = _diffusion_band(a, h, dt).reshape(3, -1)
            ref = solve_banded((1, 1), band, rhs.ravel()).reshape(rhs.shape)
            assert np.array_equal(out, ref)


def _sigma_problem(dim, t_dependent):
    c = (lambda t: np.sqrt(2.0) * (1.0 + 0.1 * t)) if t_dependent else \
        (lambda t: np.sqrt(2.0))
    if dim == 1:
        return _problem(diffusion_sigma=lambda t, x, m: c(t) * np.ones_like(x))
    zero = lambda x: np.zeros(x.shape[:-1])  # noqa: E731
    return _problem(dim=2, diffusion_sigma=lambda t, x, m: c(t) * np.eye(2),
                    running_f0=lambda t, x, m: zero(x),
                    running_f1=lambda t, x, a: zero(x),
                    terminal_g=lambda x, m: zero(x),
                    initial_density=lambda x: np.exp(-(x ** 2).sum(-1)))


@pytest.mark.parametrize("solver", ["hjb", "fp"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("t_dependent", [False, True], ids=["constant", "t-dependent"])
def test_solvers_factor_once_per_axis_per_diffusion(solver, dim, t_dependent, monkeypatch):
    # each call builds one line system per axis; it refactors only when the
    # level's diffusion array changes, so once per call for a constant sigma
    # and at every level (both HJB inner sweeps share one) for sigma(t)
    factored = Counter()
    factor = LineSystem._factor

    def counted(self, a):
        factored[id(self)] += 1
        factor(self, a)

    monkeypatch.setattr(LineSystem, "_factor", counted)
    p = _sigma_problem(dim, t_dependent)
    g = build_grid(dim, -3.0, 3.0, 21 if dim == 1 else 11, 1.0, 10)
    if solver == "hjb":
        solve_hjb(p, g, MeasureFlow.constant_in_time(discretize_initial_density(p, g)[0], g))
    else:
        solve_fp(p, g, None, None)
    assert sorted(factored.values()) == [g.nt if t_dependent else 1] * dim


def test_renormalization_flag_and_drift_reporting():
    # every level is renormalized; the mass drift reported is the one before
    # renormalization, which the conservative fluxes keep at round-off
    p = _problem(drift_b0=lambda t, x, m: 0.3 * np.cos(x))
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 100)
    flow = solve_fp(p, g, None, None)
    flow.validate()
    assert flow.mass_drift.max() <= 1e-10


def test_frozen_flow_runs_one_sweep(monkeypatch):
    # one sweep per step: solve_fp builds one StepCoefficients per step, from
    # the frozen flow's view or, self-coupled, from the current density
    from mfgkit import fp
    p = _problem(drift_b0=lambda t, x, view: 0.5 * np.tanh(view.mean - x))
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 40)
    mu = solve_fp(p, g, None, None)
    built = []

    class Counted(fp.StepCoefficients):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(fp, "StepCoefficients", Counted)
    frozen = solve_fp(p, g, mu, None)
    assert built == [g.time(k) for k in range(g.nt)]
    built.clear()
    solve_fp(p, g, None, None)
    assert built == [g.time(k) for k in range(g.nt)]
    # frozen at the self-coupled run's own flow, the march repeats its views
    assert np.array_equal(frozen.densities, mu.densities)


def _correlated_2d(sigma12):
    def sigma(t, x, m):
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0] + 0.5 * x[..., 1]))
        sig[..., 0, 1] = sigma12 * (1.0 + 0.5 * np.tanh(x[..., 1]))
        sig[..., 1, 1] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0]))
        return sig
    return ProblemSpec(
        dim=2, horizon=0.25, drift_b0=lambda t, x, m: 0.3 * np.tanh(m.mean - x),
        drift_b1=lambda t, x, a: a, diffusion_sigma=sigma,
        running_f0=lambda t, x, m: 0.1 * np.tanh(((x - m.mean) ** 2).sum(-1)),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1)),
        closed_form_phi=lambda t, x, q: -q, gamma1=0.5, gamma2=3.0)


def test_mixed_flux_negativity_names_the_mixed_term():
    # 21^2 x 20 on [-3, 3]^2: the explicit mixed-term flux of the correlated
    # diffusion drives tail densities below -NEGATIVITY_TOL; without the
    # correlation the same march stays positive, so the advective CFL bound
    # is not the cause
    g = build_grid(2, -3.0, 3.0, 21, 0.25, 20)
    with pytest.raises(FpError, match="mixed-term flux") as err:
        solve_fp(_correlated_2d(0.3), g, None, None)
    assert "CFL" not in str(err.value)
    flow = solve_fp(_correlated_2d(0.0), g, None, None)
    assert flow.min_density.min() >= 0.0


def test_clipped_level_is_renormalized_by_its_clipped_mass(monkeypatch):
    # an entry in [-NEGATIVITY_TOL, 0) is clipped to zero and the level is
    # divided by the clipped level's mass, not by the mass the drift check read
    solved = []
    solve = LineSystem.solve

    def dip(self, a, rhs):
        out = solve(self, a, rhs)
        out[0] = -5e-13  # the wall node, where the density is about 1e-18
        solved.append(out.copy())
        return out

    monkeypatch.setattr(LineSystem, "solve", dip)
    p = _problem(drift_b0=lambda t, x, m: 0.3 * np.cos(x))
    g = build_grid(1, -6.0, 6.0, 121, 0.1, 10)
    flow = solve_fp(p, g, None, None)
    assert len(solved) == g.nt and np.all(flow.min_density[1:] == -5e-13)
    for k, m_next in enumerate(solved):
        clipped = np.maximum(m_next, 0.0)
        assert np.array_equal(flow.densities[k + 1],
                              clipped / (clipped.sum() * g.cell_volume))


def test_non_finite_density_names_the_level_and_the_first_node():
    # a NaN drift at one step's time: the line solve couples every node, so
    # the whole next level is NaN and the first node is the origin
    k = 3
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 10)
    p = _problem(drift_b0=lambda t, x, m: np.full_like(x, np.nan if t == g.time(k) else 0.0))
    with pytest.raises(FpError) as err:
        solve_fp(p, g, None, None)
    assert str(err.value) == f"non-finite density at time index {k + 1}, node (0,)"
