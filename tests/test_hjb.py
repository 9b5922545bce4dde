import numpy as np
import pytest
from scipy.linalg import solve_banded

from mfgkit.core import (LineSystem, MeasureFlow, ProblemSpec, build_grid,
                         discretize_initial_density)
from mfgkit.catalog import capped_quadratic, gaussian_density, get_entry
from mfgkit.hjb import (CFLAdvisory, HjbError, _diffusion_band,
                        _implicit_diffusion_solve, solve_hjb)
from mfgkit.oracle import hopf_cole_value, lq_riccati_value


def _problem(**kw):
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
        gamma1=1.0, gamma2=1.0, lipschitz=30.0)
    base.update(kw)
    return ProblemSpec(**base)


def _mu(problem, grid):
    m0, _ = discretize_initial_density(problem, grid)
    return MeasureFlow.constant_in_time(m0, grid)


def test_constants_solve_the_pde():
    # f = 0, b = 0, g = c: u stays c at every node and time
    p = _problem(drift_b1=lambda t, x, a: np.zeros_like(x),
                 running_f1=lambda t, x, a: np.zeros_like(x),
                 terminal_g=lambda x, m: np.full_like(x, 4.2),
                 closed_form_phi=lambda t, x, p_: np.zeros_like(p_))
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 50)
    u = solve_hjb(p, g, _mu(p, g))
    assert np.allclose(u.values, 4.2, atol=1e-12)
    assert np.allclose(u.du, 0.0, atol=1e-11)


def test_additive_constant_shift_is_exact():
    # measure- and u-independent coefficients: g -> g + c shifts u by exactly c
    G = capped_quadratic(25.0)
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 100)
    p1 = _problem(terminal_g=lambda x, m: G(x))
    p2 = _problem(terminal_g=lambda x, m: G(x) + 2.5)
    u1 = solve_hjb(p1, g, _mu(p1, g))
    u2 = solve_hjb(p2, g, _mu(p2, g))
    assert np.max(np.abs(u2.values - u1.values - 2.5)) <= 1e-10


def test_maximum_principle_bounds():
    # f = 0 with the quadratic control block: min g <= u <= max g
    G = capped_quadratic(25.0)
    e = get_entry("decoupled-hopfcole")
    g = e.grid
    u = solve_hjb(e.problem, g, _mu(e.problem, g))
    gvals = G(g.axis(0))
    assert np.max(u.values) <= np.max(gvals)
    assert np.min(u.values) >= np.min(gvals) - 1e-8


def test_hopf_cole_small_grid():
    # sanity at desk scale; the pinned acceptance grid runs in test_acceptance
    G = capped_quadratic(25.0)
    p = _problem(terminal_g=lambda x, m: G(x))
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 200)
    u = solve_hjb(p, g, _mu(p, g))
    ref = hopf_cole_value(G, g)
    assert np.max(np.abs(u.values - ref.values)[:, 10:-10]) <= 2e-2


def test_lq_riccati_small_grid():
    p = _problem(terminal_g=lambda x, m: 0.5 * x * x)
    g = build_grid(1, -6.0, 6.0, 241, 1.0, 500)
    u = solve_hjb(p, g, _mu(p, g))
    ref = lq_riccati_value(0.5, g)
    assert np.max(np.abs(u.values - ref.values)[:, 10:-10]) <= 1e-2


def test_gradient_matches_finite_difference_of_values():
    e = get_entry("decoupled-hopfcole")
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 100)
    u = solve_hjb(e.problem, g, _mu(e.problem, g))
    for k in (0, 50, 100):
        assert np.allclose(u.du[k], np.gradient(u.values[k], g.h[0]), atol=1e-12)


def test_cfl_advisory_warns_but_completes():
    p = _problem(drift_b0=lambda t, x, m: 30.0 * np.ones_like(x),
                 drift_b1=lambda t, x, a: np.zeros_like(x),
                 running_f1=lambda t, x, a: np.zeros_like(x),
                 closed_form_phi=lambda t, x, p_: np.zeros_like(p_))
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 50)  # dt |b| / h = 6
    with pytest.warns(CFLAdvisory):
        solve_hjb(p, g, _mu(p, g))


def test_nan_reported_with_location():
    p = _problem(terminal_g=lambda x, m: np.where(np.abs(x) < 5.9, 0.0, 1e300))
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(HjbError, match="time index"):
            solve_hjb(p, g, _mu(p, g))


def test_refinement_reduces_hopf_cole_error():
    G = capped_quadratic(25.0)
    p = _problem(terminal_g=lambda x, m: G(x))
    errs = []
    for nx, nt in ((121, 100), (241, 200)):
        g = build_grid(1, -6.0, 6.0, nx, 1.0, nt)
        u = solve_hjb(p, g, _mu(p, g))
        ref = hopf_cole_value(G, g)
        errs.append(np.max(np.abs(u.values - ref.values)[:, 10:-10]))
    assert errs[0] / errs[1] >= 1.8


def test_2d_separable_hopf_cole():
    # G(x1, x2) = G1(x1) + G2(x2) with unit diffusion separates into two 1D
    # problems, so the 2D march must match the sum of 1D oracles
    G1 = capped_quadratic(8.0)
    G2 = capped_quadratic(5.0)
    p = ProblemSpec(
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
    g2 = build_grid(2, -6.0, 6.0, 61, 0.5, 100)
    u2 = solve_hjb(p, g2, _mu(p, g2))
    g1 = build_grid(1, -6.0, 6.0, 61, 0.5, 100)
    r1 = hopf_cole_value(G1, g1)
    r2 = hopf_cole_value(G2, g1)
    ref = r1.values[:, :, None] + r2.values[:, None, :]
    m = 6
    err = np.max(np.abs(u2.values - ref)[:, m:-m, m:-m])
    assert err <= 3e-2


def test_2d_correlated_diffusion_quadratic_exact():
    # constant correlated a with quadratic terminal data: u = x'Cx + 2 tr(aC)(T-t)
    # is linear in t and quadratic in x, so every stencil in the 2D march
    # (including the explicit mixed term and the Lie splitting) is exact
    sig = np.array([[1.2, 0.3], [0.0, 1.0]])
    a = 0.5 * sig @ sig.T
    C = np.array([[0.4, 0.1], [0.1, 0.3]])
    p = ProblemSpec(
        dim=2, horizon=0.5,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, al: np.zeros_like(x),
        diffusion_sigma=lambda t, x, m: sig,
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, al: np.zeros(x.shape[:-1]),
        terminal_g=lambda x, m: np.einsum("...i,ij,...j->...", x, C, x),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: np.zeros_like(p_),
        gamma1=0.3, gamma2=1.0, lipschitz=30.0)
    g = build_grid(2, -4.0, 4.0, 41, 0.5, 40)
    u = solve_hjb(p, g, _mu(p, g))
    x = g.coords()
    quad = np.einsum("...i,ij,...j->...", x, C, x)
    drift_rate = 2.0 * np.trace(a @ C)
    ref = quad[None] + drift_rate * (0.5 - g.times)[:, None, None]
    assert np.max(np.abs(u.values - ref)) <= 1e-10


def test_gradient_bound_stable_under_refinement():
    # sup |Du| finite on solved catalog instances and moves < 5% when the grid
    # is refined
    e = get_entry("decoupled-hopfcole")
    sups = []
    for nx, nt in ((121, 100), (241, 200)):
        g = build_grid(1, -6.0, 6.0, nx, 1.0, nt)
        u = solve_hjb(e.problem, g, _mu(e.problem, g))
        sups.append(np.max(np.abs(u.du)))
    assert np.isfinite(sups[1])
    assert abs(sups[1] - sups[0]) / sups[0] < 0.05


def test_deterministic_resolve():
    e = get_entry("example5-weak")
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 100)
    mu = _mu(e.problem, g)
    u1 = solve_hjb(e.problem, g, mu)
    u2 = solve_hjb(e.problem, g, mu)
    assert np.array_equal(u1.values, u2.values)


def _line_case(dim, nx, varying):
    """(grid, diag_a) at the varying_diffusion fixture's spacing h = 0.3 and
    step dt = 0.1: its sigma in 2D, a = 1 + 0.3 tanh x in 1D, or a constant
    a = 1.3. At a much larger dt a / h^2 the (3,3) reference itself loses
    digits: r = 13 put it 1.9e-13 off a 40-digit solve of the same system."""
    half = 0.15 * (nx - 1)
    g = build_grid(dim, -half, half, nx, 1.0, 10)
    x = g.coords()
    if not varying:
        return g, tuple(np.full(g.shape, 1.3) for _ in range(dim))
    if dim == 1:
        return g, (1.0 + 0.3 * np.tanh(x),)
    return g, ((1.0 + 0.2 * np.tanh(x[..., 0] + 0.5 * x[..., 1])) ** 2,
               (1.0 + 0.2 * np.tanh(x[..., 0])) ** 2)


# the varying_diffusion fixture's two axis sweeps (ids 0 and 1), then every
# line length from the shortest the cubic closure admits, in 1D and 2D
_SWEEP_CASES = [pytest.param(None, None, None, axis, id=str(axis)) for axis in (0, 1)] + [
    pytest.param(dim, nx, varying, axis,
                 id=f"{dim}d-nx{nx}-{'varying' if varying else 'constant'}-axis{axis}")
    for dim in (1, 2) for nx in (5, 6, 7, 8, 11, 61) for varying in (False, True)
    for axis in range(dim)]


@pytest.mark.parametrize("dim,nx,varying,axis", _SWEEP_CASES)
def test_2d_stacked_sweep_matches_per_line_solve(dim, nx, varying, axis, varying_diffusion):
    # the eliminated tridiagonal solve with its wall recovery against the
    # (3,3) band of the cubic closure, line by line
    g, diag_a = varying_diffusion if dim is None else _line_case(dim, nx, varying)
    x = g.coords().reshape(g.shape + (g.dim,))
    a, h, dt = diag_a[axis], g.h[axis], g.dt
    rhs = np.sin(x[..., 0]) * np.cos(0.7 * x[..., -1]) + 0.1 * x[..., 0] ** 2
    out = _implicit_diffusion_solve(LineSystem(_diffusion_band, h, dt), a, rhs, 1e-10,
                                    axis=axis)
    ref = np.empty_like(rhs)
    for j in np.ndindex(g.shape[:-1]):
        line = j[:axis] + (slice(None),) + j[axis:]
        r = a[line] * dt / h ** 2
        band = np.zeros((7, g.nx))
        band[2, 1:] = -r[:-1]
        band[3] = 1.0 + 2.0 * r
        band[4, :-1] = -r[1:]
        # wall rows: u0 - 3u1 + 3u2 - u3 = 0 at each end
        band[3, 0], band[2, 1], band[1, 2], band[0, 3] = 1.0, -3.0, 3.0, -1.0
        band[3, -1], band[4, -2], band[5, -3], band[6, -4] = 1.0, -3.0, 3.0, -1.0
        b = rhs[line].copy()
        b[[0, -1]] = 0.0
        ref[line] = solve_banded((3, 3), band, b)
    np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("dim,varying", [(1, False), (1, True), (2, False), (2, True)],
                         ids=["1d-constant", "1d-varying", "2d-constant", "2d-varying"])
def test_factored_lines_equal_solve_banded(dim, varying, varying_diffusion):
    # the stored factors, reused for a second right-hand side, give the bits
    # of a fresh solve_banded call on the same stacked eliminated band, with
    # the wall rows' rhs slots carrying rhs at nodes 2 and n - 3
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
        for rhs in (np.sin(x.sum(-1)), np.cos(3.0 * x[..., 0]) + x[..., -1] ** 2):
            rhs = rhs.swapaxes(axis, -1).copy()
            rhs[..., [0, -1]] = rhs[..., [2, -3]]
            out = lines.solve(a, rhs)
            band = _diffusion_band(a, h, dt).reshape(3, -1)
            ref = solve_banded((1, 1), band, rhs.ravel()).reshape(rhs.shape)
            assert np.array_equal(out, ref)


def test_vanishing_diffusion_next_to_a_wall_raises():
    # the wall elimination divides by a at nodes 2 and n - 3, so a sigma that
    # vanishes there breaks (B2) loudly instead of dividing by zero
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 10)
    x2 = g.axis(0)[2]
    p = _problem(diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.abs(x - x2))
    with pytest.raises(HjbError, match=r"node \(2,\) .*assumption \(B2\), uniform ellipticity"):
        solve_hjb(p, g, _mu(p, g))


@pytest.mark.parametrize("nx", [3, 4])
def test_lines_shorter_than_five_nodes_raise(nx):
    # each wall closure reaches four nodes, so shorter lines cannot carry it
    g = build_grid(1, -6.0, 6.0, nx, 1.0, 4)
    p = _problem()
    with pytest.raises(HjbError, match=f"at least 5 nodes, got {nx}"):
        solve_hjb(p, g, _mu(p, g))


def test_linear_solve_residual_guard_raises(monkeypatch):
    # a tolerance below round-off cannot be met by any line's residual
    from mfgkit import hjb
    monkeypatch.setattr(hjb, "LINEAR_SOLVER_TOL", 1e-30)
    G = capped_quadratic(25.0)
    p = _problem(terminal_g=lambda x, m: G(x))
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 10)
    with pytest.raises(HjbError, match="residual"):
        solve_hjb(p, g, _mu(p, g))


def _problem_2d(**kw):
    # the separable quadratic-control problem of test_2d_separable_hopf_cole
    base = dict(
        dim=2, horizon=1.0,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: a,
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.eye(2),
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: capped_quadratic(8.0)(x[..., 0]) + 0.5 * x[..., 1] ** 2,
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: -p_,
        gamma1=1.0, gamma2=1.0, lipschitz=15.0)
    base.update(kw)
    return ProblemSpec(**base)


# anisotropic, so h tells the two axes' line systems apart
_GRID_2D = build_grid(2, (-3.0, -2.0), (3.0, 2.0), 21, 1.0, 10)


@pytest.mark.parametrize("dim", [1, 2])
def test_cfl_advisory_reports_the_max_over_every_sweep(dim, monkeypatch):
    # dt |b_d| / h_d written out over every axis and every sweep of every
    # step, b = b0 + alpha varying in x, t and each sweep's lagged control
    from mfgkit import hjb
    sweeps, minimize = [], hjb.minimize_H

    def recorded(problem, evaluator, t, x, p):
        alpha = minimize(problem, evaluator, t, x, p)
        sweeps.append((t, alpha))
        return alpha

    monkeypatch.setattr(hjb, "minimize_H", recorded)
    if dim == 1:
        p = _problem(drift_b0=lambda t, x, m: 1.2 * x * (1.0 + t),
                     terminal_g=lambda x, m: capped_quadratic(25.0)(x))
        g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    else:
        p = _problem_2d(drift_b0=lambda t, x, m: np.stack(
            [8.0 * np.tanh(x[..., 0]), 3.0 * np.tanh(x[..., 1] - t)], axis=-1))
        g = _GRID_2D
    with pytest.warns(CFLAdvisory) as rec:
        solve_hjb(p, g, _mu(p, g))
    x = g.coords()
    ref = 0.0
    for t, alpha in sweeps:
        b = np.asarray(p.drift_b0(t, x, None) + p.drift_b1(t, x, alpha))
        b = b.reshape(g.shape + (dim,))
        for d in range(dim):
            ref = max(ref, float(np.max(np.abs(b[..., d]))) * g.dt / g.h[d])
    assert len(sweeps) == 2 * g.nt
    advisory, = [w.message for w in rec if w.category is CFLAdvisory]
    assert advisory.cfl == ref > 1.0
    assert str(advisory) == (f"explicit drift step reached dt|b|/h = {ref:.2f} > 1; "
                             "results may be inaccurate (diffusion remains implicit)")


@pytest.mark.parametrize("axis", [0, 1])
def test_2d_residual_guard_raises_on_either_axis(axis, monkeypatch):
    # a line solution off by 1e-6 at one node, on one axis only, fails the
    # guard at the default tolerance
    g = _GRID_2D
    solve = LineSystem.solve

    def off_at_one_node(self, a, rhs):
        out = solve(self, a, rhs)
        if self._args[0] == g.h[axis]:
            out[3, 7] += 1e-6  # line 3, node 7 (line axis last)
        return out

    p = _problem_2d()
    solve_hjb(p, g, _mu(p, g))  # the unperturbed march passes the guard
    monkeypatch.setattr(LineSystem, "solve", off_at_one_node)
    with pytest.raises(HjbError, match=r"linear solve residual \S+ exceeds tolerance"):
        solve_hjb(p, g, _mu(p, g))


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_message_names_the_step_and_the_first_node(dim):
    # a NaN running cost at one step's time: every line solve couples all of
    # its nodes, so the whole level turns NaN and the first node is the origin
    k = 7
    nan_at_k = lambda t, shape: np.full(shape, np.nan if t == g.time(k) else 0.0)  # noqa: E731
    if dim == 1:
        g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
        p = _problem(running_f0=lambda t, x, m: nan_at_k(t, x.shape))
    else:
        g = _GRID_2D
        p = _problem_2d(running_f0=lambda t, x, m: nan_at_k(t, x.shape[:-1]))
    with pytest.raises(HjbError) as err:
        solve_hjb(p, g, _mu(p, g))
    assert str(err.value) == (f"NaN in HJB solution at time index {k}, "
                              f"node {(0,) * dim}")
