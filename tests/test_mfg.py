import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfgkit.core import MeasureFlow, build_grid, discretize_initial_density
from mfgkit.catalog import get_entry
from mfgkit.fp import solve_fp
from mfgkit.hjb import solve_hjb
from mfgkit.measure import flow_distance, flow_regularity
from mfgkit.mfg import (FixedPointConfig, apply_phi, feedback_policy,
                        pde_residual, solve_mfg)
from mfgkit.oracle import lq_riccati_value


def _small_grid(entry, nx=121, nt=100):
    g = entry.grid
    return build_grid(g.dim, g.x_min[0], g.x_max[0], nx, g.horizon, nt)


def test_apply_phi_constant_for_decoupled():
    e = get_entry("decoupled-hopfcole")
    g = _small_grid(e)
    m0, _ = discretize_initial_density(e.problem, g)
    mu1 = MeasureFlow.constant_in_time(m0, g)
    shifted = np.roll(m0, 7)
    shifted /= shifted.sum() * g.h[0]
    mu2 = MeasureFlow.constant_in_time(shifted, g)
    u1, m1 = apply_phi(e.problem, g, mu1)
    u2, m2 = apply_phi(e.problem, g, mu2)
    assert np.array_equal(u1.values, u2.values)
    assert np.array_equal(m1.densities, m2.densities)


def test_policy_is_minus_gradient_for_quadratic_instances():
    e = get_entry("example5-weak")
    g = _small_grid(e)
    m0, _ = discretize_initial_density(e.problem, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    u = solve_hjb(e.problem, g, mu)
    pol = feedback_policy(e.problem, g, u)
    assert np.array_equal(pol, -u.du)


def test_apply_phi_output_satisfies_flow_invariants():
    e = get_entry("example5-weak")
    g = _small_grid(e)
    m0, _ = discretize_initial_density(e.problem, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    _, m = apply_phi(e.problem, g, mu)
    m.validate()
    rep = flow_regularity(m, g)
    assert np.isfinite(rep.holder_half_seminorm)
    assert np.isfinite(rep.max_second_moment)


@pytest.mark.parametrize("name", ["decoupled-hopfcole", "lq-riccati"])
def test_decoupled_converges_in_two_iterations(name, solved):
    _, _, _, _, report = solved.get(name)
    assert report.converged
    assert report.iterations_used == 2
    assert report.residual_history[1] <= 1e-12


def test_decoupled_equals_single_pass(solved):
    e, g, u, m, _ = solved.get("decoupled-hopfcole")
    m0, _ = discretize_initial_density(e.problem, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    u1, m1 = apply_phi(e.problem, g, mu)
    assert np.max(np.abs(u1.values - u.values)) <= 1e-12
    assert np.max(np.abs(m1.densities - m.densities)) <= 1e-12


@pytest.mark.parametrize("name, solves", [("lq-riccati", 1),
                                          ("decoupled-hopfcole", 1),
                                          ("example5-weak", None)])
def test_map_solves_per_outer_iteration(monkeypatch, name, solves):
    # a map no callback reads the flow of is applied once; example5-weak reads
    # view.mean, so it solves once per outer iteration
    from mfgkit import mfg
    e = get_entry(name)
    g = _small_grid(e, nx=81, nt=60)
    calls = {"hjb": 0, "fp": 0}
    for fn in ("solve_hjb", "solve_fp"):
        real = getattr(mfg, fn)

        def counted(*args, _real=real, _key=fn[6:], **kw):
            calls[_key] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(mfg, fn, counted)
    _, _, rep = solve_mfg(e.problem, g, e.fixed_point)
    if solves is None:
        solves = rep.iterations_used
        assert solves > 2
    else:
        assert rep.iterations_used == 2 and rep.residual_history[1] == 0.0
    assert calls == {"hjb": solves, "fp": solves}


def _secant(x, g, x_last, g_last, grid):
    """The one-secant Anderson step written out: g - gamma (g - g_last) on
    levels 1..nt with gamma = <df, f> / <df, df>, f = g - x, then each level
    clipped at zero and divided by its mass; level 0 is g's."""
    f, f_last = (g - x)[1:], (g_last - x_last)[1:]
    gamma = np.sum((f - f_last) * f) / np.sum((f - f_last) * (f - f_last))
    out = g.copy()
    out[1:] = np.maximum(g[1:] - gamma * (g[1:] - g_last[1:]), 0.0)
    for k in range(1, grid.nt + 1):
        out[k] /= out[k].sum() * grid.cell_volume
    return out


def _reference_solve(problem, grid, config, mu, history, mixing=True):
    """solve_mfg written out: one map application per outer iteration, and
    from the second full step on the secant step (the plain step with
    mixing=False, or once r meets tol)."""
    last = None
    for it in range(1, config.max_iters + 1):
        u, m = apply_phi(problem, grid, mu)
        r = flow_distance(mu, m, grid)
        history.append(r)
        if all(b < a for a, b in zip(history, history[1:])):
            pair = (mu.densities, m.densities)
            if mixing and last is not None and r > config.tol:
                mu = MeasureFlow(_secant(*pair, *last, grid), grid)
            else:
                mu = m
            last = pair
        else:
            mu = MeasureFlow((1.0 - config.theta) * mu.densities
                             + config.theta * m.densities, grid)
            last = None
        if r <= config.tol:
            break
    return u, m, history, it


_READS = {"density": lambda view: view.density.max(),
          "mean": lambda view: view.mean,
          "second_moment": lambda view: view.second_moment}


@pytest.mark.parametrize("read", sorted(_READS))
@pytest.mark.parametrize("callback", ["drift_b0", "running_f0",
                                      "diffusion_sigma", "terminal_g"])
@settings(max_examples=4, derandomize=True, deadline=None)
@given(levels=st.sets(st.integers(1, 19), min_size=1), damped=st.booleans())
def test_a_callback_that_reads_the_flow_gets_a_map_solve_per_iteration(
        callback, read, levels, damped):
    # decoupled-hopfcole from an off-centre m0, with one callback that reads
    # the view at the drawn time levels (past level 0, which every flow shares
    # with m0): solve_mfg must match the loop that applies the map at every
    # iteration, bit for bit
    from dataclasses import replace
    from mfgkit.catalog import gaussian_density
    from mfgkit.mfg import IterationState
    e = get_entry("decoupled-hopfcole")
    g = build_grid(1, -6.0, 6.0, 41, 1.0, 20)
    base = getattr(e.problem, callback)
    stat = _READS[read]

    if callback == "terminal_g":
        def coupled(x, view):
            return base(x, view) + 0.1 * stat(view) * x
    else:
        def coupled(t, x, view):
            value = base(t, x, view)
            if round(t / g.dt) not in levels:
                return value
            if callback == "diffusion_sigma":
                return value * (1.0 + 0.05 * stat(view))
            return value + 0.1 * stat(view) * (x if callback == "running_f0" else 1.0)
    problem = replace(e.problem, initial_density=gaussian_density(0.5, 0.25),
                      **{callback: coupled})
    cfg = FixedPointConfig(theta=0.5, tol=1e-12, max_iters=4)
    m0, _ = discretize_initial_density(problem, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    start = [np.inf, np.inf] if damped else []  # damped from the first step
    u, m, rep = solve_mfg(problem, g, cfg, initial_state=IterationState(
        0, mu.densities.copy(), list(start)))
    u_ref, m_ref, h_ref, it_ref = _reference_solve(problem, g, cfg, mu, list(start))
    assert rep.residual_history == h_ref and rep.iterations_used == it_ref
    assert h_ref[len(start) + 1] > 0.0  # the map reads the flow: r_2 is not 0
    assert np.array_equal(u.values, u_ref.values)
    assert np.array_equal(u.du, u_ref.du)
    assert np.array_equal(m.densities, m_ref.densities)


def test_weakly_coupled_converges_and_residuals_decrease(solved):
    _, _, _, _, report = solved.get("example5-weak")
    assert report.converged
    assert report.iterations_used <= 50
    r = report.residual_history
    assert all(r[i + 1] < r[i] for i in range(1, len(r) - 1))


def test_damping_independence_of_the_limit():
    # both runs start from one state whose residual history ends in a
    # non-decrease, so every step is damped and the two reach the limit along
    # different residual histories
    from mfgkit.mfg import IterationState
    e = get_entry("example5-weak")
    g = _small_grid(e)
    fx = e.fixed_point
    m0, _ = discretize_initial_density(e.problem, g)
    start = IterationState(0, MeasureFlow.constant_in_time(m0, g).densities,
                           [np.inf, np.inf])
    out, histories = {}, {}
    for theta in (0.5, 1.0):
        cfg = FixedPointConfig(theta=theta, tol=fx.tol, max_iters=fx.max_iters)
        _, m, rep = solve_mfg(e.problem, g, cfg, initial_state=start)
        assert rep.converged
        out[theta], histories[theta] = m, rep.residual_history
    assert histories[0.5] != histories[1.0]
    assert flow_distance(out[0.5], out[1.0], g) <= 10 * fx.tol


def test_solver_signatures_and_config_fields():
    # every tuning value a solve takes, by name: a new option needs a
    # deliberate edit here
    import inspect
    from dataclasses import fields
    from mfgkit.hjb import HjbSolverConfig

    def params(fn):
        return list(inspect.signature(fn).parameters)
    assert params(solve_fp) == ["problem", "grid", "mu_flow", "policy"]
    assert params(solve_hjb) == ["problem", "grid", "mu_flow", "config"]
    assert params(apply_phi) == ["problem", "grid", "mu", "hjb_config"]
    assert params(feedback_policy) == ["problem", "grid", "u"]
    assert params(pde_residual) == ["problem", "grid", "u", "m", "margin"]
    assert params(solve_mfg) == ["problem", "grid", "config", "hjb_config",
                                 "initial_state", "on_iteration"]
    assert [f.name for f in fields(FixedPointConfig)] == ["theta", "tol", "max_iters"]
    assert [f.name for f in fields(HjbSolverConfig)] == ["picard_inner_iters"]


def test_iteration_deterministic():
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    _, _, r1 = solve_mfg(e.problem, g, e.fixed_point)
    _, _, r2 = solve_mfg(e.problem, g, e.fixed_point)
    assert r1.residual_history == r2.residual_history


def test_convex_combination_preserves_invariants():
    e = get_entry("example5-weak")
    g = _small_grid(e)
    m0, _ = discretize_initial_density(e.problem, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    _, m = apply_phi(e.problem, g, mu)
    mixed = MeasureFlow(0.5 * mu.densities + 0.5 * m.densities, g)
    mixed.validate()


def test_pde_residual_on_injected_oracle_fields():
    # exact value field and its induced flow: residuals small, shrink on refine
    e = get_entry("lq-riccati")
    res = []
    for nx, nt in ((121, 250), (241, 500)):
        g = build_grid(1, -6.0, 6.0, nx, 1.0, nt)
        u = lq_riccati_value(0.5, g)
        pol = feedback_policy(e.problem, g, u)
        m0, _ = discretize_initial_density(e.problem, g)
        mu = MeasureFlow.constant_in_time(m0, g)
        m = solve_fp(e.problem, g, mu, pol)
        res.append(pde_residual(e.problem, g, u, m))
    assert res[1][0] < res[0][0]
    assert res[0][0] <= 0.1


def test_pde_residual_zero_for_constant_solution():
    e = get_entry("uncontrolled-fp")
    # zero terminal data, zero costs: u is identically zero
    g = _small_grid(e)
    m0, _ = discretize_initial_density(e.problem, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    u, m = apply_phi(e.problem, g, mu)
    r_hjb, _ = pde_residual(e.problem, g, u, m)
    assert r_hjb <= 1e-12


def test_grid_search_control_end_to_end():
    # the same LQ instance driven by exhaustive control search instead of the
    # closed form: the policy lands within half a control-grid spacing of -Du
    import dataclasses
    from mfgkit.core import ControlSpace
    e = get_entry("lq-riccati")
    prob = dataclasses.replace(e.problem, closed_form_phi=None,
                               control_space=ControlSpace.box(-8.0, 8.0, 161))
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 50)
    u, m, rep = solve_mfg(prob, g, FixedPointConfig(theta=0.5, tol=1e-4,
                                                    max_iters=10))
    assert rep.converged
    pol = feedback_policy(prob, g, u)
    assert np.max(np.abs(pol + u.du)) <= 0.05 + 1e-12  # half the 0.1 spacing
    m.validate()


def test_nonconvergence_reports_instead_of_raising():
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    cfg = FixedPointConfig(theta=0.5, tol=1e-14, max_iters=3)
    _, _, rep = solve_mfg(e.problem, g, cfg)
    assert not rep.converged
    assert rep.iterations_used == 3
    assert len(rep.residual_history) == 3


def test_resume_state_continues_identically():
    from mfgkit.mfg import IterationState
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    states = []
    u_full, m_full, rep_full = solve_mfg(
        e.problem, g, e.fixed_point, on_iteration=states.append)
    st = states[2]  # after iteration 3
    resumed = IterationState(iteration=st.iteration, mu=st.mu.copy(),
                             residual_history=list(st.residual_history))
    u_res, m_res, rep_res = solve_mfg(e.problem, g, e.fixed_point,
                                      initial_state=resumed)
    assert rep_res.residual_history == rep_full.residual_history
    assert np.array_equal(u_res.values, u_full.values)
    assert np.array_equal(m_res.densities, m_full.densities)


def test_resume_with_no_step_left_returns_the_map_of_the_stored_flow(monkeypatch):
    # resumed at max_iters, the iteration takes no step: the stored history
    # stands, and (u, m) is the one map application to the stored flow
    from mfgkit import mfg
    from mfgkit.mfg import IterationState
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    cfg = FixedPointConfig(max_iters=2)
    states = []
    solve_mfg(e.problem, g, cfg, on_iteration=states.append)
    st = states[-1]
    assert st.iteration == cfg.max_iters
    calls, later = [], []
    apply = mfg.apply_phi
    monkeypatch.setattr(mfg, "apply_phi",
                        lambda *args: calls.append(args) or apply(*args))
    resumed = IterationState(iteration=st.iteration, mu=st.mu.copy(),
                             residual_history=list(st.residual_history))
    u, m, rep = solve_mfg(e.problem, g, cfg, initial_state=resumed,
                          on_iteration=later.append)
    assert len(calls) == 1 and later == []
    assert rep.residual_history == st.residual_history
    assert rep.iterations_used == st.iteration and not rep.converged
    u_ref, m_ref = apply(e.problem, g, MeasureFlow(st.mu.copy(), g))
    assert np.array_equal(u.values, u_ref.values)
    assert np.array_equal(m.densities, m_ref.densities)


def test_converged_flow_is_within_tol_of_the_flow_u_was_solved_against():
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    states = []
    _, m, rep = solve_mfg(e.problem, g, e.fixed_point, on_iteration=states.append)
    assert rep.converged
    gap = flow_distance(MeasureFlow(states[-2].mu, g), m, g)
    assert gap == rep.residual_history[-1]
    assert gap <= e.fixed_point.tol


def test_damped_steps_follow_the_first_non_contracting_residual(monkeypatch):
    # the third map solve returns the initial flow, so r rises there: the two
    # steps before it are full (plain, then the secant step), it and every
    # later step are theta-damped
    import mfgkit.mfg as mfg
    from mfgkit.mfg import IterationState
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    theta = e.fixed_point.theta
    real_phi, calls, spike = mfg.apply_phi, [], 3

    def phi(problem, grid, mu, *args):
        u, m = real_phi(problem, grid, mu, *args)
        if len(calls) == spike - 1:
            m = MeasureFlow.constant_in_time(m.densities[0], grid)
        calls.append((mu.densities.copy(), m.densities.copy()))
        return u, m
    monkeypatch.setattr(mfg, "apply_phi", phi)

    states = []
    u_full, m_full, rep_full = solve_mfg(e.problem, g, e.fixed_point,
                                         on_iteration=states.append)
    assert rep_full.converged
    r = rep_full.residual_history
    assert all(r[i + 1] < r[i] for i in range(spike - 2)) and r[spike - 1] >= r[spike - 2]
    for i, (st, (mu, m)) in enumerate(zip(states, calls)):
        if i == 0:
            expected = m
        elif i < spike - 1:  # the secant step from the first two map pairs
            expected = _secant(mu, m, *calls[i - 1], g)
        else:
            expected = (1.0 - theta) * mu + theta * m
        assert np.array_equal(st.mu, expected)
        assert len(st.last_pair) == (2 if i < spike - 1 else 0)

    st = states[spike]  # two damped steps in
    resumed = IterationState(iteration=st.iteration, mu=st.mu.copy(),
                             residual_history=list(st.residual_history))
    u_res, m_res, rep_res = solve_mfg(e.problem, g, e.fixed_point,
                                      initial_state=resumed)
    assert rep_res.residual_history == rep_full.residual_history
    assert np.array_equal(u_res.values, u_full.values)
    assert np.array_equal(m_res.densities, m_full.densities)


def _assert_valid_flows(states, m0, grid):
    """Every stored flow is nonnegative, has unit mass on every level within
    MASS_TOL and keeps m0 on level 0 bit for bit."""
    from mfgkit.core import MASS_TOL
    for st in states:
        assert st.mu.min() >= 0.0
        assert np.max(np.abs(st.mu.sum(axis=1) * grid.cell_volume - 1.0)) <= MASS_TOL
        assert np.array_equal(st.mu[0], m0)


def test_strong_coupling_takes_at_most_half_the_plain_map_solves():
    # example5 at kappa = 10, the coupling 100 times the catalog's, on a
    # reduced grid (nt = 150 keeps its FP march positive): the plain full
    # steps contract slowly (29 map solves), the secant steps reach tol in at
    # most half as many (9), every flow a valid one
    from mfgkit.catalog import _example5_weak
    e = _example5_weak(10.0)
    g = _small_grid(e, nx=61, nt=150)
    m0, _ = discretize_initial_density(e.problem, g)
    states = []
    _, m, rep = solve_mfg(e.problem, g, e.fixed_point, on_iteration=states.append)
    _, _, plain, n_plain = _reference_solve(
        e.problem, g, e.fixed_point, MeasureFlow.constant_in_time(m0, g), [],
        mixing=False)
    assert rep.converged and plain[-1] <= e.fixed_point.tol
    assert 2 * rep.iterations_used <= n_plain
    assert all(len(st.last_pair) == 2 for st in states)
    _assert_valid_flows(states, m0, g)


def test_an_overshooting_secant_step_is_clipped_and_renormalized(monkeypatch):
    # the map returns A = (x1 + 2S)/3 and then S, for the start flow x1 and a
    # flow S of m0 shifted by 12 nodes past level 0: the residual halves, so
    # the second step mixes, with gamma = -1, to 4S/3 - x1/3, negative where
    # S < x1/4
    import mfgkit.mfg as mfg
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    m0, _ = discretize_initial_density(e.problem, g)
    x1 = MeasureFlow.constant_in_time(m0, g).densities
    shifted = x1.copy()
    shifted[1:] = np.roll(m0, 12)
    shifted[1:] /= shifted[1].sum() * g.cell_volume
    first = (x1 + 2 * shifted) / 3
    first[0] = m0
    outputs = [first, shifted]
    real_phi = mfg.apply_phi

    def phi(problem, grid, mu, *args):
        u, m = real_phi(problem, grid, mu, *args)
        return u, (MeasureFlow(outputs.pop(0), grid) if outputs else m)
    monkeypatch.setattr(mfg, "apply_phi", phi)
    states = []
    solve_mfg(e.problem, g, FixedPointConfig(max_iters=2), on_iteration=states.append)
    r = states[-1].residual_history
    assert r[1] < r[0]
    raw = (4 * shifted - x1) / 3
    assert raw.min() < -0.1
    mixed = states[1].mu
    assert np.all(mixed[raw < 0] == 0.0)
    clipped = np.maximum(raw[1:], 0.0)
    expected = clipped / (clipped.sum(axis=1, keepdims=True) * g.cell_volume)
    assert np.allclose(mixed[1:], expected, rtol=1e-12, atol=1e-15)
    _assert_valid_flows(states, m0, g)


@pytest.mark.parametrize("name, kept", [("example5-weak", 2), ("lq-riccati", 0)])
def test_every_stored_flow_of_a_run_is_a_valid_flow(name, kept):
    # the step that meets tol is plain, so the last stored flow is the
    # returned m; a map that reads no flow (lq-riccati) keeps no map pair
    e = get_entry(name)
    g = _small_grid(e, nx=81, nt=60)
    m0, _ = discretize_initial_density(e.problem, g)
    states = []
    _, m, rep = solve_mfg(e.problem, g, e.fixed_point, on_iteration=states.append)
    assert rep.converged
    _assert_valid_flows(states, m0, g)
    assert np.array_equal(states[-1].mu, m.densities)
    assert [len(st.last_pair) for st in states] == [kept] * len(states)


def test_resume_from_every_state_continues_identically():
    # each stored state carries the map pair the next step mixes with, so a
    # run resumed from any of them repeats the uninterrupted one bit for bit
    from mfgkit.mfg import IterationState
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    states = []
    u_full, m_full, rep_full = solve_mfg(e.problem, g, e.fixed_point,
                                         on_iteration=states.append)
    assert len(states) == 4
    for st in states[:-1]:
        resumed = IterationState(st.iteration, st.mu.copy(),
                                 list(st.residual_history),
                                 tuple(a.copy() for a in st.last_pair))
        u, m, rep = solve_mfg(e.problem, g, e.fixed_point, initial_state=resumed)
        assert rep.residual_history == rep_full.residual_history
        assert np.array_equal(u.values, u_full.values)
        assert np.array_equal(m.densities, m_full.densities)


def test_example5_reaches_tol_within_six_outer_iterations(solved):
    _, _, _, _, report = solved.get("example5-weak")
    assert report.converged
    assert report.iterations_used <= 6
    assert report.residual_history[-1] <= 1e-4


def test_uncontrolled_initial_guess_reaches_same_fixed_point():
    from mfgkit.mfg import IterationState
    e = get_entry("example5-weak")
    g = _small_grid(e, nx=81, nt=60)
    base = FixedPointConfig(theta=0.5, tol=1e-5, max_iters=50)
    uncontrolled = IterationState(0, solve_fp(e.problem, g, None, None).densities, [])
    _, m1, r1 = solve_mfg(e.problem, g, base)
    _, m2, r2 = solve_mfg(e.problem, g, base, initial_state=uncontrolled)
    assert r1.converged and r2.converged
    assert flow_distance(m1, m2, g) <= 10 * base.tol


def test_pde_residual_2d_matches_written_out_sums():
    # correlated, x-dependent diffusion, a mean-coupled drift and cost, and
    # smooth injected fields; the 2D sums written out term by term
    from mfgkit.core import ProblemSpec, ValueField, diffusion_coefficients, gradient_field
    from mfgkit.hamiltonian import PhiEvaluator, minimize_H
    from mfgkit.mfg import _second_diff
    from mfgkit.oracle import heat_flow_density

    def sigma(t, x, m):
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0] + 0.5 * x[..., 1]))
        sig[..., 0, 1] = 0.3 * (1.0 + 0.5 * np.tanh(x[..., 1]))
        sig[..., 1, 1] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0]))
        return sig
    p = ProblemSpec(
        dim=2, horizon=0.5, drift_b0=lambda t, x, m: 0.3 * np.tanh(m.mean - x),
        drift_b1=lambda t, x, a: a, diffusion_sigma=sigma,
        running_f0=lambda t, x, m: 0.1 * np.tanh(((x - m.mean) ** 2).sum(-1)),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1)),
        closed_form_phi=lambda t, x, q: -q, gamma1=0.5, gamma2=3.0)
    g = build_grid(2, -6.0, 6.0, 31, 0.5, 8)
    c = g.coords()
    vals = np.stack([np.sin(0.4 * c[..., 0] + t) * np.cos(0.3 * c[..., 1] + 0.5)
                     for t in g.times])
    u = ValueField(vals, np.stack([gradient_field(v, g) for v in vals]), g)
    m = heat_flow_density([0.3, -0.2], 0.25, np.sqrt(2.0), g)
    margin = 4
    ev = PhiEvaluator.for_problem(p)
    h1, h2 = g.h
    hjb_worst = fp_worst = 0.0
    inner = (slice(margin, -margin),) * 2
    uv, mv = u.values, m.densities
    for k in range(1, g.nt):
        t, view = g.time(k), m.view(k)
        alpha = minimize_H(p, ev, t, c, u.du[k])
        b = p.drift_b0(t, c, view) + p.drift_b1(t, c, alpha)
        f = p.running_f0(t, c, view) + p.running_f1(t, c, alpha)
        (a11, a22), a12 = diffusion_coefficients(p, t, c, view)
        u_t = (uv[k + 1] - uv[k - 1]) / (2 * g.dt)
        m_t = (mv[k + 1] - mv[k - 1]) / (2 * g.dt)
        u_xy = np.gradient(np.gradient(uv[k], h1, axis=0), h2, axis=1)
        r_hjb = (u_t + (b[..., 0] * u.du[k][..., 0] + b[..., 1] * u.du[k][..., 1])
                 + (a11 * _second_diff(uv[k], h1, axis=0)
                    + a22 * _second_diff(uv[k], h2, axis=1) + 2 * a12 * u_xy) + f)
        q12 = np.gradient(np.gradient(a12 * mv[k], h1, axis=0), h2, axis=1)
        q = (_second_diff(a11 * mv[k], h1, axis=0)
             + _second_diff(a22 * mv[k], h2, axis=1) + 2 * q12)
        div_bm = (np.gradient(b[..., 0] * mv[k], h1, axis=0)
                  + np.gradient(b[..., 1] * mv[k], h2, axis=1))
        r_fp = m_t - q + div_bm
        hjb_worst = max(hjb_worst, float(np.max(np.abs(r_hjb[inner]))))
        fp_worst = max(fp_worst, float(np.max(np.abs(r_fp[inner]))))
    assert fp_worst > 0 and hjb_worst > 0
    assert pde_residual(p, g, u, m, margin=margin) == (hjb_worst, fp_worst)


def _fingerprint(problem, u, m, rep, node):
    mid, half = u.grid.nt // 2, u.grid.nx // 2
    return {"u": [float(u.values[0][node]), float(u.values[mid][node])],
            "m": [float(m.densities[mid][node]), float(m.densities[-1][node])],
            "row_sums": [float(u.values[0].sum()), float(u.values[mid].sum()),
                         float(m.densities[mid][:half].sum()),
                         float(m.densities[-1][:half].sum())],
            "rho": [float(r) for r in rep.residual_history],
            "pde": [float(r) for r in pde_residual(problem, u.grid, u, m)]}


def test_pinned_example5_solve():
    # literal values pin the 1D HJB and exponential-flux FP steps, the Picard
    # step rule with its secant steps and the PDE residual, bit for bit
    e = get_entry("example5-weak")
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 40)
    u, m, rep = solve_mfg(e.problem, g, e.fixed_point)
    assert _fingerprint(e.problem, u, m, rep, 35) == {
        "u": [0.8783027114005895, 0.6916439980972706],
        "m": [0.35394313027654173, 0.30980825523815086],
        "row_sums": [227.81889731049714, 267.6491709622974,
                     1.4453128722117503, 1.744730266332123],
        "rho": [0.4066076263949772, 0.017722531905037833,
                0.0012936707750336798, 3.745114522189155e-06],
        "pde": [0.11716968121002669, 0.20391785383201788]}


def test_pinned_2d_correlated_solve():
    # correlated, x-dependent sigma with a mean-coupled drift and cost:
    # literal values pin the mixed term of the HJB step and of the residual,
    # and the fitted FP flux with its face-averaged diffusion band
    from mfgkit.core import ProblemSpec

    def sigma(t, x, m):
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0] + 0.5 * x[..., 1]))
        sig[..., 0, 1] = 0.3 * (1.0 + 0.5 * np.tanh(x[..., 1]))
        sig[..., 1, 1] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0]))
        return sig
    p = ProblemSpec(
        dim=2, horizon=0.5, drift_b0=lambda t, x, m: 0.3 * np.tanh(m.mean - x),
        drift_b1=lambda t, x, a: a, diffusion_sigma=sigma,
        running_f0=lambda t, x, m: 0.1 * np.tanh(((x - m.mean) ** 2).sum(-1)),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: 0.1 * ((x - 0.5) ** 2).sum(-1),
        initial_density=lambda x: np.exp(-((x + 0.3) ** 2).sum(-1) / 2),
        closed_form_phi=lambda t, x, q: -q, gamma1=0.5, gamma2=3.0)
    g = build_grid(2, -3.0, 3.0, 21, 0.5, 20)
    u, m, rep = solve_mfg(p, g, FixedPointConfig(max_iters=2))
    assert _fingerprint(p, u, m, rep, (8, 12)) == {
        "u": [0.30056485525873844, 0.21272811127970528],
        "m": [0.0946906834101526, 0.08910019267490046],
        "row_sums": [358.45795314943626, 335.6844554077371,
                     6.259509997667983, 6.20465333098144],
        "rho": [0.1643378120164362, 0.002544357138084601],
        "pde": [0.0003806494458415133, 0.0082673342523535]}


def _pinned_catalog_solve(name):
    e = get_entry(name)
    g = build_grid(1, e.grid.x_min[0], e.grid.x_max[0], 61, e.grid.horizon, 40)
    return _fingerprint(e.problem, *solve_mfg(e.problem, g, e.fixed_point), 35)


def test_pinned_lq_riccati_solve():
    # literal values pin the decoupled quadratic-control march (HJB sweeps with
    # zero b0 and f0, the FP under the feedback) and the PDE residual
    assert _pinned_catalog_solve("lq-riccati") == {
        "u": [0.9308962442354842, 0.7307740204815709],
        "m": [0.2386697571648593, 0.2411288818079994],
        "row_sums": [229.13647970109724, 274.81180232621165,
                     2.28688759890981, 2.306961894291085],
        "rho": [0.4315811026727489, 0.0],
        "pde": [0.20449489231981577, 0.2216855589051382]}


def test_pinned_decoupled_hopfcole_solve():
    assert _pinned_catalog_solve("decoupled-hopfcole") == {
        "u": [0.929293856552827, 0.7298293741728242],
        "m": [0.23865413932434607, 0.24100064884082106],
        "row_sums": [227.29075732724283, 270.01747157154097,
                     2.286967009250956, 2.307068192539943],
        "rho": [0.43254064796154135, 0.0],
        "pde": [0.10294276638127275, 0.2216819355113714]}


def test_pinned_uncontrolled_fp_solve():
    # control-free: u stays zero and the literals pin the FP march alone
    assert _pinned_catalog_solve("uncontrolled-fp") == {
        "u": [0.0, 0.0],
        "m": [0.2259523318684746, 0.2190347037577828],
        "row_sums": [0.0, 0.0, 1.2314494560551699, 1.3538577650490802],
        "rho": [0.6202777435728078, 1.5809127727912004e-09],
        "pde": [0.0, 0.217438427746401]}


def _per_level_residual(problem, grid, u, m, margin):
    """pde_residual's arithmetic one level at a time, as a reference for the
    runs of levels it takes."""
    from mfgkit.core import StepCoefficients, _components, _first_diff, _mixed_diff
    from mfgkit.mfg import _second_diff
    policy = feedback_policy(problem, grid, u)
    coords, dt, h = grid.coords(), grid.dt, grid.h
    uv, mv = u.values, m.densities
    hjb_worst = fp_worst = 0.0
    inner = (grid.interior(margin),) * grid.dim
    axes = range(grid.dim)
    for k in range(1, grid.nt):
        coef = StepCoefficients(problem, grid.time(k), coords, m.view(k))
        bs, dus = coef.drift(policy[k]), _components(u.du[k], grid.shape)
        u_t = (uv[k + 1] - uv[k - 1]) / (2 * dt)
        m_t = (mv[k + 1] - mv[k - 1]) / (2 * dt)
        adv = sum(bs[d] * dus[d] for d in axes)
        diff = sum(coef.diag_a[d] * _second_diff(uv[k], h[d], axis=d) for d in axes)
        q = sum(_second_diff(coef.diag_a[d] * mv[k], h[d], axis=d) for d in axes)
        div_bm = sum(_first_diff(bs[d] * mv[k], h[d], axis=d) for d in axes)
        if coef.a12 is not None:
            diff = diff + 2 * coef.a12 * _mixed_diff(uv[k], h)
            q = q + 2 * _mixed_diff(coef.a12 * mv[k], h)
        r_hjb = u_t + adv + diff + coef.cost(policy[k])
        r_fp = m_t - q + div_bm
        hjb_worst = max(hjb_worst, float(np.max(np.abs(r_hjb[inner]))))
        fp_worst = max(fp_worst, float(np.max(np.abs(r_fp[inner]))))
    return hjb_worst, fp_worst


def _residual_case(dim):
    """A problem, grid and smooth injected (u, m) with a mean-coupled drift
    and cost; in 2D sigma is correlated at level 3 only, so one level of the
    residual carries the mixed terms, and sets its maxima."""
    from mfgkit.core import ProblemSpec, ValueField, gradient_field
    from mfgkit.oracle import heat_flow_density
    if dim == 1:
        e = get_entry("example5-weak")
        g = build_grid(1, -6.0, 6.0, 41, 1.0, 12)
        return e.problem, g, lq_riccati_value(0.5, g), heat_flow_density(
            0.3, 0.25, 1.0, g)
    g = build_grid(2, -6.0, 6.0, 21, 0.5, 8)

    def sigma(t, x, m):
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0] + 0.5 * x[..., 1]))
        if round(t / g.dt) == 3:
            sig[..., 0, 1] = 3.0 * (1.0 + 0.5 * np.tanh(x[..., 1]))
        sig[..., 1, 1] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0]))
        return sig
    p = ProblemSpec(
        dim=2, horizon=0.5, drift_b0=lambda t, x, m: 0.3 * np.tanh(m.mean - x),
        drift_b1=lambda t, x, a: a, diffusion_sigma=sigma,
        running_f0=lambda t, x, m: 0.1 * np.tanh(((x - m.mean) ** 2).sum(-1)),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1)),
        closed_form_phi=lambda t, x, q: -q, gamma1=0.5, gamma2=3.0)
    c = g.coords()
    vals = np.stack([np.sin(0.4 * c[..., 0] + t) * np.cos(0.3 * c[..., 1] + 0.5)
                     for t in g.times])
    u = ValueField(vals, np.stack([gradient_field(v, g) for v in vals]), g)
    return p, g, u, heat_flow_density([0.3, -0.2], 0.5, np.sqrt(2.0), g)


@pytest.mark.parametrize("levels_per_run", [None, 3, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_pde_residual_on_runs_of_levels_equals_the_per_level_loop(
        dim, levels_per_run, monkeypatch):
    # runs of 3 levels leave a shorter last run (11 and 7 levels), runs of 1
    # are the per-level loop; None keeps the module's budget
    import mfgkit.core as core
    p, g, u, m = _residual_case(dim)
    if levels_per_run is not None:
        monkeypatch.setattr(core, "LEVEL_BATCH", levels_per_run * g.n_nodes)
        assert (g.nt - 1) % levels_per_run != 0 or levels_per_run == 1
    if dim == 2:  # exactly one level has the mixed terms
        from mfgkit.core import StepCoefficients
        mixed = [k for k in range(1, g.nt) if StepCoefficients(
            p, g.time(k), g.coords(), m.view(k)).a12 is not None]
        assert mixed == [3]
    for margin in (0, 1, 3):
        got = pde_residual(p, g, u, m, margin=margin)
        assert got == _per_level_residual(p, g, u, m, margin)
        assert got[0] > 0 and got[1] > 0


def test_level_batched_loops_keep_their_arrays_to_the_budget():
    # lq-riccati's catalog grid (241 x 1000): pde_residual holds the feedback
    # policy of every level plus a bounded number of run-sized arrays, and
    # the law profile only run-sized arrays. An all-levels pde_residual would
    # hold about 18 arrays of 241 x 1001 doubles (35 MB), an all-levels law
    # profile about 4 (8 MB)
    import tracemalloc
    from mfgkit.core import LEVEL_BATCH
    from mfgkit.measure import _histogram_d1
    e = get_entry("lq-riccati")
    g = e.grid
    u = lq_riccati_value(0.5, g)
    m0, _ = discretize_initial_density(e.problem, g)
    flow = MeasureFlow.constant_in_time(m0, g)
    run_bytes = LEVEL_BATCH * 8
    policy_bytes = (g.nt + 1) * g.n_nodes * 8
    rng = np.random.default_rng(5)
    counts = np.stack([np.bincount(rng.integers(0, g.n_nodes, 500), minlength=g.n_nodes)
                       for _ in range(g.nt + 1)])
    tracemalloc.start()
    try:
        pde_residual(e.problem, g, u, flow)
        pde_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _histogram_d1(counts, 500, flow.densities, g)
        law_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pde_peak < policy_bytes + 24 * run_bytes
    assert law_peak < 8 * run_bytes
