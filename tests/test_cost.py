import numpy as np
import pytest

from mfgkit.core import (MeasureFlow, ProblemSpec, build_grid,
                         discretize_initial_density, interpolate_field)
from mfgkit.catalog import gaussian_density, get_entry
from mfgkit.cost import (_sinusoid_fields, evaluate_cost,
                         expected_initial_value, verify_optimality)
from mfgkit.oracle import lq_riccati_value
from mfgkit.mfg import feedback_policy
from mfgkit.particle import compare_law, simulate
from test_particle import _problem, _flow


def _zero_policy(grid):
    return np.zeros((grid.nt + 1, grid.nx))


def _two_pass_cost(problem, grid, m_flow, policy, n, seed):
    """Reference: simulate, then a second pass over the stored paths that sums
    the left-endpoint running cost f * dt and adds the terminal cost g."""
    ens = simulate(problem, grid, m_flow, policy, n, seed)
    total = np.zeros(n)
    for k in range(grid.nt):
        t, x, view = grid.time(k), ens.positions[k], m_flow.view(k)
        if grid.dim == 1:
            alpha = interpolate_field(policy[k], grid, x)
        else:
            alpha = np.stack([interpolate_field(policy[k][..., d], grid, x)
                              for d in range(2)], axis=-1)
        f = problem.running_f0(t, x, view) + problem.running_f1(t, x, alpha)
        total += np.broadcast_to(f, total.shape) * grid.dt
    total += np.broadcast_to(problem.terminal_g(ens.positions[grid.nt],
                                                m_flow.view(grid.nt)), total.shape)
    return float(np.mean(total)), float(np.std(total, ddof=1) / np.sqrt(n))


def _separable_2d():
    p = ProblemSpec(
        dim=2, horizon=0.5,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: a,
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.eye(2),
        running_f0=lambda t, x, m: 0.1 * np.tanh((x ** 2).sum(-1)),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: np.minimum((x ** 2).sum(-1), 8.0),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: -p_,
        gamma1=1.0, gamma2=1.0, lipschitz=15.0)
    g = build_grid(2, -4.0, 4.0, 21, 0.5, 10)
    x = g.coords()
    policy = np.stack([-(1.0 - 0.5 * t) * x for t in g.times])
    return p, g, policy


def test_cost_matches_two_pass_reference_bit_for_bit():
    e = get_entry("example5-weak")
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 40)
    cases = [(e.problem, g, feedback_policy(e.problem, g, lq_riccati_value(0.5, g))),
             _separable_2d()]
    for problem, grid, policy in cases:
        flow = _flow(problem, grid)
        est = evaluate_cost(problem, grid, flow, policy, 300, seed=17)
        ref_mean, ref_se = _two_pass_cost(problem, grid, flow, policy, 300, seed=17)
        assert est.mean == ref_mean
        assert est.std_error == ref_se
        assert est.std_error > 0


def test_constant_terminal_payoff():
    p = _problem(terminal_g=lambda x, m: np.full_like(x, 3.7),
                 diffusion_sigma=lambda t, x, m: np.ones_like(x),
                 gamma1=0.5, gamma2=0.5)
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 50)
    est = evaluate_cost(p, g, _flow(p, g), _zero_policy(g), 500, seed=1)
    assert est.mean == pytest.approx(3.7, abs=1e-12)
    assert est.std_error <= 1e-15  # identical path costs up to accumulation round-off


def test_unit_running_cost_integrates_horizon():
    p = _problem(running_f0=lambda t, x, m: np.ones_like(x),
                 diffusion_sigma=lambda t, x, m: np.ones_like(x),
                 gamma1=0.5, gamma2=0.5)
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 50)
    est = evaluate_cost(p, g, _flow(p, g), _zero_policy(g), 500, seed=1)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.std_error <= 1e-15  # identical path costs up to accumulation round-off


def test_terminal_shift_moves_mean_exactly():
    import dataclasses
    e = get_entry("lq-riccati")
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 100)
    u = lq_riccati_value(0.5, g)
    pol = feedback_policy(e.problem, g, u)
    m0, _ = discretize_initial_density(e.problem, g)
    mu = MeasureFlow.constant_in_time(m0, g)
    base = evaluate_cost(e.problem, g, mu, pol, 2000, seed=5)
    shifted_problem = dataclasses.replace(
        e.problem, terminal_g=lambda x, m: 0.5 * x * x + 2.0)
    shifted = evaluate_cost(shifted_problem, g, mu, pol, 2000, seed=5)
    assert shifted.mean - base.mean == pytest.approx(2.0, abs=1e-12)
    assert shifted.std_error == pytest.approx(base.std_error, abs=1e-12)


def test_expected_initial_value_examples():
    g = build_grid(1, -6.0, 6.0, 241, 1.0, 10)
    m0 = gaussian_density(0.0, 1.0)(g.axis(0))
    m0 /= m0.sum() * g.h[0]

    class U:  # minimal stand-in with a values attribute
        pass

    u = U()
    u.values = np.full((11, 241), 2.5)
    assert expected_initial_value(u, m0, g) == pytest.approx(2.5, abs=1e-12)
    u.values = np.tile(g.axis(0), (11, 1))
    assert expected_initial_value(u, m0, g) == pytest.approx(0.0, abs=1e-12)
    u.values = np.tile(g.axis(0) ** 2, (11, 1))
    assert expected_initial_value(u, m0, g) == pytest.approx(1.0, abs=1e-3)


def test_lq_cost_matches_expected_initial_value(solved):
    e, g, u, m, _ = solved.get("lq-riccati")
    ref = lq_riccati_value(0.5, g)
    pol = feedback_policy(e.problem, g, ref)
    est = evaluate_cost(e.problem, g, m, pol, 50_000, seed=9)
    expect = expected_initial_value(ref, m.densities[0], g)
    assert abs(est.mean - expect) <= 3 * est.std_error + 2e-2


def test_zero_perturbation_is_exact_equality(solved, monkeypatch):
    from mfgkit import cost
    e, g, u, m, _ = solved.get("lq-riccati")
    pol = feedback_policy(e.problem, g, u)
    monkeypatch.setattr(cost, "EPSILONS", (0.0,))
    rep = verify_optimality(e.problem, g, u, m, n_perturbations=1,
                            n_paths=2000, seed=11, policy=pol)
    assert rep.perturbations[0].gap == 0.0
    assert rep.perturbations[0].cost.mean == rep.feedback_cost.mean


def test_perturbations_never_beat_feedback_significantly(solved):
    e, g, u, m, _ = solved.get("lq-riccati")
    rep = verify_optimality(e.problem, g, u, m, n_perturbations=3,
                            n_paths=20_000, seed=13)
    assert rep.value_check_passed
    assert rep.all_perturbations_passed
    assert len(rep.perturbations) == 6  # 3 directions x 2 epsilons


def test_std_error_scales_inverse_sqrt_n(solved):
    e, g, u, m, _ = solved.get("lq-riccati")
    pol = feedback_policy(e.problem, g, u)
    small = evaluate_cost(e.problem, g, m, pol, 1_000, seed=21)
    large = evaluate_cost(e.problem, g, m, pol, 25_000, seed=21)
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(5.0, rel=0.25)  # sqrt(25)


def test_sinusoid_fields_match_written_out_formulas():
    grids = (build_grid(1, -6.0, 5.0, 41, 0.8, 12),
             build_grid(2, [-4.0, -3.0], [4.0, 5.0], 21, 0.5, 10))
    for g in grids:
        fields = _sinusoid_fields(g, g.dim, 3, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        T = g.horizon
        for spatial, time in fields:
            comp = (2,) if g.dim == 2 else ()
            assert spatial.shape == g.shape + comp
            assert time.shape == (g.nt + 1,) + comp
            eta = np.stack([spatial * time[k] for k in range(g.nt + 1)])
            comps = []
            for _ in range(g.dim):
                kx, kt = rng.integers(1, 4), rng.integers(1, 4)
                ph_x, ph_t = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
                s1 = g.x_max[0] - g.x_min[0]
                if g.dim == 1:
                    t, x1 = g.times[:, None], g.axis(0)[None, :]
                    comps.append(np.sin(kx * np.pi * (x1 - g.x_min[0]) / s1 + ph_x)
                                 * np.sin(kt * np.pi * t / T + ph_t))
                else:
                    t = g.times[:, None, None]
                    x1, x2 = g.axis(0)[None, :, None], g.axis(1)[None, None, :]
                    s2 = g.x_max[1] - g.x_min[1]
                    comps.append(np.sin(kx * np.pi * (x1 - g.x_min[0]) / s1 + ph_x)
                                 * np.sin(kx * np.pi * (x2 - g.x_min[1]) / s2)
                                 * np.sin(kt * np.pi * t / T + ph_t))
            ref = comps[0] if g.dim == 1 else np.stack(comps, axis=-1)
            assert np.array_equal(eta, ref)


def _quadratic_value_2d(grid):
    """A smooth stand-in value field for the 2D policy: u = |x|^2 / 4."""
    from mfgkit.core import ValueField, gradient_field
    vals = np.stack([0.25 * (grid.coords() ** 2).sum(-1)] * (grid.nt + 1))
    return ValueField(vals, np.stack([gradient_field(v, grid) for v in vals]), grid)


@pytest.mark.parametrize("dim", [1, 2])
def test_one_stacked_march_equals_separate_evaluations(dim):
    # verify_optimality marches the feedback and every perturbed policy
    # together: each cost equals a separate evaluate_cost bit for bit, the law
    # profile, leak and sup |X| equal those of the feedback ensemble, and the
    # gate uses the smaller of the paired and the combined standard error
    if dim == 1:
        e = get_entry("example5-weak")
        problem, g = e.problem, build_grid(1, -6.0, 6.0, 61, 1.0, 40)
        u = lq_riccati_value(0.5, g)
    else:
        problem, g, _ = _separable_2d()
        u = _quadratic_value_2d(g)
    flow, n, seed = _flow(problem, g), 400, 29
    policy = feedback_policy(problem, g, u)
    rep = verify_optimality(problem, g, u, flow, n_perturbations=2, n_paths=n,
                            seed=seed, policy=policy)
    assert rep.feedback_cost == evaluate_cost(problem, g, flow, policy, n, seed)
    ens = simulate(problem, g, flow, policy, n, seed)
    assert np.array_equal(rep.d1_profile, compare_law(ens, flow, g))
    assert rep.boundary_leak == ens.boundary_leak
    assert rep.max_abs_position == ens.max_abs_position
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x5EED],
                                                            dtype=np.uint64)))
    etas = [np.stack([spatial * time[k] for k in range(g.nt + 1)])
            for spatial, time in _sinusoid_fields(g, g.dim, 2, rng)]
    assert len(rep.perturbations) == 4
    for pr in rep.perturbations:
        pert = problem.control_space.clip(policy + pr.epsilon * etas[pr.direction])
        assert pr.cost == evaluate_cost(problem, g, flow, pert, n, seed)
        diff = (simulate(problem, g, flow, pert, n, seed).cost - ens.cost)
        assert pr.paired_std_error == float(np.std(diff, ddof=1) / np.sqrt(n))
        assert 0 < pr.paired_std_error < np.hypot(pr.cost.std_error,
                                                  rep.feedback_cost.std_error)
        assert pr.passed == (pr.gap >= -3.0 * pr.paired_std_error)
        assert pr.to_dict()["paired_std_error"] == pr.paired_std_error


def test_evaluate_cost_stores_no_path():
    import tracemalloc
    e = get_entry("lq-riccati")
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 400)
    policy = feedback_policy(e.problem, g, lq_riccati_value(0.5, g))
    flow, n = _flow(e.problem, g), 2000
    evaluate_cost(e.problem, g, flow, policy, n, seed=3)  # warm caches
    tracemalloc.start()
    try:
        evaluate_cost(e.problem, g, flow, policy, n, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * (g.nt + 1) * 8 / 4


def _verify_peak(nx, nt, n, n_perturbations):
    """tracemalloc peak of a warm verify_optimality on lq-riccati, the policy
    passed in."""
    import tracemalloc
    e = get_entry("lq-riccati")
    g = build_grid(1, -6.0, 6.0, nx, 1.0, nt)
    u = lq_riccati_value(0.5, g)
    policy = feedback_policy(e.problem, g, u)
    flow = _flow(e.problem, g)
    args = (e.problem, g, u, flow, n_perturbations, n, 3, policy)
    verify_optimality(*args)  # warm caches
    tracemalloc.start()
    try:
        verify_optimality(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_verify_builds_directions_one_level_at_a_time():
    # the perturbation directions are built per level, never for every level
    nx, nt, n_perturbations = 241, 1001, 5
    peak = _verify_peak(nx, nt, 500, n_perturbations)
    assert peak < n_perturbations * (nt + 1) * nx * 8 / 4


def test_verify_memory_is_bounded_in_the_path_count():
    # the march holds the stacked points and costs; its per-step temporaries
    # are block-sized, not (members, n)-sized
    n, n_perturbations = 50_000, 5
    peak = _verify_peak(61, 20, n, n_perturbations)
    assert peak < 6 * (1 + 2 * n_perturbations) * n * 8


@pytest.mark.parametrize("n_perturbations", [0, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_controls_equal_the_per_member_list(dim, n_perturbations, monkeypatch):
    # every level's stacked controls equal the feedback followed by each
    # clip(policy + eps * direction), built one member at a time, on a control
    # box that clips the feedback's perturbations
    import dataclasses
    from mfgkit import cost
    from mfgkit.core import ControlSpace, _stream
    if dim == 1:
        e = get_entry("lq-riccati")
        g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
        u = lq_riccati_value(0.5, g)
        problem = dataclasses.replace(e.problem, control_space=ControlSpace.box(-1.0, 0.8, 5))
        policy = feedback_policy(e.problem, g, u)
    else:
        problem, g, policy = _separable_2d()
        problem = dataclasses.replace(problem, control_space=ControlSpace.box(
            [-1.0, -0.7], [0.9, 1.1], 5))
        u = _quadratic_value_2d(g)
    seen = []
    march = cost._march

    def recording_march(problem, grid, m_flow, controls, members, *args, **kw):
        seen.extend(controls(k).copy() for k in range(grid.nt))
        return march(problem, grid, m_flow, controls, members, *args, **kw)

    monkeypatch.setattr(cost, "_march", recording_march)
    seed = 17
    verify_optimality(problem, g, u, _flow(problem, g), n_perturbations, 50, seed,
                      policy=policy)
    etas = _sinusoid_fields(g, g.dim, n_perturbations, _stream(seed, 0x5EED))
    clip = problem.control_space.clip
    clipped = 0
    for k, fields in enumerate(seen):
        dirs = [spatial * time[k] for spatial, time in etas]
        ref = np.stack([policy[k]] + [clip(policy[k] + eps * dirs[j])
                                      for j in range(len(etas)) for eps in cost.EPSILONS])
        assert np.array_equal(fields, ref)
        clipped += sum(np.count_nonzero(policy[k] + eps * d != clip(policy[k] + eps * d))
                       for d in dirs for eps in cost.EPSILONS)
    assert len(seen) == g.nt
    assert clipped > 0 or n_perturbations == 0


def test_verify_solution_reports_a_2d_entry():
    # the CLI's catalog is 1D: a separable 2D problem reaches every block of
    # the report through the library, its oracle the summed 1D Hopf-Cole values
    import json
    from mfgkit.catalog import CatalogEntry, capped_quadratic
    from mfgkit.core import ValueField
    from mfgkit.cost import verify_solution
    from mfgkit.mfg import solve_mfg
    from mfgkit.oracle import hopf_cole_value
    G1, G2 = capped_quadratic(8.0), capped_quadratic(5.0)
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

    def oracle(g):
        g1 = build_grid(1, g.x_min[0], g.x_max[0], g.nx, g.horizon, g.nt)
        r1, r2 = hopf_cole_value(G1, g1), hopf_cole_value(G2, g1)
        shape = (g.nt + 1,) + g.shape
        du = np.stack([np.broadcast_to(r1.du[:, :, None], shape),
                       np.broadcast_to(r2.du[:, None, :], shape)], axis=-1)
        return ValueField(r1.values[:, :, None] + r2.values[:, None, :], du, g)

    g = build_grid(2, -6.0, 6.0, 25, 0.5, 16)
    entry = CatalogEntry(name="separable-2d", description="", problem=p, grid=g,
                         oracle="hopf-cole", oracle_value=oracle, oracle_tol=3e-2)
    u, m, report = solve_mfg(p, g, entry.fixed_point)
    blocks, checks = verify_solution(entry, g, u, m, report, n_paths=300,
                                     n_perturbations=1, seed=3, assumption_samples=16,
                                     duality_tol=0.5)
    assert list(blocks) == ["fixed_point", "mass", "oracle", "particle", "optimality",
                            "assumptions"]
    assert list(checks) == ["converged", "mass_conservation", "positivity", "hjb_oracle",
                            "sde_fp_duality", "optimality", "assumptions"]
    assert all(type(v) is bool for v in checks.values())
    assert all(checks.values())
    assert json.loads(json.dumps([blocks, checks])) == [blocks, checks]
    assert len(blocks["optimality"]["perturbations"]) == 2
