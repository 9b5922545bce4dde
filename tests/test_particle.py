import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfgkit.core import MeasureFlow, ProblemSpec, build_grid, discretize_initial_density
from mfgkit.catalog import gaussian_density, get_entry
from mfgkit.measure import d1_atoms, histogram_density
from mfgkit.mfg import feedback_policy
from mfgkit.oracle import lq_riccati_value
from mfgkit.particle import (_march, compare_law, law_check, sample_initial,
                             simulate)


def _problem(**kw):
    base = dict(
        dim=1, horizon=1.0,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: np.zeros_like(x),
        diffusion_sigma=lambda t, x, m: np.zeros_like(x),
        running_f0=lambda t, x, m: np.zeros_like(x),
        running_f1=lambda t, x, a: np.zeros_like(x),
        terminal_g=lambda x, m: np.zeros_like(x),
        initial_density=gaussian_density(0.0, 0.25),
        closed_form_phi=lambda t, x, p: np.zeros_like(p),
        gamma1=1e-12, gamma2=1.0, lipschitz=2.0)
    base.update(kw)
    return ProblemSpec(**base)


def _flow(problem, grid):
    m0, _ = discretize_initial_density(problem, grid)
    return MeasureFlow.constant_in_time(m0, grid)


def test_frozen_dynamics_stay_put():
    # b = 0, sigma = 0, delta-like start: every particle pinned at x0
    p = _problem(initial_density=lambda x: np.exp(-(x - 1.5) ** 2 / 2e-6))
    g = build_grid(1, -6.0, 6.0, 241, 1.0, 50)
    ens = simulate(p, g, _flow(p, g), None, 200, seed=1)
    x0 = ens.positions[0]
    assert np.array_equal(ens.positions[-1], x0)
    assert np.all(np.abs(x0 - 1.5) <= g.h[0])


def test_deterministic_translation():
    p = _problem(drift_b0=lambda t, x, m: np.ones_like(x))
    g = build_grid(1, -6.0, 6.0, 241, 1.0, 100)
    ens = simulate(p, g, _flow(p, g), None, 100, seed=2)
    shift = ens.positions[-1] - ens.positions[0]
    assert np.allclose(shift, 1.0, atol=1e-12)


def test_brownian_variance_growth():
    p = _problem(diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.ones_like(x),
                 gamma1=1.0, gamma2=1.0)
    g = build_grid(1, -10.0, 10.0, 401, 1.0, 200)
    n = 100_000
    ens = simulate(p, g, _flow(p, g), None, n, seed=3)
    var_T = ens.positions[-1].var()
    # var(T) = 0.25 + 2T; var estimator s.e. ~ var * sqrt(2/(n-1))
    se = (0.25 + 2.0) * np.sqrt(2.0 / (n - 1))
    assert abs(var_T - 2.25) <= 3 * se + 0.01


def test_seed_determinism_bit_identical():
    e = get_entry("uncontrolled-fp")
    g = build_grid(1, -8.0, 8.0, 161, 1.0, 50)
    flow = _flow(e.problem, g)
    a = simulate(e.problem, g, flow, None, 500, seed=42)
    b = simulate(e.problem, g, flow, None, 500, seed=42)
    c = simulate(e.problem, g, flow, None, 500, seed=43)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_pinned_positions_and_cost():
    # literal values pin the Philox (seed, step) key and particle counter
    # layout and the left-endpoint cost quadrature
    e = get_entry("lq-riccati")
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    policy = feedback_policy(e.problem, g, lq_riccati_value(0.5, g))
    ens = simulate(e.problem, g, _flow(e.problem, g), policy, 4, seed=7)
    assert ens.positions[-1].tolist() == [
        -0.3835108859374982, -1.8105342085351273,
        -0.07889073099991395, 0.5008237867703391]
    assert ens.cost.tolist() == [
        0.10823353884638467, 2.020194461255792,
        0.049897078316963134, 0.220282871293289]
    assert ens.max_abs_position == 1.9589096988898904


def test_sample_initial_matches_density(rng):
    g = build_grid(1, -8.0, 8.0, 321, 1.0, 10)
    dens = gaussian_density(0.3, 0.5)(g.axis(0))
    dens /= dens.sum() * g.h[0]
    pts = sample_initial(dens, g, 200_000, rng)
    emp, leak = histogram_density(pts, g)
    assert leak == 0.0
    from mfgkit.measure import d1_grid
    assert d1_grid(emp, dens, g) <= 5e-3


def test_sample_initial_2d_matches_density(rng):
    g = build_grid(2, [-5.0, -4.0], [5.0, 6.0], 61, 1.0, 10)
    c = g.coords()
    dens = np.exp(-((c[..., 0] - 0.5) ** 2 + 2.0 * (c[..., 1] + 0.3) ** 2))
    dens /= dens.sum() * g.cell_volume
    pts = sample_initial(dens, g, 200_000, rng)
    assert pts.shape == (200_000, 2)
    assert np.all((pts >= g.x_min) & (pts <= g.x_max))
    emp, leak = histogram_density(pts, g)
    assert leak == 0.0
    from mfgkit.measure import d1_grid
    assert d1_grid(emp, dens, g) <= 5e-3
    # a uniform density puts mass on the boundary nodes, whose cells reach
    # past the box
    pts = sample_initial(np.ones(g.shape), g, 20_000, rng)
    assert np.all((pts >= g.x_min) & (pts <= g.x_max))
    assert np.any(pts == g.x_min) and np.any(pts == g.x_max)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", [-1e-3, np.nan])
def test_sample_initial_rejects_negative_or_nonfinite_density(dim, bad):
    g = build_grid(dim, -2.0, 2.0, 21, 1.0, 5)
    dens = np.ones(g.shape)
    dens[(3,) * dim] = bad
    with pytest.raises(ValueError, match="density"):
        sample_initial(dens, g, 10, np.random.default_rng(0))


def test_resampling_self_consistency():
    # ensembles drawn from the flow itself: d1 sits at the Monte Carlo floor,
    # estimated by two independent resamplings
    e = get_entry("uncontrolled-fp")
    from mfgkit.fp import solve_fp
    g = build_grid(1, -8.0, 8.0, 161, 1.0, 50)
    flow = solve_fp(e.problem, g, None, None)
    rng1 = np.random.default_rng(10)
    rng2 = np.random.default_rng(11)
    n = 20_000
    d_main = []
    d_floor = []
    for k in range(0, g.nt + 1, 10):
        p1 = sample_initial(flow.densities[k], g, n, rng1)
        p2 = sample_initial(flow.densities[k], g, n, rng2)
        e1, _ = histogram_density(p1, g)
        e2, _ = histogram_density(p2, g)
        from mfgkit.measure import d1_grid
        d_main.append(d1_grid(e1, flow.densities[k], g))
        d_floor.append(d1_grid(e2, flow.densities[k], g))
    assert max(d_main) <= 3 * max(d_floor)


def test_single_particle_degenerate_law():
    e = get_entry("uncontrolled-fp")
    from mfgkit.fp import solve_fp
    g = build_grid(1, -8.0, 8.0, 161, 1.0, 50)
    flow = solve_fp(e.problem, g, None, None)
    ens = simulate(e.problem, g, flow, None, 1, seed=5)
    prof = compare_law(ens, flow, g)
    # d1 between a point mass and the flow: finite, no crash, matches the
    # atomic formula at t = 0
    assert np.all(np.isfinite(prof))
    x0 = ens.positions[0][0]
    ref = d1_atoms(np.array([x0]), np.array([1.0]),
                   g.axis(0), flow.densities[0] * g.h[0])
    assert prof[0] == pytest.approx(ref, abs=g.h[0])


def test_max_abs_position_proxy():
    p = _problem(diffusion_sigma=lambda t, x, m: np.ones_like(x),
                 gamma1=0.5, gamma2=0.5)
    g = build_grid(1, -8.0, 8.0, 161, 1.0, 50)
    ens = simulate(p, g, _flow(p, g), None, 1000, seed=4)
    assert 0 < ens.max_abs_position <= 8.0
    assert ens.max_abs_position == np.max(np.abs(ens.positions))


def test_boundary_leak_warning():
    p = _problem(drift_b0=lambda t, x, m: 50.0 * np.ones_like(x),
                 diffusion_sigma=lambda t, x, m: 0.1 * np.ones_like(x),
                 gamma1=0.005, gamma2=0.005)
    g = build_grid(1, -2.0, 2.0, 41, 1.0, 50)
    with pytest.warns(UserWarning, match="leak"):
        ens = simulate(p, g, _flow(p, g), None, 100, seed=6)
    assert ens.boundary_leak > 0.1


def test_2d_simulation_shapes_and_determinism():
    p = ProblemSpec(
        dim=2, horizon=0.5,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: np.zeros_like(x),
        diffusion_sigma=lambda t, x, m: np.sqrt(2.0) * np.eye(2),
        running_f0=lambda t, x, m: np.zeros(x.shape[:-1]),
        running_f1=lambda t, x, a: np.zeros(x.shape[:-1]),
        terminal_g=lambda x, m: np.zeros(x.shape[:-1]),
        initial_density=lambda x: np.exp(-(x ** 2).sum(-1) / 0.5) / (0.5 * np.pi),
        closed_form_phi=lambda t, x, p_: np.zeros_like(p_),
        gamma1=1.0, gamma2=1.0, lipschitz=2.0)
    g = build_grid(2, -6.0, 6.0, 61, 0.5, 20)
    flow = _flow(p, g)
    a = simulate(p, g, flow, None, 400, seed=7)
    b = simulate(p, g, flow, None, 400, seed=7)
    assert a.positions.shape == (21, 400, 2)
    assert np.array_equal(a.positions, b.positions)
    var = a.positions[-1].var(axis=0)
    assert np.all(np.abs(var - (0.25 + 2 * 0.5)) < 0.2)


def test_malformed_initial_density_fails_cleanly():
    g = build_grid(1, -2.0, 2.0, 21, 1.0, 5)
    with pytest.raises(ValueError, match="density"):
        sample_initial(np.zeros(21), g, 10, np.random.default_rng(0))


def _correlated_2d():
    """A 2D problem with correlated, x-dependent sigma, a mean-coupled drift
    and cost, and a control entering drift and cost."""
    def sigma(t, x, m):
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0] + 0.5 * x[..., 1]))
        sig[..., 0, 1] = 0.3 * (1.0 + 0.5 * np.tanh(x[..., 1]))
        sig[..., 1, 1] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0]))
        return sig
    return ProblemSpec(
        dim=2, horizon=0.5, drift_b0=lambda t, x, m: 0.3 * np.tanh(m.mean - x),
        drift_b1=lambda t, x, a: a, diffusion_sigma=sigma,
        running_f0=lambda t, x, m: 0.1 * np.tanh(((x - m.mean) ** 2).sum(-1)),
        running_f1=lambda t, x, a: 0.5 * (a ** 2).sum(axis=-1),
        terminal_g=lambda x, m: 0.1 * ((x - 0.5) ** 2).sum(-1),
        initial_density=lambda x: np.exp(-((x + 0.3) ** 2).sum(-1) / 2),
        closed_form_phi=lambda t, x, q: -q, gamma1=0.5, gamma2=3.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_march_members_equal_separate_marches(dim):
    # one march of several stacked policies: each member's costs, boundary
    # leak and sup |X| equal those of simulate on that policy alone, and the
    # observer sees member j's points at x[j]
    if dim == 1:
        e = get_entry("lq-riccati")
        problem, g = e.problem, build_grid(1, -6.0, 6.0, 61, 1.0, 20)
        base = feedback_policy(problem, g, lq_riccati_value(0.5, g))
    else:
        problem, g = _correlated_2d(), build_grid(2, -4.0, 4.0, 21, 0.5, 20)
        base = np.stack([-(1.0 - t) * g.coords() for t in g.times])
    rng = np.random.default_rng(31)
    policies = [base] + [base + 0.3 * rng.standard_normal(base.shape)
                         for _ in range(3)]
    flow, n = _flow(problem, g), 257
    seen = []
    cost, leak, max_abs = _march(problem, g, flow,
                                 lambda k: np.stack([p[k] for p in policies]),
                                 len(policies), n, 23,
                                 lambda k, x: seen.append(x.copy()))
    assert cost.shape == (len(policies), n)
    for j, policy in enumerate(policies):
        ens = simulate(problem, g, flow, policy, n, seed=23)
        assert np.array_equal(cost[j], ens.cost)
        assert leak[j] == ens.boundary_leak
        assert max_abs[j] == ens.max_abs_position
        assert np.array_equal(np.stack([x[j] for x in seen]), ens.positions)


@pytest.mark.parametrize("dim", [1, 2])
def test_law_check_equals_compare_law_of_stored_paths(dim):
    # the streamed law check gives the stored paths' d1 profile, leak and
    # sup |X| bit for bit: control-free in 1D, under a policy in 2D
    if dim == 1:
        problem, policy = get_entry("uncontrolled-fp").problem, None
        g = build_grid(1, -8.0, 8.0, 161, 1.0, 50)
    else:
        problem, g = _correlated_2d(), build_grid(2, -4.0, 4.0, 21, 0.5, 20)
        policy = np.stack([-(1.0 - t) * g.coords() for t in g.times])
    flow = _flow(problem, g)
    profile, leak, max_abs = law_check(problem, g, flow, policy, 300, seed=13)
    ens = simulate(problem, g, flow, policy, 300, seed=13)
    assert np.array_equal(profile, compare_law(ens, flow, g))
    assert leak == ens.boundary_leak
    assert max_abs == ens.max_abs_position


def test_non_finite_positions_fail_cleanly():
    # a drift that turns NaN mid-march stops the march at that level, with or
    # without a stored path and with or without a policy to interpolate
    from mfgkit.cost import evaluate_cost
    p = _problem(drift_b0=lambda t, x, m: np.full_like(x, np.nan if t > 0.3 else 0.0))
    g = build_grid(1, -4.0, 4.0, 41, 1.0, 10)
    flow, policy = _flow(p, g), np.zeros((g.nt + 1, g.nx))
    with pytest.raises(ValueError, match="non-finite positions"):
        simulate(p, g, flow, None, 50, seed=1)
    with pytest.raises(ValueError, match="non-finite positions"):
        evaluate_cost(p, g, flow, policy, 50, seed=1)


@pytest.mark.parametrize("case", ["1d-stack", "1d-uncontrolled", "2d-stack"])
def test_blocked_march_equals_one_block(case, monkeypatch):
    # uneven path-column blocks (3 paths of 11 members, the last block 1 path)
    # give every output of a one-block march bit for bit: costs, leak, sup |X|,
    # the law profile and the points seen at every level
    import mfgkit.particle as particle
    if case == "2d-stack":
        problem, g = _correlated_2d(), build_grid(2, -4.0, 4.0, 21, 0.5, 20)
        base = np.stack([-(1.0 - t) * g.coords() for t in g.times])
    else:
        e = get_entry("lq-riccati" if case == "1d-stack" else "uncontrolled-fp")
        problem, g = e.problem, build_grid(1, -6.0, 6.0, 61, 1.0, 20)
        base = feedback_policy(problem, g, lq_riccati_value(0.5, g))
    members = 1 if case == "1d-uncontrolled" else 11
    rng = np.random.default_rng(37)
    policies = [base] + [base + 0.3 * rng.standard_normal(base.shape)
                         for _ in range(members - 1)]
    controls = (None if case == "1d-uncontrolled"
                else lambda k: np.stack([p[k] for p in policies]))
    flow, n = _flow(problem, g), 40

    def march(block_points):
        monkeypatch.setattr(particle, "BLOCK_POINTS", block_points)
        profile, seen = np.empty(g.nt + 1), []
        return _march(problem, g, flow, controls, members, n, 19,
                      lambda k, x: seen.append(x.copy()), law=profile) + (
            profile, np.stack(seen))

    blocked, whole = march(3 * members), march(members * n)
    for a, b in zip(blocked, whole):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", ["1d-stack", "1d-law-check", "2d-stack"])
def test_split_march_equals_one_process(case, workers, monkeypatch, forks):
    # a march split into uneven ranges of path columns (41 paths in 2 or 3
    # processes), each range in blocks, gives every output of the one-process
    # march bit for bit: costs, leak, sup |X| and the law profile
    import mfgkit.particle as particle
    if case == "2d-stack":
        problem, g = _correlated_2d(), build_grid(2, -4.0, 4.0, 21, 0.5, 20)
        base = np.stack([-(1.0 - t) * g.coords() for t in g.times])
    else:
        e = get_entry("lq-riccati" if case == "1d-stack" else "uncontrolled-fp")
        problem, g = e.problem, build_grid(1, -6.0, 6.0, 61, 1.0, 20)
        base = feedback_policy(problem, g, lq_riccati_value(0.5, g))
    flow, n = _flow(problem, g), 41
    rng = np.random.default_rng(41)
    policies = [base] + [base + 0.3 * rng.standard_normal(base.shape)
                         for _ in range(4)]
    monkeypatch.setattr(particle, "FORK_WORK", 0)

    def march(processes):
        monkeypatch.setenv("MFGKIT_THREADS", str(processes))
        if case == "1d-law-check":
            return law_check(problem, g, flow, None, n, seed=29)
        profile = np.empty(g.nt + 1)
        return _march(problem, g, flow, lambda k: np.stack([p[k] for p in policies]),
                      len(policies), n, 29, law=profile) + (profile,)

    whole = march(1)
    assert forks == []
    monkeypatch.setattr(particle, "BLOCK_POINTS", 3 * len(policies))
    split = march(workers)
    assert len(forks) == workers - 1
    for a, b in zip(split, whole):
        assert np.array_equal(a, b)


def test_each_range_draws_the_normals_up_to_its_last_column(tmp_path, monkeypatch, forks):
    # in a march split over 3 processes, each range asks every step's Philox
    # stream for the normals up to its last column, no more; each process
    # records its requests in a file of its own
    import os
    import mfgkit.particle as particle
    stream = particle._stream

    class Recorded:
        def __init__(self, gen):
            self.gen = gen

        def __getattr__(self, name):
            return getattr(self.gen, name)

        def standard_normal(self, size):
            with open(tmp_path / str(os.getpid()), "a") as fh:
                fh.write(f"{size}\n")
            return self.gen.standard_normal(size)

    e = get_entry("lq-riccati")
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    policy = feedback_policy(e.problem, g, lq_riccati_value(0.5, g))
    monkeypatch.setattr(particle, "_stream", lambda seed, tag: Recorded(stream(seed, tag)))
    monkeypatch.setattr(particle, "FORK_WORK", 0)
    monkeypatch.setenv("MFGKIT_THREADS", "3")
    _march(e.problem, g, _flow(e.problem, g), lambda k: policy[k][None], 1, 41, 29)
    assert len(forks) == 2
    ranges = particle._ranges(41, 3, 1, 1)
    parent = (tmp_path / str(os.getpid())).read_text().split()
    assert parent == [str((ranges[0].stop,))] * g.nt
    workers = sorted(p.read_text() for p in tmp_path.iterdir()
                     if p.name != str(os.getpid()))
    assert workers == sorted(f"{(cols.stop,)}\n" * g.nt for cols in ranges[1:])


def _split_cost(monkeypatch, drift):
    """evaluate_cost of 50 paths split over this process and one forked
    worker, under the drift b0 = drift(t, x, in_worker)."""
    import os
    import mfgkit.particle as particle
    from mfgkit.cost import evaluate_cost
    parent = os.getpid()
    p = _problem(drift_b0=lambda t, x, m: drift(t, x, os.getpid() != parent))
    g = build_grid(1, -4.0, 4.0, 41, 1.0, 10)
    monkeypatch.setattr(particle, "FORK_WORK", 0)
    monkeypatch.setenv("MFGKIT_THREADS", "2")
    return evaluate_cost(p, g, _flow(p, g), np.zeros((g.nt + 1, g.nx)), 50, seed=1)


@pytest.mark.parametrize("failing", ["worker", "parent"])
def test_failed_range_fails_the_split_march(failing, monkeypatch, forks):
    # a drift that turns NaN mid-march in a worker's range, or in the range
    # this process marches, raises here, and every worker is reaped
    import os

    def drift(t, x, in_worker):
        bad = t > 0.3 and (failing == "worker") == in_worker
        return np.full_like(x, np.nan if bad else 0.0)
    with pytest.raises(ValueError, match="non-finite positions"):
        _split_cost(monkeypatch, drift)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_that_dies_fails_the_split_march(monkeypatch, forks):
    # a worker that ends without sending its result raises here
    import os

    def drift(t, x, in_worker):
        if in_worker and t > 0.3:
            os._exit(7)
        return np.zeros_like(x)
    with pytest.raises(RuntimeError, match="ended without a result"):
        _split_cost(monkeypatch, drift)
    assert len(forks) == 1


def test_unpicklable_worker_exception_arrives_as_its_repr(monkeypatch, forks):
    # a worker's exception that does not pickle (its args hold a lambda)
    # arrives as a RuntimeError carrying its repr
    import re
    error = ValueError("drift failed", lambda: None)

    def drift(t, x, in_worker):
        if in_worker:
            raise error
        return np.zeros_like(x)
    with pytest.raises(RuntimeError, match=re.escape(repr(error))):
        _split_cost(monkeypatch, drift)
    assert len(forks) == 1


def test_failed_parent_range_kills_a_slow_worker(monkeypatch, forks):
    # when this process's range fails, the worker is killed, not waited for:
    # its march would take 10 s
    import time

    def drift(t, x, in_worker):
        if in_worker:
            time.sleep(1.0)
        return np.full_like(x, np.nan if t > 0.3 and not in_worker else 0.0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="non-finite positions"):
        _split_cost(monkeypatch, drift)
    assert time.perf_counter() - start < 2.0
    assert len(forks) == 1


def test_interrupted_parent_range_propagates(monkeypatch, forks):
    # a KeyboardInterrupt in this process's range reaches the caller
    def drift(t, x, in_worker):
        if t > 0.3 and not in_worker:
            raise KeyboardInterrupt
        return np.zeros_like(x)
    with pytest.raises(KeyboardInterrupt):
        _split_cost(monkeypatch, drift)
    assert len(forks) == 1


@pytest.fixture(scope="module")
def lq_stack():
    """(problem, grid, flow, four policies): lq-riccati's feedback and three
    perturbations of it on a small grid."""
    e = get_entry("lq-riccati")
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    base = feedback_policy(e.problem, g, lq_riccati_value(0.5, g))
    rng = np.random.default_rng(43)
    return e.problem, g, _flow(e.problem, g), [base] + [
        base + 0.3 * rng.standard_normal(base.shape) for _ in range(3)]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=st.integers(1, 60), members=st.integers(1, 4),
       processes=st.integers(1, 3), data=st.data())
def test_any_split_equals_one_process(lq_stack, n, members, processes, data):
    # any path count, stack, process count and block width give the costs,
    # leak, sup |X| and law profile of the one-process, one-block march
    import os
    from unittest import mock
    import mfgkit.particle as particle
    problem, g, flow, policies = lq_stack
    block_points = data.draw(st.integers(members, members * n), label="block_points")

    def march():
        profile = np.empty(g.nt + 1)
        return _march(problem, g, flow, lambda k: np.stack([p[k] for p in policies[:members]]),
                      members, n, 29, law=profile) + (profile,)

    whole = march()
    with mock.patch.object(particle, "FORK_WORK", 0), \
            mock.patch.object(particle, "BLOCK_POINTS", block_points), \
            mock.patch.dict(os.environ, MFGKIT_THREADS=str(processes)):
        split = march()
    for a, b in zip(split, whole):
        assert np.array_equal(a, b)


def test_observed_march_stays_in_one_process(monkeypatch, forks):
    # an observer needs whole levels, so a march it watches never splits
    import mfgkit.particle as particle
    p = get_entry("uncontrolled-fp").problem
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 20)
    monkeypatch.setattr(particle, "FORK_WORK", 0)
    monkeypatch.setenv("MFGKIT_THREADS", "2")
    simulate(p, g, _flow(p, g), None, 41, seed=3)
    law_check(p, g, _flow(p, g), None, 41, seed=3, observe=lambda k, x: None)
    assert forks == []
    law_check(p, g, _flow(p, g), None, 41, seed=3)
    assert len(forks) == 1


@pytest.mark.parametrize("levels_per_run", [None, 7, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_law_profiles_equal_the_per_level_histogram_distance(dim, levels_per_run,
                                                             monkeypatch):
    # compare_law and the march's law profile take d1 on runs of levels (51
    # levels: runs of 7 leave a shorter last run); each level equals d1_grid
    # of histogram_density of that level's points
    import mfgkit.core as core
    from mfgkit.measure import d1_grid
    if dim == 1:
        problem, policy = get_entry("uncontrolled-fp").problem, None
        g = build_grid(1, -8.0, 8.0, 161, 1.0, 50)
    else:
        problem, g = _correlated_2d(), build_grid(2, -4.0, 4.0, 21, 0.5, 50)
        policy = np.stack([-(1.0 - t) * g.coords() for t in g.times])
    if levels_per_run is not None:
        monkeypatch.setattr(core, "LEVEL_BATCH", levels_per_run * g.n_nodes)
    flow = _flow(problem, g)
    ens = simulate(problem, g, flow, policy, 300, seed=13)
    ref = np.array([d1_grid(histogram_density(x, g)[0], d, g)
                    for x, d in zip(ens.positions, flow.densities)])
    assert np.array_equal(compare_law(ens, flow, g), ref)
    assert np.array_equal(law_check(problem, g, flow, policy, 300, seed=13)[0], ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_ranges_share_the_march_work_evenly(dim):
    # a range of width w ending at column b does members * w member-path-steps
    # and draws b columns' normals per step: the split evens that out to
    # within rounding, and every range keeps a column for any n >= parts
    import mfgkit.particle as particle
    cost = particle.NORMAL_COST[dim - 1]
    for parts in (1, 2, 3, 4):
        for members in (1, 3, 11):
            for n in list(range(parts, 60)) + [997, 10_000]:
                ranges = particle._ranges(n, parts, members, dim)
                assert len(ranges) == parts
                assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
                assert ranges[-1].stop == n
                assert all(r.stop > r.start for r in ranges)
                work = [members * (r.stop - r.start) + cost * r.stop for r in ranges]
                if n >= 997:
                    assert max(work) - min(work) <= 2 * (members + cost)
    # verify-lq's split: 11 members in 2 processes, 10,000 paths
    assert particle._ranges(10_000, 2, 11, 1)[0] == slice(0, 5217)
