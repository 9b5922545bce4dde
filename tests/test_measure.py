import numpy as np
import pytest

from mfgkit.core import MeasureFlow, build_grid
from mfgkit.measure import (_cell_counts, _histogram_d1, d1_atoms, d1_grid, d1_lp,
                            flow_distance, flow_regularity, histogram_density,
                            second_moment, second_moment_atoms)
from mfgkit.oracle import heat_flow_density
from mfgkit.catalog import gaussian_density


def _grid(nx=101, lo=-5.0, hi=5.0):
    return build_grid(1, lo, hi, nx, 1.0, 4)


def _density(grid, fn):
    m = fn(grid.axis(0))
    return m / (m.sum() * grid.h[0])


def test_d1_identical_measures():
    g = _grid()
    m = _density(g, gaussian_density(0.0, 1.0))
    assert d1_grid(m, m, g) == 0.0


def test_d1_point_masses():
    # one-node histograms at a and b transport at cost |a - b|
    g = _grid(nx=101, lo=0.0, hi=10.0)
    m1 = np.zeros(101); m1[20] = 1.0 / g.h[0]
    m2 = np.zeros(101); m2[70] = 1.0 / g.h[0]
    a, b = g.axis(0)[20], g.axis(0)[70]
    assert d1_grid(m1, m2, g) == pytest.approx(abs(a - b), abs=1e-12)


def test_d1_lp_dirac_split():
    # delta_0 vs (delta_-1 + delta_+1)/2: each half moves distance 1
    assert d1_lp([0.0], [1.0], [-1.0, 1.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-9)
    assert d1_lp([0.0], [1.0], [0.0], [1.0]) == pytest.approx(0.0, abs=1e-12)


def test_d1_1d_matches_lp_on_grid_densities(rng):
    g = _grid(nx=10, lo=0.0, hi=3.0)
    for _ in range(5):
        m1 = _density(g, lambda x: rng.random(x.size) + 0.05)
        m2 = _density(g, lambda x: rng.random(x.size) + 0.05)
        ref = d1_lp(g.axis(0), m1 * g.h[0], g.axis(0), m2 * g.h[0])
        assert d1_grid(m1, m2, g) == pytest.approx(ref, abs=1e-9)


def test_d1_errors():
    g = _grid()
    m = _density(g, gaussian_density(0.0, 1.0))
    with pytest.raises(ValueError):
        d1_grid(m, m[:-1], g)
    with pytest.raises(ValueError):
        d1_grid(m, m * 1.5, g)


def test_d1_gaussian_translation():
    # W1 between equal-variance Gaussians is the mean shift
    g = build_grid(1, -10.0, 10.0, 2001, 1.0, 4)
    m1 = _density(g, gaussian_density(-0.7, 0.49))
    m2 = _density(g, gaussian_density(0.5, 0.49))
    assert d1_grid(m1, m2, g) == pytest.approx(1.2, abs=2e-3)


def test_d1_metric_axioms(rng):
    g = _grid(nx=40, lo=0.0, hi=4.0)
    for _ in range(30):
        ms = [_density(g, lambda x: rng.random(x.size) + 0.02) for _ in range(3)]
        dab = d1_grid(ms[0], ms[1], g)
        dba = d1_grid(ms[1], ms[0], g)
        assert dab == dba  # symmetry exact
        dac = d1_grid(ms[0], ms[2], g)
        dcb = d1_grid(ms[2], ms[1], g)
        assert dab <= dac + dcb + 1e-12
    m = ms[0]
    assert d1_grid(m, m.copy(), g) == 0.0


def test_d1_atoms_reorder_invariance(rng):
    x = rng.uniform(-2, 2, 20)
    w = rng.random(20)
    y = rng.uniform(-2, 2, 15)
    v = rng.random(15)
    base = d1_atoms(x, w, y, v)
    p = rng.permutation(20)
    q = rng.permutation(15)
    assert d1_atoms(x[p], w[p], y[q], v[q]) == pytest.approx(base, abs=1e-12)
    assert second_moment_atoms(x[p], w[p]) == pytest.approx(
        second_moment_atoms(x, w), abs=1e-12)


def test_second_moment_point_mass():
    g = _grid(nx=101, lo=-5.0, hi=5.0)
    m = np.zeros(101); m[50] = 1.0 / g.h[0]  # node at x = 0
    assert second_moment(m, g) == pytest.approx(0.0, abs=1e-15)


def test_second_moment_gaussian():
    g = build_grid(1, -8.0, 8.0, 1601, 1.0, 4)  # h = 0.01
    m = _density(g, gaussian_density(0.0, 1.0))
    assert second_moment(m, g) == pytest.approx(1.0, abs=1e-4)


def test_second_moment_uniform():
    # node-atom quadrature bias is 2/(3(nx-1)); nx large enough for 1e-6
    g = build_grid(1, -1.0, 1.0, 2_000_001, 1.0, 4)
    m = _density(g, lambda x: np.ones_like(x))
    assert second_moment(m, g) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_flow_regularity_constant_flow():
    g = _grid()
    m = _density(g, gaussian_density(0.0, 1.0))
    flow = MeasureFlow.constant_in_time(m, build_grid(1, -5.0, 5.0, 101, 1.0, 20))
    rep = flow_regularity(flow, build_grid(1, -5.0, 5.0, 101, 1.0, 20))
    assert rep.holder_half_seminorm == 0.0
    assert rep.implied_C1 == rep.max_second_moment


def test_flow_regularity_heat_flow_stabilizes():
    # analytic Gaussian spreading flow: seminorm finite, stable under refinement
    reps = []
    for nx, nt in ((161, 50), (321, 100)):
        g = build_grid(1, -8.0, 8.0, nx, 0.5, nt)
        rep = flow_regularity(heat_flow_density(0.0, 0.25, np.sqrt(2.0), g), g)
        assert np.isfinite(rep.holder_half_seminorm)
        reps.append(rep.holder_half_seminorm)
    assert abs(reps[1] - reps[0]) / reps[0] < 0.1


def test_flow_regularity_implied_c1_is_max():
    g = build_grid(1, -8.0, 8.0, 161, 0.5, 50)
    rep = flow_regularity(heat_flow_density(0.0, 0.25, np.sqrt(2.0), g), g)
    assert rep.implied_C1 == max(rep.holder_half_seminorm, rep.max_second_moment)


def test_histogram_single_node():
    g = _grid(nx=21, lo=0.0, hi=2.0)
    d, leak = histogram_density(np.full(50, g.axis(0)[7]), g)
    assert leak == 0.0
    assert d[7] == pytest.approx(1.0 / g.h[0])
    assert d.sum() * g.h[0] == pytest.approx(1.0)


def test_histogram_two_points():
    g = _grid(nx=21, lo=-2.0, hi=2.0)
    d, _ = histogram_density(np.array([-1.0, 1.0]), g)
    i1 = np.argmin(np.abs(g.axis(0) + 1.0))
    i2 = np.argmin(np.abs(g.axis(0) - 1.0))
    assert d[i1] * g.h[0] == pytest.approx(0.5)
    assert d[i2] * g.h[0] == pytest.approx(0.5)


def test_histogram_normal_sample_close_to_gaussian(rng):
    g = build_grid(1, -8.0, 8.0, 321, 1.0, 4)
    pts = rng.standard_normal(1_000_000)
    d, leak = histogram_density(pts, g)
    ref = _density(g, gaussian_density(0.0, 1.0))
    assert leak < 1e-5
    assert d1_grid(d, ref, g) <= 5e-3


def test_histogram_leak_counted():
    g = _grid(nx=21, lo=0.0, hi=2.0)
    d, leak = histogram_density(np.array([1.0, 5.0, -3.0, 1.5]), g)
    assert leak == pytest.approx(0.5)
    with pytest.raises(ValueError):
        histogram_density(np.array([]), g)


def test_d1_grid_2d_marginal_max():
    g = build_grid(2, -2.0, 2.0, 21, 1.0, 4)
    c = g.coords()
    m1 = np.exp(-(c ** 2).sum(-1))
    m1 /= m1.sum() * g.cell_volume
    m2 = np.exp(-((c - 0.4) ** 2).sum(-1) / 0.8)
    m2 /= m2.sum() * g.cell_volume
    v = d1_grid(m1, m2, g)
    assert 0 < v < 2.0
    assert d1_grid(m1, m1, g) == 0.0


def _heat_flows(dim, nx, nt):
    # unequal spacing per axis in 2D
    g = build_grid(dim, [-6.0, -7.0][:dim], [6.0, 7.0][:dim], nx, 0.5, nt)
    a = heat_flow_density(0.0, 0.25, np.sqrt(2.0), g)
    b = heat_flow_density([0.4, -0.2][:dim], 0.3, np.sqrt(2.0), g)
    return g, a, b


def test_1d_kernel_equals_cdf_formulas_bit_for_bit():
    g, a, b = _heat_flows(1, 161, 50)
    da, db, h = a.densities, b.densities, g.h[0]
    for k, j in ((0, 0), (17, 3), (50, 49)):
        # one pair: renormalize, difference, then running sum
        m1 = da[k] / (da[k].sum() * h)
        m2 = db[j] / (db[j].sum() * h)
        ref = float(np.sum(np.abs(np.cumsum((m1 - m2) * h)[:-1])) * h)
        assert d1_grid(da[k], db[j], g) == ref
    diff = np.cumsum((da - db) * h, axis=1)[:, :-1]
    assert flow_distance(a, b, g) == float(np.max(np.sum(np.abs(diff), axis=1) * h))
    # regularity: CDFs first, then the difference of every pair >= 2 dt apart
    cdf = np.cumsum(da * h, axis=1)[:, :-1]
    worst = 0.0
    for k in range(g.nt + 1):
        lo = k + 2
        if lo > g.nt:
            break
        dists = np.sum(np.abs(cdf[lo:] - cdf[k]), axis=1) * h
        gaps = (np.arange(lo, g.nt + 1) - k) * g.dt
        worst = max(worst, float(np.max(dists / np.sqrt(gaps))))
    rep = flow_regularity(a, g)
    assert rep.holder_half_seminorm == worst
    assert rep.max_second_moment == float(np.max((da * g.axis(0) ** 2).sum(axis=1) * h))


def _marginal_max_d1(m1, m2, g):
    """2D grid d1 of one pair, written per axis: the 1D CDF distance between
    the marginals of the renormalized densities, maxed over the two axes."""
    m1 = m1 / (m1.sum() * g.cell_volume)
    m2 = m2 / (m2.sum() * g.cell_volume)
    best = 0.0
    for axis in (0, 1):
        other = 1 - axis
        p1 = m1.sum(axis=other) * g.h[other]
        p2 = m2.sum(axis=other) * g.h[other]
        diff = np.cumsum((p1 - p2) * g.h[axis])[:-1]
        best = max(best, float(np.sum(np.abs(diff)) * g.h[axis]))
    return best


def test_2d_kernel_matches_per_level_and_per_pair_loops():
    g, a, b = _heat_flows(2, 31, 10)
    da, db = a.densities, b.densities
    levels = range(g.nt + 1)
    assert d1_grid(da[3], db[7], g) == pytest.approx(
        _marginal_max_d1(da[3], db[7], g), rel=1e-12, abs=0)
    ref = max(_marginal_max_d1(da[k], db[k], g) for k in levels)
    assert ref > 0.1
    assert flow_distance(a, b, g) == pytest.approx(ref, rel=1e-12, abs=0)
    worst = max(_marginal_max_d1(da[j], da[k], g) / np.sqrt((j - k) * g.dt)
                for k in levels for j in range(k + 2, g.nt + 1))
    rep = flow_regularity(a, g)
    assert rep.holder_half_seminorm == pytest.approx(worst, rel=1e-12, abs=0)
    sq = (g.coords() ** 2).sum(axis=-1)
    moments = (da * sq).sum(axis=(1, 2)) * g.cell_volume
    assert rep.max_second_moment == pytest.approx(moments.max(), rel=1e-12, abs=0)


def test_histogram_2d_puts_each_point_in_its_cell():
    g = build_grid(2, -2.0, 2.0, 21, 1.0, 4)
    cells = [(3, 17), (10, 10), (3, 17), (19, 1)]
    pts = [[g.axis(0)[i] + 0.05, g.axis(1)[j] - 0.05] for i, j in cells]
    pts.append([2.5, -3.0])  # outside the box: clamped to the corner node
    cells.append((20, 0))
    d, leak = histogram_density(np.array(pts), g)
    counts = np.zeros(g.shape)
    for i, j in cells:
        counts[i, j] += 1
    assert leak == pytest.approx(1 / 5)
    assert np.array_equal(d, counts / (5 * g.cell_volume))


@pytest.mark.parametrize("defect", ["mass", "negative"])
def test_flow_functions_reject_invalid_1d_flows(defect):
    g, good, _ = _heat_flows(1, 161, 20)
    dens = good.densities.copy()
    if defect == "mass":
        dens *= 1.5
    else:
        dens[5, 0] = -1e-9  # a tail entry: the mass stays within tolerance
    bad = MeasureFlow(dens, g)
    with pytest.raises(ValueError):
        flow_distance(bad, good, g)
    with pytest.raises(ValueError):
        flow_distance(good, bad, g)
    with pytest.raises(ValueError):
        flow_regularity(bad, g)


def _catalog_flow(name):
    from mfgkit.catalog import get_entry
    from mfgkit.mfg import solve_mfg
    e = get_entry(name)
    g = build_grid(1, e.grid.x_min, e.grid.x_max, 61, e.grid.horizon, 40)
    _, m, _ = solve_mfg(e.problem, g)
    return g, m


def _random_flow():
    # independent random levels: no smoothness in time for the bound to use
    g = build_grid(1, -3.0, 3.0, 41, 1.0, 40)
    dens = np.random.default_rng(5).random((g.nt + 1,) + g.shape) ** 4
    return g, MeasureFlow(dens / (dens.sum(axis=1, keepdims=True) * g.h[0]), g)


def _late_jump_flow():
    # still, then a jump over two levels near the end: the sup sits in a late
    # level, so every level before it must be bounded soundly
    g = build_grid(1, -3.0, 3.0, 41, 1.0, 40)
    centers = np.clip((np.arange(g.nt + 1) - 29) * 0.5, 0.0, 1.0)
    dens = np.exp(-(g.axis(0)[None, :] - centers[:, None]) ** 2 / 0.5)
    return g, MeasureFlow(dens / (dens.sum(axis=1, keepdims=True) * g.h[0]), g)


@pytest.mark.parametrize("case", ["decoupled-hopfcole", "lq-riccati",
                                  "example5-weak", "uncontrolled-fp", "heat-2d",
                                  "random", "late-jump"])
def test_flow_regularity_pruning_keeps_the_all_pairs_sup(case, monkeypatch):
    # the triangle-inequality pruning skips levels but not the sup: every
    # pair >= 2 dt apart, written out one by one, gives the same bits
    import mfgkit.measure as measure
    if case == "heat-2d":
        g, flow, _ = _heat_flows(2, 31, 30)
    elif case == "random":
        g, flow = _random_flow()
    elif case == "late-jump":
        g, flow = _late_jump_flow()
    else:
        g, flow = _catalog_flow(case)
    cdfs = measure._marginal_cdfs(flow.densities, g)
    worst = 0.0
    for k in range(g.nt + 1):
        for j in range(k + 2, g.nt + 1):
            d = max(float(np.sum(np.abs(f[j] - f[k])) * h) for f, h in zip(cdfs, g.h))
            worst = max(worst, d / np.sqrt((j - k) * g.dt))
    rows = []
    kernel = measure._d1
    monkeypatch.setattr(measure, "_d1", lambda diffs, grid: rows.append(
        diffs[0].shape[0]) or kernel(diffs, grid))
    assert flow_regularity(flow, g).holder_half_seminorm == worst
    assert worst > 0
    # the consecutive distances, then one call per level not skipped
    assert rows[0] == g.nt and len(rows) - 1 <= g.nt - 1
    if case not in ("random", "late-jump"):  # smooth: most levels skipped
        assert len(rows) - 1 < g.nt // 4


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_counts_equal_ravel_multi_index(dim):
    # the flat cell index by row-major arithmetic: points inside and outside
    # the box, and points halfway between two nodes (rint ties to even)
    g = build_grid(dim, -2.0, 3.0, 26, 1.0, 4)
    rng = np.random.default_rng(3)
    lo, hi, h = np.array(g.x_min), np.array(g.x_max), np.array(g.h)
    pts = np.concatenate([rng.uniform(-4.0, 5.0, (5000, dim)),
                          lo + (rng.integers(0, g.nx - 1, (50, dim)) + 0.5) * h])
    assert np.any(pts < lo) and np.any(pts > hi)
    idx = np.clip(np.rint((pts - lo) / h).astype(int), 0, g.nx - 1)
    ref = np.bincount(np.ravel_multi_index(tuple(idx.T), g.shape), minlength=g.n_nodes)
    assert np.array_equal(_cell_counts(pts, g), ref)


@pytest.mark.parametrize("levels_per_run", [None, 4, 1])
@pytest.mark.parametrize("dim", [1, 2])
def test_histogram_d1_equals_d1_grid_level_by_level(dim, levels_per_run, monkeypatch):
    # 11 levels: runs of 4 leave a shorter last run, runs of 1 are the loop
    import mfgkit.core as core
    g = build_grid(dim, -7.0, 7.0, 31, 1.0, 10)
    if levels_per_run is not None:
        monkeypatch.setattr(core, "LEVEL_BATCH", levels_per_run * g.n_nodes)
    flow = heat_flow_density([0.2] * dim, 0.5, 1.0, g).densities
    rng = np.random.default_rng(9)
    n = 700
    points = [rng.normal(0.3, 1.2, (n, dim)) for _ in flow]
    counts = np.stack([_cell_counts(x, g) for x in points])
    ref = [d1_grid(histogram_density(x, g)[0], d, g) for x, d in zip(points, flow)]
    assert np.array_equal(_histogram_d1(counts, n, flow, g), ref)
