import importlib

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from mfgkit.core import (ControlSpace, LineSystem, MeasureFlow, MeasureView,
                         ProblemSpec, _first_diff, _interpolate, _mixed_diff,
                         build_grid,
                         diffusion_coefficients, discretize_initial_density,
                         interpolate_field)
from mfgkit.catalog import gaussian_density, get_entry


def test_build_grid_nodes_and_dt():
    g = build_grid(1, -1.0, 1.0, 3, 1.0, 2)
    assert np.array_equal(g.axis(0), [-1.0, 0.0, 1.0])
    assert g.dt == 0.5


def test_build_grid_spacing():
    g = build_grid(1, 0.0, 10.0, 11, 1.0, 10)
    assert g.h[0] == 1.0
    assert np.allclose(g.times, np.arange(11) * 0.1)


def test_build_grid_2d_tensor():
    g = build_grid(2, -6.0, 6.0, 121, 1.0, 200)
    assert g.shape == (121, 121)
    assert g.n_nodes == 121 ** 2
    assert g.h == (0.1, 0.1)


def test_build_grid_nodes_bit_reproducible():
    a = build_grid(1, -5.3, 7.1, 257, 2.0, 100).axis(0)
    b = build_grid(1, -5.3, 7.1, 257, 2.0, 100).axis(0)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_arrays_are_cached_read_only_and_per_grid(dim):
    # each derived value is computed once per grid and equals its formula
    # computed fresh; the arrays are read-only; a refined or rebuilt grid
    # has values of its own
    def fresh(g):
        h = tuple((g.x_max[d] - g.x_min[d]) / (g.nx - 1) for d in range(g.dim))
        axes = tuple(g.x_min[d] + np.arange(g.nx) * h[d] for d in range(g.dim))
        coords = axes[0] if g.dim == 1 else np.stack(
            np.meshgrid(*axes, indexing="ij"), axis=-1)
        return (h, g.horizon / g.nt, float(np.prod(h)), axes,
                np.arange(g.nt + 1) * (g.horizon / g.nt), coords)

    def cached(g):
        return g.h, g.dt, g.cell_volume, g.axes, g.times, g.coords()

    g = build_grid(dim, -1.3, 2.9, 17, 0.7, 9)
    first = cached(g)
    for grid in (g, g.refine(), g.refine(3), build_grid(dim, -2.0, 1.0, 9, 2.0, 5)):
        h, dt, volume, axes, times, coords = cached(grid)
        f_h, f_dt, f_volume, f_axes, f_times, f_coords = fresh(grid)
        assert (h, dt, volume) == (f_h, f_dt, f_volume)
        for a, b in zip(axes + (times, coords), f_axes + (f_times, f_coords)):
            assert np.array_equal(a, b) and a.dtype == b.dtype
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert all(grid.axis(d) is axes[d] for d in range(dim))
        assert all(a is b for a, b in zip(cached(grid), (h, dt, volume, axes, times, coords)))
    assert all(a is b for a, b in zip(cached(g), first))
    twin = build_grid(dim, -1.3, 2.9, 17, 0.7, 9)
    assert twin == g and twin.coords() is not g.coords()


@pytest.mark.parametrize("bad", [
    dict(nx=2), dict(nt=0), dict(x_min=2.0, x_max=1.0),
    dict(x_min=float("nan")), dict(horizon=-1.0),
])
def test_build_grid_rejects(bad):
    kw = dict(dim=1, x_min=-1.0, x_max=1.0, nx=5, horizon=1.0, nt=4)
    kw.update(bad)
    with pytest.raises(ValueError):
        build_grid(kw["dim"], kw["x_min"], kw["x_max"], kw["nx"],
                   kw["horizon"], kw["nt"])


def test_interpolate_constant_field():
    g = build_grid(1, -2.0, 2.0, 41, 1.0, 4)
    f = np.full(41, 5.0)
    assert interpolate_field(f, g, 0.123) == pytest.approx(5.0, abs=1e-14)


def test_interpolate_linear_1d():
    g = build_grid(1, 0.0, 1.0, 11, 1.0, 4)
    f = g.axis(0).copy()
    assert interpolate_field(f, g, 0.35) == pytest.approx(0.35, abs=1e-14)


def test_interpolate_affine_2d():
    g = build_grid(2, 0.0, 1.0, 11, 1.0, 4)
    c = g.coords()
    f = c[..., 0] + 2.0 * c[..., 1]
    assert interpolate_field(f, g, np.array([0.25, 0.75])) == pytest.approx(1.75, abs=1e-13)


def test_interpolate_affine_exact_random_points(rng):
    g = build_grid(1, -3.0, 2.0, 31, 1.0, 4)
    f = 1.7 * g.axis(0) - 0.3
    pts = rng.uniform(-3.0, 2.0, 50)
    out = interpolate_field(f, g, pts)
    assert np.allclose(out, 1.7 * pts - 0.3, atol=1e-12)


def test_interpolate_clamps_outside():
    g = build_grid(1, 0.0, 1.0, 11, 1.0, 4)
    f = g.axis(0).copy()
    assert interpolate_field(f, g, 5.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        interpolate_field(f, g, float("nan"))


def _cell(c, lo, h, nx):
    # the lower node index and fraction of each point along one axis
    s = np.clip((c - lo) / h, 0.0, nx - 1.0)
    i = np.minimum(s.astype(int), nx - 2)
    return i, s - i


def test_interpolate_matches_written_out_formulas(rng):
    g = build_grid(1, -3.0, 2.0, 31, 1.0, 4)
    v = rng.standard_normal(31)
    x = np.concatenate([rng.uniform(-4.0, 3.0, 300), [-3.0, 2.0, -7.5, 9.0]])
    i, f = _cell(x, g.x_min[0], g.h[0], g.nx)
    assert np.array_equal(interpolate_field(v, g, x), v[i] * (1 - f) + v[i + 1] * f)
    assert interpolate_field(v, g, 2.0) == v[-1]

    g = build_grid(2, [-3.0, -1.0], [2.0, 4.0], 21, 1.0, 4)
    v = rng.standard_normal((21, 21, 2))
    x = np.concatenate([rng.uniform([-4.0, -2.0], [3.0, 5.0], (300, 2)),
                        [[2.0, 4.0], [-3.0, -1.0], [9.0, -9.0], [2.0, 0.3]]])
    (i, fi), (j, fj) = (_cell(x[:, d], g.x_min[d], g.h[d], g.nx) for d in range(2))
    both = interpolate_field(v, g, x)
    assert both.shape == (len(x), 2)
    for c in range(2):
        w = v[..., c]
        ref = (w[i, j] * (1 - fi) * (1 - fj) + w[i + 1, j] * fi * (1 - fj)
               + w[i, j + 1] * (1 - fi) * fj + w[i + 1, j + 1] * fi * fj)
        assert np.array_equal(interpolate_field(w, g, x), ref)
        assert np.array_equal(both[:, c], ref)
    assert np.array_equal(interpolate_field(v, g, x[0]), both[0])
    assert interpolate_field(v[..., 0], g, np.array([2.0, 4.0])) == v[-1, -1, 0]
    with pytest.raises(ValueError, match="field shape"):
        interpolate_field(v[:20], g, x)


def test_stacked_interpolation_matches_written_out_formulas(rng):
    # the kernel on a stack of 3 fields, each member's points offset to its
    # own field by base, gives each member the written-out formulas bit for bit
    members = 3
    g = build_grid(1, -3.0, 2.0, 31, 1.0, 4)
    v = rng.standard_normal((members, 31))
    x = np.concatenate([rng.uniform(-4.0, 3.0, (members, 200)),
                        np.tile([-3.0, 2.0, -7.5, 9.0], (members, 1))], axis=1)
    base = (np.arange(members) * g.n_nodes)[:, None]
    out = _interpolate(v.reshape(-1, 1).T, g, x[..., None], base)
    assert out.shape == (1,) + x.shape
    for j in range(members):
        i, f = _cell(x[j], g.x_min[0], g.h[0], g.nx)
        assert np.array_equal(out[0, j], v[j, i] * (1 - f) + v[j, i + 1] * f)

    g = build_grid(2, [-3.0, -1.0], [2.0, 4.0], 21, 1.0, 4)
    v = rng.standard_normal((members, 21, 21, 2))
    x = np.concatenate([rng.uniform([-4.0, -2.0], [3.0, 5.0], (members, 200, 2)),
                        np.tile([[2.0, 4.0], [-3.0, -1.0], [9.0, -9.0], [2.0, 0.3]],
                                (members, 1, 1))], axis=1)
    base = (np.arange(members) * g.n_nodes)[:, None]
    out = _interpolate(v.reshape(-1, 2).T, g, x, base)
    assert out.shape == (2,) + x.shape[:-1]
    for j in range(members):
        (i, fi), (k, fk) = (_cell(x[j, :, d], g.x_min[d], g.h[d], g.nx) for d in range(2))
        for c in range(2):
            w = v[j, ..., c]
            ref = (w[i, k] * (1 - fi) * (1 - fk) + w[i + 1, k] * fi * (1 - fk)
                   + w[i, k + 1] * (1 - fi) * fk + w[i + 1, k + 1] * fi * fk)
            assert np.array_equal(out[c, j], ref)


def test_diffusion_tensor_equals_broadcast_then_einsum():
    g = build_grid(2, -3.0, 3.0, 61, 1.0, 4)
    c = g.coords()

    def varying(t, x, m):
        s = np.empty(x.shape[:-1] + (2, 2))
        s[..., 0, 0] = 1.0 + 0.2 * np.tanh(x[..., 0])
        s[..., 0, 1] = 0.3 * np.sin(x[..., 1])
        s[..., 1, 0] = 0.1 * x[..., 0]
        s[..., 1, 1] = 1.1 + 0.05 * x[..., 1] ** 2
        return s

    for sigma in (lambda t, x, m: np.array([[1.3, 0.4], [-0.2, 0.9]]), varying):
        p = _dummy_problem(dim=2, diffusion_sigma=sigma)
        (a11, a22), a12 = diffusion_coefficients(p, 0.0, c, None)
        sig = np.broadcast_to(sigma(0.0, c, None), c.shape[:-1] + (2, 2))
        a = 0.5 * np.einsum("...ik,...jk->...ij", sig, sig)
        assert np.array_equal(a11, a[..., 0, 0])
        assert np.array_equal(a22, a[..., 1, 1])
        assert np.array_equal(a12, a[..., 0, 1])
        assert a11.shape == a12.shape == g.shape


def _dummy_problem(**kw):
    base = dict(
        dim=1, horizon=1.0,
        drift_b0=lambda t, x, m: np.zeros_like(x),
        drift_b1=lambda t, x, a: a,
        diffusion_sigma=lambda t, x, m: np.ones_like(x),
        running_f0=lambda t, x, m: np.zeros_like(x),
        running_f1=lambda t, x, a: 0.5 * a * a,
        terminal_g=lambda x, m: np.zeros_like(x),
        initial_density=gaussian_density(0.0, 0.25),
        gamma1=0.5, gamma2=0.5, lipschitz=1.0)
    base.update(kw)
    return ProblemSpec(**base)


def test_problem_spec_rejects_bad_gammas():
    with pytest.raises(ValueError):
        _dummy_problem(gamma1=0.0)
    with pytest.raises(ValueError):
        _dummy_problem(gamma1=2.0, gamma2=1.0)
    with pytest.raises(ValueError):
        _dummy_problem(dim=3)


def test_initial_density_unit_mass_after_renormalization():
    p = _dummy_problem()
    g = build_grid(1, -6.0, 6.0, 241, 1.0, 10)
    m0, leak = discretize_initial_density(p, g)
    assert abs(m0.sum() * g.cell_volume - 1.0) <= 1e-8
    assert leak < 1e-8  # the catalog box swallows the Gaussian


def test_measure_flow_invariants():
    g = build_grid(1, -1.0, 1.0, 21, 1.0, 3)
    d = np.full((4, 21), 1.0 / (21 * g.h[0]))
    flow = MeasureFlow(d, g)
    flow.validate()
    bad = d.copy()
    bad[2, 5] = -1e-6
    with pytest.raises(ValueError):
        MeasureFlow(bad, g).validate()


def test_measure_flow_view_is_one_per_level():
    g = build_grid(1, -1.0, 1.0, 21, 1.0, 3)
    flow = MeasureFlow.constant_in_time(np.full(21, 1.0 / (21 * g.h[0])), g)
    assert flow.view(2) is flow.view(2)
    assert flow.view(1) is not flow.view(2)


def test_first_diff_equals_numpy_gradient(rng):
    v = rng.normal(size=17)
    for h in (1.0, 0.37, 1e-3):
        assert np.array_equal(_first_diff(v, h), np.gradient(v, h))
    w = rng.normal(size=(13, 9)) * 1e3
    for axis, h in ((0, 0.25), (1, 0.7)):
        assert np.array_equal(_first_diff(w, h, axis=axis), np.gradient(w, h, axis=axis))


def test_mixed_diff_is_central_inside_and_zero_on_the_rim(rng):
    # inside, the nested central first differences bit for bit; the rim, which
    # the HJB wall closure discards and the residuals never read, stays zero
    v = rng.normal(size=(9, 12)) * 1e3
    h = (0.3, 0.7)
    out = _mixed_diff(v, h)
    ref = np.gradient(np.gradient(v, h[0], axis=0), h[1], axis=1)
    assert np.array_equal(out[1:-1, 1:-1], ref[1:-1, 1:-1])
    rim = np.ones(v.shape, dtype=bool)
    rim[1:-1, 1:-1] = False
    assert np.all(out[rim] == 0.0)


@pytest.mark.parametrize("w", [1])
def test_line_system_raises_on_a_singular_band(w):
    lines = LineSystem(lambda a: np.zeros((2 * w + 1,) + a.shape))
    with pytest.raises(LinAlgError, match="singular"):
        lines.solve(np.ones(8), np.ones(8))
    assert lines.a is None  # nothing half-stored


def test_measure_view_summaries():
    g = build_grid(1, -8.0, 8.0, 801, 1.0, 3)
    m = gaussian_density(0.7, 0.5)(g.axis(0))
    m /= m.sum() * g.cell_volume
    v = MeasureView(m, g)
    assert v.mean == pytest.approx(0.7, abs=1e-6)
    assert v.second_moment == pytest.approx(0.5 + 0.49, abs=1e-4)
    # 2D: a product Gaussian with means (0.7, -0.4), variances 0.5 and 0.3
    g = build_grid(2, -8.0, 8.0, 321, 1.0, 3)
    x = g.coords()
    m = gaussian_density(0.7, 0.5)(x[..., 0]) * gaussian_density(-0.4, 0.3)(x[..., 1])
    m /= m.sum() * g.cell_volume
    v = MeasureView(m, g)
    assert v.mean.shape == (2,)
    assert v.mean == pytest.approx([0.7, -0.4], abs=1e-6)
    assert v.second_moment == pytest.approx(0.5 + 0.49 + 0.3 + 0.16, abs=1e-4)


def test_no_blas_call_on_the_solve_path():
    # a BLAS call on a flow-sized array wakes OpenBLAS's thread pool, which
    # then spins on a second core: the solve path uses elementwise sums only
    import ast
    import inspect
    from mfgkit import core, cost, fp, hamiltonian, hjb, measure, mfg, particle
    sources = [inspect.getsource(mod) for mod in (core, hjb, fp, mfg, measure, particle,
                                                   cost)]
    sources += [inspect.getsource(f) for f in (hamiltonian.minimize_H, hamiltonian._dot)]
    found = []
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"@ at line {node.lineno}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name, owner = node.func.attr, node.func.value
                if name == "dot" or (name in ("vdot", "tensordot", "matmul", "inner")
                                     and isinstance(owner, ast.Name) and owner.id == "np"):
                    found.append(f"{name} at line {node.lineno}")
    assert found == []


def test_control_space_box_and_clip():
    cs = ControlSpace.box(-1.0, 2.0, 5)
    assert cs.bounded
    assert np.allclose(cs.axes()[0], [-1.0, -0.25, 0.5, 1.25, 2.0])
    assert cs.clip(np.array([-5.0, 3.0])).tolist() == [-1.0, 2.0]
    with pytest.raises(ValueError):
        ControlSpace.box(1.0, -1.0, 5)


def test_catalog_entries_build():
    for name in ("decoupled-hopfcole", "lq-riccati", "example5-weak",
                 "uncontrolled-fp"):
        e = get_entry(name)
        assert e.problem.dim == 1
        assert e.grid.nx >= 3


@pytest.mark.parametrize("module", ["core", "measure", "hamiltonian", "hjb", "fp",
                                    "mfg", "oracle", "particle", "cost"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"mfgkit.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_interior_keeps_ten_wall_nodes_out_where_the_grid_allows():
    # the residual and oracle checks read these nodes; below 21 nodes the
    # margin shrinks so that one node or more stays inside
    for nx, margin in ((4, 1), (15, 7), (20, 9), (21, 10), (241, 10)):
        grid = build_grid(1, -1.0, 1.0, nx, 1.0, 4)
        assert grid.interior() == slice(margin, -margin)
        assert np.arange(nx)[grid.interior()].size >= 1


def test_interior_margin_zero_is_every_node_and_a_negative_one_fails():
    for dim in (1, 2):
        grid = build_grid(dim, -1.0, 1.0, 9, 1.0, 4)
        assert np.arange(9)[grid.interior(0)].tolist() == list(range(9))
        assert np.arange(9)[grid.interior(3)].tolist() == [3, 4, 5]
        with pytest.raises(ValueError, match="margin"):
            grid.interior(-1)
