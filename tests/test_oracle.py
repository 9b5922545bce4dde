import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfgkit.core import build_grid
from mfgkit.measure import second_moment
from mfgkit.oracle import (OracleSelfCheckError, heat_flow_density,
                           hopf_cole_value, lq_riccati_value)


def test_hopf_cole_constant_terminal():
    g = build_grid(1, -4.0, 4.0, 81, 1.0, 20)
    u = hopf_cole_value(lambda x: np.full_like(x, 3.0), g)
    assert np.allclose(u.values, 3.0, atol=1e-10)
    assert np.allclose(u.du, 0.0, atol=1e-10)


def test_hopf_cole_terminal_condition():
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 10)
    G = lambda x: 12.5 * np.tanh(x * x / 25.0)
    u = hopf_cole_value(G, g)
    assert np.max(np.abs(u.values[-1] - G(g.axis(0)))) <= 1e-6


def test_hopf_cole_self_check_runs():
    g = build_grid(1, -6.0, 6.0, 121, 1.0, 10)
    hopf_cole_value(lambda x: 8.0 * np.tanh(x * x / 16.0), g)


def test_hopf_cole_checks_the_levels_it_returns(monkeypatch):
    # each convolved level shifted one lattice node: the node selection off by one
    import scipy.signal
    convolve = scipy.signal.fftconvolve
    monkeypatch.setattr(scipy.signal, "fftconvolve",
                        lambda *a, **kw: np.roll(convolve(*a, **kw), 1))
    g = build_grid(1, -6.0, 6.0, 61, 1.0, 100)
    with pytest.raises(OracleSelfCheckError, match="level"):
        hopf_cole_value(lambda x: 8.0 * np.tanh(x * x / 16.0), g)


def test_hopf_cole_agrees_with_riccati_inside_box():
    # c x^2 uncapped within the box: two independent oracles, one instance
    g = build_grid(1, -6.0, 6.0, 241, 1.0, 40)
    c = 0.5
    hc = hopf_cole_value(lambda x: c * x * x, g)
    ric = lq_riccati_value(c, g)
    inner = slice(40, -40)  # compare away from the kernel's tail truncation
    assert np.max(np.abs(hc.values - ric.values)[:, inner]) <= 1e-4
    assert np.max(np.abs(hc.du - ric.du)[:, inner]) <= 1e-4


def test_riccati_terminal_and_zero_limit():
    g = build_grid(1, -3.0, 3.0, 61, 1.0, 10)
    u = lq_riccati_value(0.5, g)
    assert np.allclose(u.values[-1], 0.5 * g.axis(0) ** 2, atol=1e-14)
    tiny = lq_riccati_value(1e-12, g)
    assert np.max(np.abs(tiny.values)) <= 1e-10


def test_riccati_closed_form_values():
    T, c = 1.0, 0.5
    g = build_grid(1, -3.0, 3.0, 61, T, 10)
    u = lq_riccati_value(c, g)
    a0 = c / (1 + 2 * c * T)
    d0 = np.log(1 + 2 * c * T)
    x = g.axis(0)
    assert np.allclose(u.values[0], a0 * x ** 2 + d0, atol=1e-10)
    assert u.values[0][np.argmin(np.abs(x - 1.0))] == pytest.approx(a0 + d0, abs=1e-10)


def test_riccati_rejects_nonpositive_curvature():
    g = build_grid(1, -3.0, 3.0, 61, 1.0, 10)
    with pytest.raises(ValueError):
        lq_riccati_value(-0.5, g)


@pytest.mark.parametrize("c, nt", [(0.5, 20), (5.0, 100)])
@pytest.mark.parametrize("factor", [1.0 + 1e-8, np.nan])
def test_riccati_self_check_rejects_a_perturbed_closed_form(monkeypatch, c, nt,
                                                            factor):
    # the RK4 integration the closed form is checked against resolves a
    # relative error of 1e-8 in a(t), and a NaN fails the check too
    from mfgkit import oracle
    g = build_grid(1, -3.0, 3.0, 61, 1.0, nt)
    lq_riccati_value(c, g)
    exact = oracle._riccati_coeffs

    def perturbed(*args):
        a, d = exact(*args)
        return a * factor, d

    monkeypatch.setattr(oracle, "_riccati_coeffs", perturbed)
    with pytest.raises(OracleSelfCheckError, match="deviates from ODE"):
        lq_riccati_value(c, g)


def test_heat_flow_initial_and_frozen():
    g = build_grid(1, -8.0, 8.0, 161, 0.5, 10)
    flow = heat_flow_density(0.0, 0.25, np.sqrt(2.0), g)
    m0 = np.exp(-g.axis(0) ** 2 / 0.5)
    m0 /= m0.sum() * g.h[0]
    assert np.allclose(flow.densities[0], m0, atol=1e-12)
    frozen = heat_flow_density(0.0, 0.25, 0.0, g)
    assert np.allclose(frozen.densities[0], frozen.densities[-1], atol=0)


def test_heat_flow_variance_growth():
    g = build_grid(1, -8.0, 8.0, 161, 0.5, 10)
    flow = heat_flow_density(0.2, 0.25, np.sqrt(2.0), g)
    m = flow.densities[-1]  # t = 0.5: var = 0.25 + 2*0.5 = 1.25
    assert second_moment(m, g) == pytest.approx(1.25 + 0.04, abs=1e-4)


def test_heat_flow_rejects_bad_variance_and_small_box():
    g = build_grid(1, -8.0, 8.0, 161, 0.5, 10)
    with pytest.raises(ValueError):
        heat_flow_density(0.0, -1.0, 1.0, g)
    small = build_grid(1, -1.0, 1.0, 21, 4.0, 10)
    with pytest.raises(OracleSelfCheckError):
        heat_flow_density(0.0, 0.25, np.sqrt(2.0), small)


def test_cli_import_leaves_signal_and_stats_unloaded():
    # each slow scipy submodule is imported inside the one function that needs
    # it (hopf_cole_value, lq_riccati_value, d1_lp); importing them at module
    # load slowed every CLI start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    slow = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.sparse",
            "scipy.integrate")
    loaded = f"print(sorted(m for m in {slow!r} if m in sys.modules))"
    # the Riccati oracle's self-check integrates its ODE without scipy
    code = ("import sys, mfgkit.cli, mfgkit.catalog, mfgkit.oracle; " + loaded
            + "; from mfgkit.core import build_grid; mfgkit.oracle.lq_riccati_value("
            "0.5, build_grid(1, -6.0, 6.0, 61, 1.0, 20)); " + loaded)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["[]", "[]"]
