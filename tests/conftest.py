"""Shared fixtures: catalog solves and oracle fields are expensive, so they are
computed once per session and memoized by (name, refinement, theta); every
test is checked to leave no child process behind."""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from mfgkit.catalog import get_entry
from mfgkit.core import (MeasureFlow, build_grid, diffusion_coefficients,
                         discretize_initial_density)
from mfgkit.mfg import FixedPointConfig, IterationState, solve_mfg


class SolveCache:
    def __init__(self):
        self._cache = {}

    def get(self, name: str, refine: int = 1, theta: float = None):
        """(entry, grid, u, m, report) for a converged catalog solve; with a
        theta, one that takes theta-damped steps from its first step on."""
        key = (name, refine, theta)
        if key not in self._cache:
            entry = get_entry(name)
            grid = entry.grid if refine == 1 else entry.grid.refine(refine)
            fx, start = entry.fixed_point, None
            if theta is not None:
                fx = FixedPointConfig(theta=theta, tol=fx.tol,
                                      max_iters=fx.max_iters)
                # the flow of m0 under a residual history that ends in a
                # non-decrease, so the step rule damps from the first step
                m0, _ = discretize_initial_density(entry.problem, grid)
                start = IterationState(
                    0, MeasureFlow.constant_in_time(m0, grid).densities,
                    [np.inf, np.inf])
            u, m, report = solve_mfg(entry.problem, grid, fx, initial_state=start)
            self._cache[key] = (entry, grid, u, m, report)
        return self._cache[key]


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process behind, running or unreaped,
    such as a march worker."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


@pytest.fixture
def forks(monkeypatch):
    """The list each os.fork call appends to, the real fork still made."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture(scope="session")
def solved():
    return SolveCache()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def varying_diffusion():
    """(grid, (a11, a22)) for sigma = diag(sqrt2 (1 + 0.2 tanh(x1 + x2/2)),
    sqrt2 (1 + 0.2 tanh x1)) on a 21^2 grid: each diagonal coefficient varies
    both along and across the lines of its axis sweep."""
    def sigma(t, x, m):
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0] + 0.5 * x[..., 1]))
        sig[..., 1, 1] = np.sqrt(2.0) * (1.0 + 0.2 * np.tanh(x[..., 0]))
        return sig
    grid = build_grid(2, -3.0, 3.0, 21, 1.0, 10)
    diag_a, _ = diffusion_coefficients(SimpleNamespace(dim=2, diffusion_sigma=sigma),
                                       0.0, grid.coords(), None)
    return grid, diag_a
