"""Built-in problem instances with their default grids and oracle hooks.

Every problem is 1D with constant diffusion sqrt(2) (unit diffusion
coefficient) and comes from one of two families: quadratic control (T = 1,
b1 = a, f1 = a^2/2, minimizer -p) or control-free (b1 = f1 = g = 0 and
Lipschitz constant L = 2). An entry states only b0, f0, g, m0, L, its grid
and its oracle, and solves with the default FixedPointConfig(). Truncation boxes are sized so neither
the density nor the controlled dynamics reach the walls with visible mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ControlSpace, Grid, ProblemSpec, ValueField, build_grid
from .mfg import FixedPointConfig
from .oracle import hopf_cole_value, lq_riccati_value

__all__ = ["CatalogEntry", "get_entry", "list_catalog",
           "gaussian_density", "capped_quadratic", "heat_check_problem"]


def gaussian_density(mean: float, var: float) -> Callable:
    def m0(x):
        return np.exp(-(x - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    return m0


def capped_quadratic(cap: float) -> Callable:
    """Smooth version of min(x^2/2, cap): cap * tanh(x^2 / (2 cap))."""
    def G(x):
        return cap * np.tanh(x * x / (2.0 * cap))
    return G


def _zero(t, x, m):  # constants stay scalars: they broadcast to the points
    return 0.0


def _sqrt2_sigma(t, x, m):
    return np.sqrt(2.0)


def _bump(s, s_cap=9.0):
    # smooth saturating version of s, linear near 0, bounded by s_cap
    return s_cap * np.tanh(s / s_cap)


def _quadratic_control(name: str, b0, f0, g, m0, lipschitz: float) -> ProblemSpec:
    """Horizon 1, H = b0 p + f0 - p^2/2, minimized by the control a = -p."""
    return ProblemSpec(
        dim=1, horizon=1.0, drift_b0=b0, drift_b1=lambda t, x, a: a,
        diffusion_sigma=_sqrt2_sigma, running_f0=f0,
        running_f1=lambda t, x, a: 0.5 * a * a, terminal_g=g,
        initial_density=m0, control_space=ControlSpace.all_of_rn(),
        closed_form_phi=lambda t, x, p: -p,
        gamma1=1.0, gamma2=1.0, lipschitz=lipschitz, name=name)


def _control_free(name: str, b0, m0, horizon: float) -> ProblemSpec:
    """Transport by b0 plus diffusion at zero cost: u = 0, no control enters."""
    return ProblemSpec(
        dim=1, horizon=horizon, drift_b0=b0,
        drift_b1=lambda t, x, a: np.zeros_like(x),
        diffusion_sigma=_sqrt2_sigma, running_f0=_zero,
        running_f1=lambda t, x, a: np.zeros_like(x),
        terminal_g=lambda x, m: np.zeros_like(x),
        initial_density=m0, control_space=ControlSpace.all_of_rn(),
        closed_form_phi=lambda t, x, p: np.zeros_like(p),
        gamma1=1.0, gamma2=1.0, lipschitz=2.0, name=name)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    problem: ProblemSpec
    grid: Grid
    fixed_point: FixedPointConfig = FixedPointConfig()
    oracle: Optional[str] = None      # kind label: "hopf-cole" | "riccati" | None
    # the exact value field on a grid, and the interior max error allowed
    oracle_value: Optional[Callable[[Grid], ValueField]] = None
    oracle_tol: Optional[float] = None
    controlled: bool = True


def _decoupled_hopfcole() -> CatalogEntry:
    G = capped_quadratic(25.0)
    name = "decoupled-hopfcole"
    return CatalogEntry(
        name=name,
        description="decoupled quadratic-control instance with smooth capped-"
                    "quadratic terminal cost; Hopf-Cole oracle applies",
        problem=_quadratic_control(name, _zero, _zero, lambda x, m: G(x),
                                   gaussian_density(0.0, 0.25), 26.0),
        grid=build_grid(1, -6.0, 6.0, 241, 1.0, 400),
        oracle="hopf-cole", oracle_value=lambda g: hopf_cole_value(G, g),
        oracle_tol=5e-3)


def _lq_riccati() -> CatalogEntry:
    c = 0.5
    name = "lq-riccati"
    return CatalogEntry(
        name=name,
        description="decoupled instance with quadratic terminal cost inside the "
                    "box; closed-form value function",
        problem=_quadratic_control(name, _zero, _zero, lambda x, m: c * x * x,
                                   gaussian_density(0.0, 0.25), 36.0),
        grid=build_grid(1, -6.0, 6.0, 241, 1.0, 1000),
        oracle="riccati", oracle_value=lambda g: lq_riccati_value(c, g),
        oracle_tol=1e-2)


def _example5_weak(kappa: float = 0.1) -> CatalogEntry:
    G = capped_quadratic(25.0)

    def B(t, x, view):
        return 0.3 * np.tanh(view.mean - x)

    def F(t, x, view):
        return kappa * _bump((x - view.mean) ** 2)

    name = "example5-weak"
    return CatalogEntry(
        name=name,
        description="quadratic-control instance with bounded mean-reverting "
                    "drift and weak mean-coupled running cost",
        problem=_quadratic_control(name, B, F, lambda x, m: G(x),
                                   gaussian_density(0.5, 0.25), 26.0),
        grid=build_grid(1, -6.0, 6.0, 241, 1.0, 400))


def _uncontrolled_fp() -> CatalogEntry:
    name = "uncontrolled-fp"
    return CatalogEntry(
        name=name,
        description="control-free mean-coupled drift instance exercising the "
                    "forward equation and its particle dual alone",
        problem=_control_free(name, lambda t, x, view: 0.5 * np.tanh(view.mean - x),
                              gaussian_density(0.3, 0.25), 1.0),
        grid=build_grid(1, -8.0, 8.0, 321, 1.0, 500),
        controlled=False)


def heat_check_problem():
    """Zero-drift constant-diffusion instance with Gaussian initial density:
    the configuration whose forward solution is the analytic heat flow."""
    return (_control_free("heat-check", _zero, gaussian_density(0.0, 0.25), 0.5),
            build_grid(1, -8.0, 8.0, 321, 0.5, 500))


_BUILDERS = {
    "decoupled-hopfcole": _decoupled_hopfcole,
    "lq-riccati": _lq_riccati,
    "example5-weak": _example5_weak,
    "uncontrolled-fp": _uncontrolled_fp,
}


def get_entry(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise KeyError(f"unknown catalog problem {name!r}; "
                       f"choices: {', '.join(sorted(_BUILDERS))}")
    return _BUILDERS[name]()


def list_catalog() -> list:
    return [get_entry(n) for n in _BUILDERS]
