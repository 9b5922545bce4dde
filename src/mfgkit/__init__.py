"""Numerical solver and verification toolkit for second-order mean-field games.

Solves the coupled backward value equation / forward density equation by
Picard iteration on the measure flow, extracts the optimal feedback strategy,
and verifies the solution independently against particle simulation of the
controlled dynamics and Monte Carlo cost evaluation.

The names below load their module, and so numpy, on first use (PEP 562):
`import mfgkit.cli` loads no numpy, so the CLI can export MFGKIT_THREADS to
the BLAS thread-count variables before BLAS reads them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("ControlSpace", "Grid", "MeasureFlow", "MeasureView", "ProblemSpec",
             "ValueField", "build_grid", "discretize_initial_density",
             "interpolate_field"),
    "fp": ("FpError", "solve_fp"),
    "hamiltonian": ("AssumptionReport", "PhiEvaluator", "check_assumptions",
                    "evaluate_H", "minimize_H"),
    "hjb": ("CFLAdvisory", "HjbError", "HjbSolverConfig", "solve_hjb"),
    "measure": ("FlowRegularityReport", "d1_atoms", "d1_grid", "d1_lp",
                "flow_distance", "flow_regularity", "histogram_density",
                "second_moment"),
    "mfg": ("FixedPointConfig", "FixedPointReport", "apply_phi",
            "feedback_policy", "pde_residual", "solve_mfg"),
    "oracle": ("OracleSelfCheckError", "heat_flow_density", "hopf_cole_value",
               "lq_riccati_value"),
    "particle": ("ParticleEnsemble", "compare_law", "law_check", "simulate"),
    "cost": ("CostEstimate", "OptimalityReport", "evaluate_cost",
             "expected_initial_value", "verify_optimality"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, reachable as an attribute of the package
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
