"""Numerical solver and verification toolkit for second-order mean-field games.

Solves the coupled backward value equation / forward density equation by
Picard iteration on the measure flow, extracts the optimal feedback strategy,
and verifies the solution independently against particle simulation of the
controlled dynamics and Monte Carlo cost evaluation.
"""

import os

# before any submodule loads numpy: BLAS reads its thread count once, at load.
# Only a positive integer is passed on; `particle._process_count` rejects any
# other value where it is read.
_threads = os.environ.get("MFGKIT_THREADS", "").strip()
if _threads.isdecimal() and int(_threads) > 0:
    for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_key, _threads)

from .core import (ControlSpace, Grid, MeasureFlow, MeasureView, ProblemSpec,
                   ValueField, build_grid, discretize_initial_density,
                   interpolate_field)
from .fp import FpError, solve_fp
from .hamiltonian import (AssumptionReport, PhiEvaluator, check_assumptions,
                          evaluate_H, minimize_H)
from .hjb import CFLAdvisory, HjbError, solve_hjb
from .measure import (FlowRegularityReport, d1_atoms, d1_grid, d1_lp,
                      flow_distance, flow_regularity, histogram_density,
                      second_moment)
from .mfg import (FixedPointConfig, FixedPointReport, apply_phi,
                  feedback_policy, pde_residual, solve_mfg)
from .oracle import (OracleSelfCheckError, heat_flow_density, hopf_cole_value,
                     lq_riccati_value)
from .particle import ParticleEnsemble, compare_law, law_check, simulate
from .cost import (CostEstimate, OptimalityReport, evaluate_cost,
                   expected_initial_value, verify_optimality, verify_solution)

__version__ = "0.1.0"
