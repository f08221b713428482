"""Teleportation with partially entangled joint measurements and optimal
measurement reversal: instruments, reversal plans, performance metrics,
closed-form laws with an independent SVD oracle, and figure-data scenarios."""

__version__ = "0.1.0"

from .errors import DimensionError, DomainError, TelerevError
from .linalg import SvdResult, polar_unitary, svd
from .qstate import (BipartiteState, concurrence, ejm_channel, g_concurrence,
                     max_entangled, schmidt_channel)
from .jointmeas import (JointMeasurement, bell_basis, ejm, element_entanglement,
                        xx_deformed, zx_zz)
from .instrument import (Instrument, PerformanceReport, ReversalPlan,
                         build_instrument, leakage_max, optimal_reversal,
                         performance_report, standard_fidelity,
                         success_probability, tradeoff_lhs)
from .theorems import (Thm1Inputs, Thm2Bounds, g_of_t, saturating_spectrum,
                       solve_tr, thm1_outcome_success, thm1_total_success,
                       thm2_bounds)
from .montecarlo import (McEstimate, RngSpec, estimate_leakage,
                         estimate_performance, estimate_standard_fidelity,
                         estimate_success)
from .scenarios import COLUMNS, GridSpec, Scenario, run

__all__ = [
    "__version__",
    "TelerevError", "DimensionError", "DomainError",
    "SvdResult", "svd", "polar_unitary",
    "BipartiteState", "max_entangled", "schmidt_channel", "ejm_channel",
    "concurrence", "g_concurrence",
    "JointMeasurement", "bell_basis", "xx_deformed", "ejm", "zx_zz",
    "element_entanglement",
    "Instrument", "ReversalPlan", "PerformanceReport", "build_instrument",
    "optimal_reversal", "success_probability",
    "leakage_max", "standard_fidelity", "tradeoff_lhs", "performance_report",
    "Thm1Inputs", "Thm2Bounds", "thm1_outcome_success", "thm1_total_success",
    "g_of_t", "solve_tr", "thm2_bounds", "saturating_spectrum",
    "RngSpec", "McEstimate", "estimate_performance", "estimate_success",
    "estimate_leakage", "estimate_standard_fidelity",
    "Scenario", "GridSpec", "COLUMNS", "run",
]
