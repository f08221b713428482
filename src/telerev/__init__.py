"""Teleportation with partially entangled joint measurements and optimal
measurement reversal: instruments, reversal plans, performance metrics,
closed-form laws with an independent SVD oracle, and figure-data scenarios."""

__version__ = "0.1.0"

from .errors import DimensionError, DomainError, TelerevError
from .linalg import SvdResult, polar_unitary, svd
from .qstate import (BipartiteState, BlochPoint, channel_bloch, concurrence,
                     ejm_channel, g_concurrence, max_entangled, reduced_bloch,
                     schmidt_channel)
from .jointmeas import (JointMeasurement, bell_basis, ejm, element_bloch,
                        element_entanglement, xx_deformed, zx_zz)
from .instrument import (Instrument, PerformanceReport, ReversalPlan,
                         apply_kraus_oracle, build_instrument, leakage_max,
                         optimal_reversal, performance_report,
                         standard_fidelity, success_probability, tradeoff_lhs)
from .theorems import (Thm1Inputs, Thm2Bounds, alignment_x, g_of_t,
                       saturating_spectrum, solve_tr, thm1_outcome_success,
                       thm1_total_success, thm2_bounds, tr_closed_form_d3)
from .montecarlo import (McEstimate, RngSpec, estimate_leakage,
                         estimate_performance, estimate_standard_fidelity,
                         estimate_success, haar_state)
from .scenarios import COLUMNS, GridSpec, Scenario, run

__all__ = [
    "__version__",
    "TelerevError", "DimensionError", "DomainError",
    "SvdResult", "svd", "polar_unitary",
    "BipartiteState", "BlochPoint", "max_entangled", "schmidt_channel",
    "ejm_channel", "concurrence", "g_concurrence", "reduced_bloch",
    "channel_bloch",
    "JointMeasurement", "bell_basis", "xx_deformed", "ejm", "zx_zz",
    "element_entanglement", "element_bloch",
    "Instrument", "ReversalPlan", "PerformanceReport", "build_instrument",
    "apply_kraus_oracle", "optimal_reversal", "success_probability",
    "leakage_max", "standard_fidelity", "tradeoff_lhs", "performance_report",
    "Thm1Inputs", "Thm2Bounds", "thm1_outcome_success", "alignment_x",
    "thm1_total_success", "g_of_t", "solve_tr", "tr_closed_form_d3",
    "thm2_bounds", "saturating_spectrum",
    "RngSpec", "McEstimate", "haar_state", "estimate_performance",
    "estimate_success", "estimate_leakage", "estimate_standard_fidelity",
    "Scenario", "GridSpec", "COLUMNS", "run",
]
