"""Teleportation with partially entangled joint measurements and optimal
measurement reversal: instruments, reversal plans, performance metrics,
closed-form laws with an independent SVD oracle, and figure-data scenarios.

``import telerev`` loads no submodule; each name imports its module on first read (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the public names it exports; __all__ is read off this table.
_EXPORTS = {
    "errors": "TelerevError DimensionError DomainError OutcomeError",
    "linalg": "",
    "qstate": "BipartiteState max_entangled schmidt_channel ejm_channel concurrence g_concurrence",
    "jointmeas": "JointMeasurement bell_basis xx_deformed ejm zx_zz element_entanglement",
    "instrument": "Instrument ReversalPlan PerformanceReport build_instrument optimal_reversal "
                  "success_probability leakage_max standard_fidelity tradeoff_lhs "
                  "performance_report",
    "theorems": "Thm1Inputs Thm2Bounds thm1_outcome_success thm1_total_success g_of_t solve_tr "
                "thm2_bounds saturating_spectrum",
    "montecarlo": "RngSpec McEstimate estimate_success",
    "scenarios": "Scenario GridSpec COLUMNS run",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name, name)  # a module's own name maps to itself
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    globals()[name] = value = value if module == name else getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
