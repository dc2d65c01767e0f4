"""expsumlab: exact exponential-sum L-series over finite fields, degree
predictions from topology, and rank-one p-adic radius/index calculus.

The public names are resolved on first access (PEP 562), so importing one
submodule, such as expsumlab.cli, loads only what that submodule uses."""

import importlib

_EXPORTS = {
    "expsum": (
        "BudgetExceededError", "ScaleCheckReport", "VarietySpec",
        "count_points", "multiply_terms", "power_sum", "power_sum_naive",
        "power_sum_table", "scaled_degree_check", "sym_trace"),
    "ffield": (
        "CrossContextError", "CyclotomicInt", "CyclotomicRat", "FieldCtx",
        "FqElem", "additive_character", "build_field", "galois_twist",
        "trace", "trace_to_prime"),
    "lfun": (
        "LSeries", "PowerSumSequence", "ReconstructionError",
        "TruncatedSeries", "degree", "exp_power_sums",
        "log_derivative_check", "pade_reconstruct", "reconstruct_auto",
        "total_degree"),
    "padic": (
        "GaussWeight", "NonStabilizedError", "PiNumber", "RadiusProfile",
        "RadiusSample", "RationalFunctionPi", "digit_sum", "dwork_twist",
        "factorial_valuation", "gauss_valuation", "radius_profile",
        "robba_index", "symbol_sequence"),
    "predict": (
        "BettiSpec", "ChernSpec", "CurveSpec", "NewtonSpec", "betti_degree",
        "chern_degree", "curve_degree", "fermat_chern_spec",
        "fermat_discrepancy_report", "fermat_torus_support", "newton_degree",
        "newton_report", "point_in_hull", "sl2_degree"),
    "verify": ("CASES", "verify_suite"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
