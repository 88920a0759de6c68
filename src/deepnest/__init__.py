"""Verification tools for deep-nest prohibition arguments in degree 9.

Every public name loads its module on first use (PEP 562), so
``from deepnest import prohibit`` imports the orientation stack and never
the six-point geometry.
"""

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "schemes": (
        "DeepNestProfile", "InadmissibleSchemeError", "RealScheme",
        "SchemeSyntaxError", "classify_deep_nest", "is_m_curve",
        "parse_scheme", "print_scheme"),
    "orientations": (
        "OrientationParityError", "OrientationStats", "SignedScheme",
        "chain_imbalance_magnitudes", "chain_imbalance_set", "check_orevkov",
        "check_rokhlin_mishachev", "compute_stats", "parse_signed",
        "print_signed", "rm_rhs"),
    "cases": (
        "BETA_ZERO", "NO_JUMPS_EVEN_GAMMA", "NO_JUMPS_ODD_GAMMA",
        "SCENARIO_KINDS", "WITH_O1_JUMPS", "InfeasibleOrientationError",
        "ProhibitReport", "Scenario", "SignCase", "beta_zero_contradiction",
        "deep_nest_scheme", "emit_complex_scheme", "make_scenario",
        "orevkov_filter", "prohibit", "solve_scenario", "theorem1_report",
        "theorem2_report"),
    "geometry": (),
    "conics": (),
    "configurations": (
        "BASE_CONFIGURATIONS", "REFERENCE_SEQUENCES", "Classification",
        "classify_configuration", "reducible_cubic_sequence",
        "sample_configuration"),
    "bezout": (
        "AuxCurveTrace", "BudgetReport", "InvalidTraceError", "audit",
        "load_trace", "parse_trace"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime books
    # the submodule to itself, not to its importer; it binds the submodule
    # in this namespace
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
