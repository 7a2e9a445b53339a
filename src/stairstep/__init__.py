"""Explicit minimal free resolutions of the residue field over
two-variable monomial quotient rings, with independent verification.

Each exported name, and each submodule below, is imported from its module
on first read (PEP 562), so a command loads only the modules it runs."""
import importlib

# every exported name, by the module that defines it, in __all__'s order
_EXPORTS = {
    "betti": (
        "BettiTable",
        "PoincareSeries",
        "betti_csv",
        "betti_json",
        "betti_table",
        "graded_betti",
        "poincare_series",
        "render_betti_table",
        "series_expand",
        "total_betti",
    ),
    "classify": ("IdealClass", "classify"),
    "monomials": (
        "EmptyIdeal",
        "Monomial",
        "MonomialIdeal",
        "ParseError",
        "UnitIdeal",
        "normalize_ideal",
        "parse_ideal",
        "parse_monomial",
        "standard_monomials",
    ),
    "oracle": (
        "ExactRationals",
        "FieldConfig",
        "PrimeField",
        "TruncationTooSmall",
        "VerificationReport",
        "check_complex",
        "check_exactness",
        "check_homogeneity",
        "check_minimality",
        "check_resolution",
        "compare_betti",
        "default_max_degree",
        "minimal_resolution_bruteforce",
    ),
    "resolution": (
        "Differential",
        "GradedFreeModule",
        "Resolution",
        "StageTooSmall",
        "build_resolution",
        "resolution_from_json",
        "resolution_to_json",
    ),
    "staircase": ("render_ascii", "render_svg", "staircase_outline"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """Import ``name``'s module, bind ``name`` here and return it."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


# Importing the submodule classify binds the module under its name, so the
# function of that name is bound here, after it; monomials loads with it.
for _name in _EXPORTS["classify"]:
    __getattr__(_name)
del _name
