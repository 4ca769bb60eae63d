"""Exact piecewise-linear interval maps, periodic-point censuses, and
congruence checks.

The public names below are loaded on first use (PEP 562): ``import
plcensus`` imports no submodule, and ``plcensus.phi1`` imports ``census``
and returns whatever ``census.phi1`` is bound to at that moment.
"""

from importlib import import_module
from operator import index as _index

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "exactnum": ("ExactnessError", "Poly", "RecurrenceSpec", "charpoly", "recurrence_eval", "series_expand"),
    "plmap": (
        "AffinePiece", "DomainError", "InfiniteSolutions", "NotMarkovError", "PieceLimitError", "PLMap",
        "SolutionSet",
    ),
    "families": ("FamilyParams", "make_base_map", "make_fmn", "make_gn", "make_hjmn", "make_pn"),
    "sequences": (
        "SequenceSpec", "seq_a", "seq_b", "seq_c", "seq_d", "seq_s", "spec_a", "spec_b", "spec_c", "spec_d",
        "spec_s",
    ),
    "census": (
        "CensusCount", "CensusInvariantError", "CensusReport", "QRSFinding", "check_phi1_on_s", "explore_qrs",
        "factorize", "periodic_census", "phi1", "phi2", "qrs_terms", "qrs_triple_for_c", "symmetric_census",
        "verify_congruence",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not cached in the package globals, so a rebinding in the submodule shows
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _build(kind: str, table: dict, name: str, params: dict):
    """Call the builder that ``table`` maps ``name`` to, as (builder,
    parameter names in call order), on ``params``.  A parameter is given when
    it is not None; the builder must get each one it needs and no other."""
    if name not in table:
        raise ValueError(f"unknown {kind} {name!r}; choose from {', '.join(table)}")
    fn, names = table[name]
    missing = [a for a in names if params.get(a) is None]
    if missing:
        raise ValueError(f"{kind} {name!r} needs parameters: {', '.join(missing)}")
    extra = [a for a, v in params.items() if v is not None and a not in names]
    if extra:
        raise ValueError(f"{kind} {name!r} does not take: {', '.join(extra)}")
    return fn(*(params[a] for a in names))


def _at_least(name: str, value, least: int) -> int:
    """``value`` as an int, checked before any work: every integer size the
    library takes passes here.  ``operator.index`` raises TypeError for a float,
    a Fraction or a str; below ``least``, ValueError("<name> must be >= <least>")."""
    value = _index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value
