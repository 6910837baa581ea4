"""Exact first-order factorization of linear partial differential operators."""

import warnings

from .expr import ConstScalar, Poly, RatExpr
from .operator import LPDO, FirstOrderFactor
from .charpoly import CharPoly, Root, RootSearch, char_poly, find_roots
from .factorize import (
    CertificateError,
    FactorizationOutcome,
    FactorizationTree,
    OutcomeStatus,
    RiccatiProblem,
    complete_with_p3,
    degenerate_constraints,
    factor_all_roots,
    factor_fully,
    factor_left,
    factor_right,
    riccati_candidates,
    solve_level,
    solve_p3,
    solve_top,
    verify,
)
from .parser import ParseError, parse, parse_function
from .printer import (
    operator_latex,
    operator_str,
    operator_structured,
    outcome_str,
    outcome_structured,
)

__all__ = [
    "ConstScalar",
    "Poly",
    "RatExpr",
    "LPDO",
    "FirstOrderFactor",
    "CharPoly",
    "Root",
    "RootSearch",
    "char_poly",
    "find_roots",
    "CertificateError",
    "FactorizationOutcome",
    "FactorizationTree",
    "OutcomeStatus",
    "RiccatiProblem",
    "complete_with_p3",
    "degenerate_constraints",
    "factor_all_roots",
    "factor_fully",
    "factor_left",
    "factor_right",
    "riccati_candidates",
    "solve_level",
    "solve_p3",
    "solve_top",
    "verify",
    "ParseError",
    "parse",
    "parse_function",
    "operator_latex",
    "operator_str",
    "operator_structured",
    "outcome_str",
    "outcome_structured",
]

__version__ = "0.1.0"


def register_differential_param(name: str) -> None:
    """Deprecated, does nothing: an unknown function is a symbol of its own."""
    warnings.warn("register_differential_param does nothing: build an unknown function "
                  "with RatExpr.unknown(name), or declare its jets name_x, name_y, ... "
                  "with name to parse", DeprecationWarning, stacklevel=2)
