"""Deterministic rendering of operators and factorization reports.

Three formats: plain (re-parseable by the grammar), latex, and a
structured JSON-able dict whose coefficient strings are the canonical
num/den forms.  FORMATS holds what plain and latex text differ in; every
sum of terms, in a value or in an operator or P(w), is joined by
expr.signed_sum, and a coefficient that is a sum is grouped before its
word and spliced in where it has none.  Plain output orders operator
terms by total derivative order descending, then x-power descending;
rational coefficient denominators are cleared so fractions print as
(poly)/integer.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple

from .expr import (LATEX, PLAIN, Poly, RatExpr, Spelling, fraction_pieces, poly_str,
                   signed_sum, term_pieces)
from .operator import LPDO
from .charpoly import CharPoly, Root, RootSearch
from .factorize import FactorizationOutcome, FactorizationTree, OutcomeStatus


def _cleared(r: RatExpr) -> tuple[Poly, Poly]:
    """num and den scaled by the lcm of the numerator's coefficient
    denominators, so that the numerator has integer coefficients."""
    scale = r.num.denominator()
    if scale == 1:
        return r.num, r.den
    return r.num.scale_rational(scale), r.den.scale_rational(scale)


class Format(NamedTuple):
    """What one text format writes its own way."""

    spelling: Spelling  # radicals, products and names inside a value
    value: Callable[[RatExpr], str]  # a root, a coefficient of P_n, a radical
    derivatives: tuple[str, str]
    var: str  # the variable of P
    power: str  # a power in a word, a %-format of the token and the exponent
    times: str  # between a coefficient and its word, and inside a word

    def pieces(self, r: RatExpr) -> list:
        return fraction_pieces(*_cleared(r), self.spelling)

    def function(self, r: RatExpr) -> str:
        """A coefficient, residual or constraint, its numerator cleared."""
        return signed_sum(self.pieces(r))

    def word(self, powers) -> str:
        """The product of the powers (token, exponent), exponents 0 left out."""
        return self.times.join(t if k == 1 else self.power % (t, k) for t, k in powers if k)

    def join(self, terms) -> str:
        """The sum of the terms (coefficient, powers of its word)."""
        return signed_sum(p for c, powers in terms for p in term_pieces(
            self.pieces(c), self.word(powers), self.times, self.spelling.group))

    def operator(self, op: LPDO) -> str:
        return self.join((c, zip(self.derivatives, jk)) for jk, c in op.sorted_coeffs())


def ratexpr_display(r: RatExpr) -> str:
    """Plain form with integer-cleared numerator: (y^2 - x^2)/4 style."""
    return FORMATS["plain"].function(r)


def ratexpr_latex(r: RatExpr) -> str:
    return FORMATS["latex"].function(r)


FORMATS = {
    "plain": Format(PLAIN, str, ("Dx", "Dy"), "w", "%s^%d", "*"),
    "latex": Format(LATEX, ratexpr_latex, (r"\partial_x", r"\partial_y"), r"\omega",
                    "%s^{%d}", ""),
}


def operator_str(op: LPDO) -> str:
    """Plain text normal form; parses back to the same operator."""
    return FORMATS["plain"].operator(op)


def operator_latex(op: LPDO) -> str:
    return FORMATS["latex"].operator(op)


def charpoly_str(p: CharPoly, fmt: str = "plain") -> str:
    f = FORMATS[fmt]
    return f.join((c, [(f.var, p.n - i)]) for i, c in enumerate(p.coeffs) if not c.is_zero())


# --------------------------------------------------------------------------
# structured
# --------------------------------------------------------------------------

def _ratexpr_structured(r: RatExpr) -> dict:
    return {"num": poly_str(r.num), "den": poly_str(r.den)}


def operator_structured(op: LPDO) -> dict:
    return {
        "order": op.order,
        "coeffs": [
            {"j": j, "k": k, **_ratexpr_structured(c)}
            for (j, k), c in op.sorted_coeffs()
        ],
    }


def operator_from_structured(doc: dict, params: set[str] | None = None) -> LPDO:
    """Rebuild an operator from its structured form."""
    from .parser import parse_function

    coeffs = {}
    for entry in doc["coeffs"]:
        num = parse_function(entry["num"], params)
        den = parse_function(entry["den"], params)
        coeffs[(entry["j"], entry["k"])] = num / den
    return LPDO(coeffs)


def _root_structured(root: Root | None) -> dict | None:
    if root is None:
        return None
    return {
        "value": None if root.at_infinity else str(root.value),
        "multiplicity": root.multiplicity,
        "at_infinity": root.at_infinity,
        "extensions": list(root.extensions),
    }


# (u, v) = M (x, y): the change of variables of an outcome at a root at infinity
_SWAP_ROWS = [["0", "1"], ["1", "0"]]


def outcome_structured(outcome: FactorizationOutcome) -> dict:
    root = outcome.root
    swapped = root is not None and root.at_infinity
    doc: dict = {
        "status": outcome.status.value,
        "side": outcome.side,
        "root": _root_structured(root),
        "normalization": {"matrix": [row[:] for row in _SWAP_ROWS]} if swapped else None,
        "residuals": [_ratexpr_structured(r) for r in outcome.residuals],
        "extensions": [] if root is None else list(root.extensions),
        "certified": outcome.certified,
    }
    if outcome.factor is not None:
        doc["factor"] = {
            "p1": str(outcome.factor.p1),
            "p2": str(outcome.factor.p2),
            "p3": str(outcome.factor.p3),
        }
        doc["cofactor"] = operator_structured(outcome.cofactor)
    if outcome.riccati is not None:
        doc["riccati"] = {
            "unknown": outcome.riccati.unknown,
            "constraints": [str(c) for c in outcome.riccati.constraints],
            "necessary_precondition": str(outcome.riccati.necessary_precondition),
        }
    if outcome.unresolved:
        doc["unresolved"] = [str(c) for c in outcome.unresolved]
    return doc


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def operator_text(op: LPDO, fmt: str = "plain") -> str:
    if fmt == "structured":
        return json.dumps(operator_structured(op), indent=2)
    return FORMATS[fmt].operator(op)


def outcome_str(outcome: FactorizationOutcome, fmt: str = "plain") -> str:
    if fmt == "structured":
        return json.dumps(outcome_structured(outcome), indent=2)
    f, root = FORMATS[fmt], outcome.root
    lines = [f"status: {outcome.status.value}", f"side: {outcome.side}"]
    if root is not None:
        lines.append(f"root: {root.text(f.value)}")
        if root.at_infinity:
            lines.append(f"normalization: {_SWAP_ROWS}")
        if root.extensions:
            lines.append("extensions adjoined: " + ", ".join(
                f.value(RatExpr.sqrt_int(d)) for d in root.extensions))
    if outcome.factor is not None:
        lines.append(f"factor: {f.operator(outcome.factor.as_operator())}")
        lines.append(f"cofactor: {f.operator(outcome.cofactor)}")
    if outcome.residuals:
        lines.append("residuals: " + "; ".join(map(f.function, outcome.residuals)))
    if outcome.riccati is not None:
        lines.append(f"riccati unknown: {outcome.riccati.unknown}")
        for c in outcome.riccati.constraints:
            lines.append(f"  constraint: {f.function(c)} = 0")
        lines.append("  necessary precondition: "
                     f"{f.function(outcome.riccati.necessary_precondition)} = 0")
    if outcome.unresolved:
        lines.append("unresolved characteristic factor: "
                     + ", ".join(map(f.value, outcome.unresolved)))
    return "\n".join(lines)


def outcomes_str(outcomes, fmt: str = "plain") -> str:
    """Several outcomes: a JSON list, or their reports a blank line apart."""
    if fmt == "structured":
        return json.dumps([outcome_structured(o) for o in outcomes], indent=2)
    return "\n\n".join(outcome_str(o, fmt) for o in outcomes)


def charpoly_report(p: CharPoly, search: RootSearch, fmt: str = "plain") -> str:
    """P(w), its roots and any unresolved factor."""
    if fmt == "structured":
        return json.dumps({
            "n": p.n,
            "coeffs": [str(c) for c in p.coeffs],
            "roots": [_root_structured(r) for r in search.roots],
            "unresolved": [str(c) for c in search.unresolved],
        }, indent=2)
    f = FORMATS[fmt]
    lines = [f"P({f.var}) = {charpoly_str(p, fmt)}"]
    lines += [f"root: {r.text(f.value)}" for r in search.roots]
    if search.unresolved:
        lines.append("unresolved factor coefficients: "
                     + ", ".join(map(f.value, search.unresolved)))
    return "\n".join(lines)


def tree_str(tree: FactorizationTree, fmt: str = "plain", depth: int = 0) -> str:
    f, pad = FORMATS[fmt], "  " * depth
    lines = [f"{pad}operator: {f.operator(tree.operator)}"]
    if tree.operator.order <= 1:
        lines.append(f"{pad}  (first-order leaf)")
        return "\n".join(lines)
    for outcome, subtree in tree.branches:
        root = "?" if outcome.root is None else outcome.root.text(f.value)
        lines.append(f"{pad}  root {root}: {outcome.status.value}")
        if outcome.factor is not None:
            lines.append(f"{pad}    factor: {f.operator(outcome.factor.as_operator())}")
        if outcome.status is OutcomeStatus.CONDITIONS_FAIL and outcome.residuals:
            shown = "; ".join(map(f.function, outcome.nonzero_residuals()))
            lines.append(f"{pad}    residuals: {shown}")
        if outcome.riccati is not None:
            for c in outcome.riccati.constraints:
                lines.append(f"{pad}    riccati constraint: {f.function(c)} = 0")
        if subtree is not None:
            lines.append(tree_str(subtree, fmt, depth + 2))
    return "\n".join(lines)
