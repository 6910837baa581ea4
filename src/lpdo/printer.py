"""Deterministic rendering of operators and factorization reports.

Three formats: plain (re-parseable by the grammar), latex, and a
structured JSON-able dict whose coefficient strings are the canonical
num/den forms.  Plain output orders operator terms by total derivative
order descending, then x-power descending; rational coefficient
denominators are cleared so fractions print as (poly)/integer.
"""

from __future__ import annotations

import re

from .expr import Poly, RatExpr, fraction_str, poly_str
from .operator import LPDO
from .charpoly import CharPoly, Root
from .factorize import FactorizationOutcome, FactorizationTree, OutcomeStatus


# --------------------------------------------------------------------------
# plain text
# --------------------------------------------------------------------------

def _cleared(r: RatExpr) -> tuple[Poly, Poly]:
    """num and den scaled by the lcm of the numerator's coefficient
    denominators, so that the numerator has integer coefficients."""
    scale = r.num.denominator()
    if scale == 1:
        return r.num, r.den
    return r.num.scale_rational(scale), r.den.scale_rational(scale)


def ratexpr_display(r: RatExpr) -> str:
    """Plain form with integer-cleared numerator: (y^2 - x^2)/4 style."""
    return fraction_str(*_cleared(r))


def _is_plain_sum(s: str) -> bool:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and i > 0 and ch in "+-" and s[i - 1] == " ":
            return True
    return False


def _derivative_word(j: int, k: int, latex: bool = False) -> str:
    parts = []
    if j:
        dx = r"\partial_x" if latex else "Dx"
        parts.append(dx if j == 1 else (f"{dx}^{{{j}}}" if latex else f"{dx}^{j}"))
    if k:
        dy = r"\partial_y" if latex else "Dy"
        parts.append(dy if k == 1 else (f"{dy}^{{{k}}}" if latex else f"{dy}^{k}"))
    sep = "" if latex else "*"
    return sep.join(parts)


def _term(txt: str, word: str, latex: bool = False) -> tuple[bool, str]:
    """(negated, body) of the term txt*word, the sign of a lone product
    taken out and a sum put in parentheses."""
    neg = txt.startswith("-") and not _is_plain_sum(txt)
    if neg:
        txt = txt[1:]
    if not word or txt == "1":
        return neg, word or txt
    if _is_plain_sum(txt):
        txt = r"\left(%s\right)" % txt if latex else f"({txt})"
    return neg, f"{txt}{word}" if latex else f"{txt}*{word}"


def _signed_sum(terms) -> str:
    """Join (negated, body) terms with + and -."""
    out = []
    for neg, body in terms:
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


def operator_str(op: LPDO) -> str:
    """Plain text normal form; parses back to the same operator."""
    if op.is_zero():
        return "0"
    return _signed_sum(_term(ratexpr_display(c), _derivative_word(j, k))
                       for (j, k), c in op.sorted_coeffs())


# --------------------------------------------------------------------------
# latex
# --------------------------------------------------------------------------

def ratexpr_latex(r: RatExpr) -> str:
    num, den = _cleared(r)
    num_s = _poly_latex(num)
    if den == Poly.ONE:
        return num_s
    return r"\frac{%s}{%s}" % (num_s, _poly_latex(den))


def _poly_latex(p: Poly) -> str:
    """poly_str in LaTeX: products by a space, radicals under \\sqrt, and an
    exponent or subscript of two or more characters braced (x^{10}, psi_{xx})."""
    s = re.sub(r"sqrt\(([^)]*)\)", r"\\sqrt{\1}", poly_str(p).replace("*", " "))
    return re.sub(r"([_^])(\w{2,})", r"\1{\2}", s)


def operator_latex(op: LPDO) -> str:
    if op.is_zero():
        return "0"
    return _signed_sum(
        _term(ratexpr_latex(c), _derivative_word(j, k, latex=True), latex=True)
        for (j, k), c in op.sorted_coeffs())


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


def _matrix_structured(matrix) -> dict | None:
    if matrix is None:
        return None
    return {"matrix": [[str(e) for e in row] for row in matrix]}


def outcome_structured(outcome: FactorizationOutcome) -> dict:
    doc: dict = {
        "status": outcome.status.value,
        "side": outcome.side,
        "root": _root_structured(outcome.root),
        "normalization": _matrix_structured(outcome.normalization),
        "residuals": [_ratexpr_structured(r) for r in outcome.residuals],
        "extensions": list(outcome.extensions),
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

def outcome_str(outcome: FactorizationOutcome, fmt: str = "plain") -> str:
    if fmt == "structured":
        import json

        return json.dumps(outcome_structured(outcome), indent=2)
    render = operator_latex if fmt == "latex" else operator_str
    show = ratexpr_latex if fmt == "latex" else ratexpr_display
    value = show if fmt == "latex" else str  # a root or a coefficient of P_n
    lines = [f"status: {outcome.status.value}", f"side: {outcome.side}"]
    if outcome.root is not None:
        lines.append(f"root: {outcome.root.text(value)}")
    if outcome.normalization is not None:
        rows = [[str(e) for e in row] for row in outcome.normalization]
        lines.append(f"normalization: {rows}")
    if outcome.extensions:
        lines.append("extensions adjoined: " + ", ".join(
            (r"\sqrt{%d}" if fmt == "latex" else "sqrt(%d)") % d for d in outcome.extensions))
    if outcome.factor is not None:
        lines.append(f"factor: {render(outcome.factor.as_operator())}")
        lines.append(f"cofactor: {render(outcome.cofactor)}")
    if outcome.residuals:
        lines.append("residuals: " + "; ".join(map(show, outcome.residuals)))
    if outcome.riccati is not None:
        lines.append(f"riccati unknown: {outcome.riccati.unknown}")
        for c in outcome.riccati.constraints:
            lines.append(f"  constraint: {show(c)} = 0")
        lines.append("  necessary precondition: "
                     f"{show(outcome.riccati.necessary_precondition)} = 0")
    if outcome.unresolved:
        lines.append("unresolved characteristic factor: "
                     + ", ".join(map(value, outcome.unresolved)))
    return "\n".join(lines)


def charpoly_str(p: CharPoly, fmt: str = "plain") -> str:
    var = r"\omega" if fmt == "latex" else "w"
    terms = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        power = p.n - i
        if power == 0:
            word = ""
        elif power == 1:
            word = var
        else:
            word = f"{var}^{power}" if fmt != "latex" else f"{var}^{{{power}}}"
        txt = ratexpr_display(c) if fmt != "latex" else ratexpr_latex(c)
        terms.append(_term(txt, word, fmt == "latex"))
    return _signed_sum(terms) or "0"


def tree_str(tree: FactorizationTree, fmt: str = "plain", depth: int = 0) -> str:
    pad = "  " * depth
    render = operator_latex if fmt == "latex" else operator_str
    show = ratexpr_latex if fmt == "latex" else ratexpr_display
    lines = [f"{pad}operator: {render(tree.operator)}"]
    if tree.operator.order <= 1:
        lines.append(f"{pad}  (first-order leaf)")
        return "\n".join(lines)
    for outcome, subtree in tree.branches:
        root = "?" if outcome.root is None else outcome.root.text(
            show if fmt == "latex" else str)
        lines.append(f"{pad}  root {root}: {outcome.status.value}")
        if outcome.factor is not None:
            lines.append(f"{pad}    factor: {render(outcome.factor.as_operator())}")
        if outcome.status is OutcomeStatus.CONDITIONS_FAIL and outcome.residuals:
            shown = "; ".join(map(show, outcome.nonzero_residuals()))
            lines.append(f"{pad}    residuals: {shown}")
        if outcome.riccati is not None:
            for c in outcome.riccati.constraints:
                lines.append(f"{pad}    riccati constraint: {show(c)} = 0")
        if subtree is not None:
            lines.append(tree_str(subtree, fmt, depth + 2))
    return "\n".join(lines)
