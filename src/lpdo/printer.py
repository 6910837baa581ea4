"""Deterministic rendering of operators and factorization reports.

Three formats: plain (re-parseable by the grammar), latex, and a
structured JSON-able dict whose coefficient strings are the canonical
num/den forms.  Plain output orders operator terms by total derivative
order descending, then x-power descending; rational coefficient
denominators are cleared so fractions print as (poly)/integer.
"""

from __future__ import annotations

from math import lcm

from .expr import Poly, RatExpr, poly_str
from .operator import LPDO
from .charpoly import CharPoly, Root
from .factorize import FactorizationOutcome, FactorizationTree, OutcomeStatus


# --------------------------------------------------------------------------
# plain text
# --------------------------------------------------------------------------

def _common_denominator(p: Poly) -> int:
    return lcm(*(q.denominator for c in p.terms.values() for q in c.coords.values()))


def ratexpr_display(r: RatExpr) -> str:
    """Plain form with integer-cleared numerator: (y^2 - x^2)/4 style."""
    scale = _common_denominator(r.num)
    num = r.num if scale == 1 else r.num.scale_rational(scale)
    den = r.den if scale == 1 else r.den.scale_rational(scale)
    num_s = poly_str(num)
    if den == Poly.ONE:
        return num_s
    den_s = poly_str(den)
    if len(num.terms) > 1:
        num_s = f"({num_s})"
    if len(den.terms) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


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


def operator_str(op: LPDO) -> str:
    """Plain text normal form; parses back to the same operator."""
    if op.is_zero():
        return "0"
    pieces = []
    for (j, k), coeff in op.sorted_coeffs():
        txt = ratexpr_display(coeff)
        deriv = _derivative_word(j, k)
        neg = txt.startswith("-") and not _is_plain_sum(txt)
        if neg:
            txt = txt[1:]
        if deriv:
            if txt == "1":
                body = deriv
            else:
                if _is_plain_sum(txt):
                    txt = f"({txt})"
                body = f"{txt}*{deriv}"
        else:
            body = txt
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces)


# --------------------------------------------------------------------------
# latex
# --------------------------------------------------------------------------

def _latex_scalar_body(txt: str) -> str:
    return (txt.replace("sqrt(", r"\sqrt{").replace(")", "}")
            if "sqrt(" in txt else txt)


def ratexpr_latex(r: RatExpr) -> str:
    scale = _common_denominator(r.num)
    num = r.num if scale == 1 else r.num.scale_rational(scale)
    den = r.den if scale == 1 else r.den.scale_rational(scale)
    num_s = _poly_latex(num)
    if den == Poly.ONE:
        return num_s
    return r"\frac{%s}{%s}" % (num_s, _poly_latex(den))


def _poly_latex(p: Poly) -> str:
    s = poly_str(p)
    s = s.replace("*", " ")
    out = []
    i = 0
    while i < len(s):
        if s.startswith("sqrt(", i):
            close = s.index(")", i)
            out.append(r"\sqrt{" + s[i + 5:close] + "}")
            i = close + 1
        else:
            out.append(s[i])
            i += 1
    return "".join(out).replace("^", "^")


def operator_latex(op: LPDO) -> str:
    if op.is_zero():
        return "0"
    pieces = []
    for (j, k), coeff in op.sorted_coeffs():
        txt = ratexpr_latex(coeff)
        deriv = _derivative_word(j, k, latex=True)
        neg = txt.startswith("-") and not _is_plain_sum(txt)
        if neg:
            txt = txt[1:]
        if deriv:
            if txt == "1":
                body = deriv
            else:
                if _is_plain_sum(txt):
                    txt = r"\left(%s\right)" % txt
                body = f"{txt}{deriv}"
        else:
            body = txt
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f" - {body}" if neg else f" + {body}")
    return "".join(pieces)


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
    lines = [f"status: {outcome.status.value}", f"side: {outcome.side}"]
    if outcome.root is not None:
        lines.append(f"root: {outcome.root}")
    if outcome.normalization is not None:
        rows = [[str(e) for e in row] for row in outcome.normalization]
        lines.append(f"normalization: {rows}")
    if outcome.extensions:
        lines.append("extensions adjoined: "
                     + ", ".join(f"sqrt({d})" for d in outcome.extensions))
    if outcome.factor is not None:
        lines.append(f"factor: {render(outcome.factor.as_operator())}")
        lines.append(f"cofactor: {render(outcome.cofactor)}")
    if outcome.residuals:
        shown = [ratexpr_display(r) if fmt != "latex" else ratexpr_latex(r)
                 for r in outcome.residuals]
        lines.append("residuals: " + "; ".join(shown))
    if outcome.riccati is not None:
        lines.append(f"riccati unknown: {outcome.riccati.unknown}")
        for c in outcome.riccati.constraints:
            lines.append(f"  constraint: {ratexpr_display(c)} = 0")
        lines.append("  necessary precondition: "
                     f"{ratexpr_display(outcome.riccati.necessary_precondition)} = 0")
    if outcome.unresolved:
        lines.append("unresolved characteristic factor: "
                     + ", ".join(str(c) for c in outcome.unresolved))
    return "\n".join(lines)


def charpoly_str(p: CharPoly, fmt: str = "plain") -> str:
    var = r"\omega" if fmt == "latex" else "w"
    pieces = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        power = p.n - i
        if power == 0:
            body = None
        elif power == 1:
            body = var
        else:
            body = f"{var}^{power}" if fmt != "latex" else f"{var}^{{{power}}}"
        txt = ratexpr_display(c) if fmt != "latex" else ratexpr_latex(c)
        neg = txt.startswith("-") and not _is_plain_sum(txt)
        if neg:
            txt = txt[1:]
        if body:
            if _is_plain_sum(txt):
                txt = f"({txt})"
            chunk = body if txt == "1" else f"{txt}*{body}"
        else:
            chunk = txt
        if not pieces:
            pieces.append(f"-{chunk}" if neg else chunk)
        else:
            pieces.append(f" - {chunk}" if neg else f" + {chunk}")
    return "".join(pieces) if pieces else "0"


def tree_str(tree: FactorizationTree, fmt: str = "plain", depth: int = 0) -> str:
    pad = "  " * depth
    render = operator_latex if fmt == "latex" else operator_str
    lines = [f"{pad}operator: {render(tree.operator)}"]
    if tree.operator.order <= 1:
        lines.append(f"{pad}  (first-order leaf)")
        return "\n".join(lines)
    for outcome, subtree in tree.branches:
        root = "?" if outcome.root is None else str(outcome.root)
        lines.append(f"{pad}  root {root}: {outcome.status.value}")
        if outcome.factor is not None:
            lines.append(f"{pad}    factor: {render(outcome.factor.as_operator())}")
        if outcome.status is OutcomeStatus.CONDITIONS_FAIL and outcome.residuals:
            shown = "; ".join(ratexpr_display(r)
                              for r in outcome.nonzero_residuals())
            lines.append(f"{pad}    residuals: {shown}")
        if outcome.riccati is not None:
            for c in outcome.riccati.constraints:
                lines.append(f"{pad}    riccati constraint: {ratexpr_display(c)} = 0")
        if subtree is not None:
            lines.append(tree_str(subtree, fmt, depth + 2))
    return "\n".join(lines)
