"""Rendering: plain, latex, structured; determinism and re-parseability."""

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpdo.expr import RatExpr
from lpdo.operator import LPDO
from lpdo.factorize import factor_all_roots, factor_left
from lpdo.parser import parse, parse_function
from lpdo.printer import (
    operator_from_structured,
    operator_latex,
    operator_str,
    operator_structured,
    outcome_str,
    outcome_structured,
    ratexpr_display,
    ratexpr_latex,
)

from conftest import rand_operator

R = RatExpr
X, Y = R.X, R.Y
ONE = R.ONE


class TestPlain:
    def test_single_mixed_term(self):
        assert operator_str(LPDO.dx().compose(LPDO.dy())) == "Dx*Dy"

    def test_term_order(self):
        op = parse("1 + Dx + Dy^2 + x*Dx*Dy")
        assert operator_str(op) == "x*Dx*Dy + Dy^2 + Dx + 1"

    def test_fraction_clearing(self):
        op = parse("(y^2-x^2)/4 + Dx^2")
        assert operator_str(op) == "Dx^2 + (-x^2 + y^2)/4"

    def test_zero_operator(self):
        assert operator_str(LPDO.zero()) == "0"

    def test_deterministic(self, rng):
        for _ in range(10):
            op = rand_operator(rng, 2)
            assert operator_str(op) == operator_str(LPDO(dict(op.coeffs)))


class TestLatex:
    def test_factor_rendering(self):
        half = R.from_fraction("1/2")
        f = LPDO({(1, 0): ONE, (0, 1): ONE, (0, 0): (Y - X) * half})
        assert operator_latex(f) == \
            r"\partial_x + \partial_y + \frac{-x + y}{2}"

    def test_powers_and_radicals(self):
        op = parse("Dx^2 + sqrt(2)*Dy")
        assert operator_latex(op) == r"\partial_x^{2} + \sqrt{2}\partial_y"


class TestStructured:
    def test_schema_and_round_trip(self, rng):
        for _ in range(10):
            op = rand_operator(rng, 2)
            doc = operator_structured(op)
            assert set(doc) == {"order", "coeffs"}
            assert operator_from_structured(doc) == op
            # deterministic serialization
            assert json.dumps(doc) == json.dumps(operator_structured(op))

    def test_outcome_document(self):
        op = parse("Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2-x^2)/4 + 1")
        out = factor_left(op)
        doc = outcome_structured(out)
        assert doc["status"] == "factored"
        assert doc["root"]["value"] == "-1"
        assert doc["factor"]["p1"] == "1"
        assert doc["cofactor"]["order"] == 1
        json.dumps(doc)

    def test_riccati_document(self):
        out = factor_left(parse("Dx^2 + x*Dx"))
        doc = outcome_structured(out)
        assert doc["status"] == "degenerate"
        assert doc["riccati"]["constraints"]


class TestOutcomeReport:
    def test_plain_report_reparses_and_verifies(self):
        op = parse("Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2-x^2)/4 + 1")
        out = factor_left(op)
        text = outcome_str(out)
        lines = {k.strip(): v.strip() for k, v in
                 (ln.split(":", 1) for ln in text.splitlines() if ":" in ln)}
        factor = parse(lines["factor"])
        cofactor = parse(lines["cofactor"])
        assert factor.compose(cofactor) == op

    def test_residual_report(self):
        op = parse("Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2-x^2)/4 + a", {"a"})
        outs = factor_all_roots(op)
        texts = [outcome_str(o) for o in outs]
        assert "residuals: a - 1" in texts[0]
        assert "residuals: a + 1" in texts[1]


# terms ((i, j, k), c, r) of c * sqrt(2)^r * x^i * y^j * a^k: polynomials, and
# monomial denominators such as x*y, 2*x and x^2*y
_TERM = st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
                  st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
                  st.booleans())
_POLY = st.lists(_TERM, min_size=1, max_size=4)
_DENOMINATOR = st.one_of(_TERM.map(lambda t: [t]), _POLY)


def _build(terms) -> RatExpr:
    sqrt2 = parse_function("sqrt(2)")
    out = R.ZERO
    for (i, j, k), c, radical in terms:
        coeff = R.from_fraction(c) * (sqrt2 if radical else ONE)
        out = out + coeff * X ** i * Y ** j * R.symbol("a") ** k
    return out


class TestPlainFractionsReparse:
    @pytest.mark.parametrize("text", ["1/(x*y)", "-1/(2*x)", "3/(x^2*y)",
                                      "(x + y)/(2*x*y)", "x/(sqrt(2)*y)"])
    def test_monomial_denominators(self, text):
        r = parse_function(text)
        assert parse_function(ratexpr_display(r)) == r
        assert parse_function(str(r)) == r

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_POLY, _DENOMINATOR)
    def test_display_and_str_parse_back(self, num, den):
        den = _build(den)
        assume(not den.is_zero())
        r = _build(num) / den
        assert parse_function(ratexpr_display(r), {"a"}) == r
        assert parse_function(str(r), {"a"}) == r

    def test_operator_with_monomial_denominator(self):
        op = parse("(Dx + 1/(x*y))*(Dx + Dy)")
        out = factor_left(op)
        assert parse(operator_str(out.factor.as_operator())) == out.factor.as_operator()
        assert parse(operator_str(out.cofactor)) == out.cofactor


# operator coefficients: sums of either sign, so that an order-0 sum can lead
# with a minus, fractions, and sums of radicals standing alone or before x
_SIGNED = st.tuples(_POLY.map(_build), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
_COEFFICIENT = st.one_of(
    _SIGNED,
    st.tuples(_SIGNED, _DENOMINATOR.map(_build)).filter(lambda t: not t[1].is_zero())
    .map(lambda t: t[0] / t[1]),
    st.sampled_from(["1 + sqrt(2)", "-1 - sqrt(3)", "-x + sqrt(2)*y - 1", "(sqrt(2) - 1)*x",
                     "-(1 + sqrt(2))/(x + a)"]).map(lambda t: parse_function(t, {"a"})))
_WORDS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
_OPERATOR = st.tuples(_COEFFICIENT, st.dictionaries(st.sampled_from(_WORDS), _COEFFICIENT,
                                                   max_size=3)) \
    .map(lambda t: LPDO({(0, 0): t[0], **t[1]}))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_OPERATOR)
def test_plain_text_parses_back_and_latex_has_no_plain_spelling(op):
    text = operator_str(op)
    assert parse(text, {"a"}) == op
    assert "+ -" not in text
    latex = operator_latex(op)
    assert not any(s in latex for s in ("sqrt(", "*", "+ -")), latex
    assert not re.search(r"(?<!\\left)\(", latex), latex  # groups are \left(...\right)
    assert not [n for n in _numerators(latex)
                if n.startswith("-") and " + " not in n and " - " not in n], latex


def _numerators(latex: str) -> list[str]:
    """The numerator of each \\frac in latex, read to its closing brace."""
    out = []
    for m in re.finditer(r"\\frac\{", latex):
        depth, i = 1, m.end()
        while depth:
            depth += {"{": 1, "}": -1}.get(latex[i], 0)
            i += 1
        out.append(latex[m.end():i - 1])
    return out


def test_latex_puts_the_sign_of_a_lone_numerator_term_before_the_fraction():
    assert operator_latex(parse("Dx - x/2")) == r"\partial_x - \frac{x}{2}"
    assert ratexpr_latex(parse_function("-x/(y+1)")) == r"-\frac{x}{y + 1}"
    assert ratexpr_latex(parse_function("(y - x)/(y+1)")) == r"\frac{-x + y}{y + 1}"


def test_latex_groups_radical_terms_with_left_right_and_never_a_lone_numerator():
    assert operator_latex(parse("(sqrt(2) - 1)/(x+1)*Dx^2 + Dx")) == \
        r"\frac{-1 + \sqrt{2}}{x + 1}\partial_x^{2} + \partial_x"
    assert operator_latex(parse("(sqrt(2) - 1)*x/(x+1)*Dx^2 + Dx")) == \
        r"\frac{\left(-1 + \sqrt{2}\right) x}{x + 1}\partial_x^{2} + \partial_x"
    assert ratexpr_latex(parse_function("1 + sqrt(3)")) == r"\left(1 + \sqrt{3}\right)"
    # plain output keeps its parentheses
    assert operator_str(parse("(sqrt(2) - 1)/(x+1)*Dx^2 + Dx")) == \
        "(-1 + sqrt(2))/(x + 1)*Dx^2 + Dx"
    assert ratexpr_display(parse_function("1 + sqrt(3)")) == "(1 + sqrt(3))"
