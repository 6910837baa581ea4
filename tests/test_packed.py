"""The packed monomial keys of the integer lane against Poly.

Every ZPoly key holds one bit field per symbol; these properties run over
two to four symbols with rational coefficients: IntPoly's ring operations,
derivatives, exact division and conversions agree with Poly, an inexact
division raises (also when the divisor's leading monomial does not divide,
which shows as a borrow into a guard bit), the GCDHEU gcd agrees with the
subresultant PRS, and exponents at the field bound work while one past it
takes the non-integer paths."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpdo import expr
from lpdo.expr import ConstScalar, IntPoly, Poly, RatExpr as R, _EXP_MAX, _W
from lpdo.factorize import Lane

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

SYMBOLS = ("x", "y", "a", "b")
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def _poly(syms, terms) -> Poly:
    return Poly({tuple((s, k) for s, k in zip(syms, e) if k): ConstScalar.from_rational(q)
                 for e, q in terms.items()})


@st.composite
def polys(draw, syms, min_terms=0, max_terms=4, max_exp=2):
    exponents = st.tuples(*[st.integers(0, max_exp)] * len(syms))
    terms = draw(st.dictionaries(exponents, rationals.filter(bool),
                                 min_size=min_terms, max_size=max_terms))
    return _poly(syms, terms)


@st.composite
def cases(draw, count=2, min_terms=0):
    syms = list(SYMBOLS[:draw(st.integers(2, 4))])
    return (syms, *(draw(polys(syms, min_terms)) for _ in range(count)))


def _int(p, syms):
    return IntPoly.from_poly(p, {s: i for i, s in enumerate(syms)})


@PROPERTY
@given(cases(), st.integers(-3, 3))
def test_ring_operations_and_derivatives_match_poly(case, k):
    syms, p, q = case
    f, g = _int(p, syms), _int(q, syms)
    assert f.to_poly(syms) == p
    assert (f + g).to_poly(syms) == p + q
    assert (f - g).to_poly(syms) == p - q
    assert (f * g).to_poly(syms) == p * q
    assert (g * f).to_poly(syms) == q * p
    assert f.scale_rational(k).to_poly(syms) == p.scale_rational(k)
    assert f.to_poly(syms, Fraction(-2, 3)) == p.scale_rational(Fraction(-2, 3))
    for var in ("x", "y"):
        assert f.diff(var).to_poly(syms) == p.diff(var)


@PROPERTY
@given(cases(min_terms=1))
def test_exact_division_matches_poly(case):
    syms, p, q = case
    f, g = _int(p, syms), _int(q, syms)
    assert (f * g).exact_div(g).to_poly(syms) == p
    assert (p * q).exact_div(q) == p


def _sympy(p, syms):
    return sum((sympy.Rational(c.rational_value().numerator, c.rational_value().denominator)
                * sympy.Mul(*(sympy.Symbol(s) ** k for s, k in m)))
               for m, c in p.terms.items())


@PROPERTY
@given(cases(min_terms=1))
def test_division_is_exact_exactly_when_sympy_says_so(case):
    syms, p, q = case
    assume(not q.is_const())
    f, g = _int(p, syms), _int(q, syms)
    _, r = sympy.div(_sympy(p, syms), _sympy(q, syms), *map(sympy.Symbol, syms))
    if r == 0:
        assert (f.exact_div(g) * g).to_poly(syms) == p
    else:
        with pytest.raises(ValueError):
            f.exact_div(g)
        with pytest.raises(ValueError):
            p.exact_div(q)


def test_a_leading_monomial_that_does_not_divide_is_a_borrow():
    # y^2 is above x^2*y in the packed order (y is the higher field), but
    # x^2 does not divide it: the x field borrows from its guard bit
    syms = ["x", "y"]
    x2y = 2 + (1 << _W)
    assert expr._zp_quo({2 << _W: 1}, {x2y: 1, 0: 1}) is None
    y2, g = _poly(syms, {(0, 2): 1}), _poly(syms, {(2, 1): 1, (0, 0): 1})
    with pytest.raises(ValueError):
        _int(y2, syms).exact_div(_int(g, syms))
    with pytest.raises(ValueError):
        y2.exact_div(g)
    assert expr._zp_quo({2 + (2 << _W): 3, 1 << _W: 3}, {x2y: 1, 0: 1}) == {1 << _W: 3}


@PROPERTY
@given(cases(count=3, min_terms=1))
def test_heuristic_gcd_matches_the_prs(case):
    syms, p, q, c = case
    assume(not c.is_const())
    a, b = p * c, q * c
    assume(not a.is_const() and not b.is_const())
    got = expr._int_gcd(a, b)
    assume(got is not None)
    assert got == expr._prs_gcd(a, b)
    assert got == expr.poly_gcd(a, b)


def test_exponents_at_the_field_bound():
    syms = ["x", "y", "a"]
    index = {s: i for i, s in enumerate(syms)}
    top = _poly(syms, {(_EXP_MAX, _EXP_MAX, _EXP_MAX): Fraction(3, 2), (0, 1, 0): 1})
    f = IntPoly.from_poly(top, index)
    assert f.to_poly(syms) == top
    assert f.diff("y").to_poly(syms) == top.diff("y")
    one_less = _poly(syms, {(_EXP_MAX - 1, 0, 0): 1})
    x = _poly(syms, {(1, 0, 0): 1})
    product = IntPoly.from_poly(one_less, index) * IntPoly.from_poly(x, index)
    assert product.to_poly(syms) == one_less * x
    assert (product.exact_div(IntPoly.from_poly(x, index))).to_poly(syms) == one_less
    for var in (0, 1, 2):  # a carry out of any field is caught
        e = [0, 0, 0]
        e[var] = 1
        with pytest.raises(OverflowError):
            f * IntPoly.from_poly(_poly(syms, {tuple(e): 1}), index)


def test_one_past_the_bound_takes_the_fallback():
    syms = ["x", "y"]
    index = {"x": 0, "y": 1}
    big = _poly(syms, {(_EXP_MAX + 1, 0): 1, (0, 1): 2})
    g = _poly(syms, {(1, 0): 1, (0, 1): -1})
    assert IntPoly.from_poly(big, index) is None
    assert expr._int_gcd(big * g, g) is None  # poly_gcd goes on to the PRS
    assert (big * g).exact_div(g) == big  # the ConstScalar division
    at_bound = R(_poly(syms, {(_EXP_MAX, 0): 1, (0, 1): 2}), Poly.ONE)
    assert type(Lane([at_bound, R.ONE / (R.X + R.Y)]).power(1)) is IntPoly
    lane = Lane([R(big, Poly.ONE), R.ONE / (R.X + R.Y)])
    assert type(lane.power(1)) is Poly
    assert lane.reduce(lane.lift(R(big, Poly.ONE))) == R(big, Poly.ONE)
    with pytest.raises(OverflowError):  # a Q past the bound on an integer lane
        Lane([at_bound])._set_q(big)
    # GCDHEU gives up rather than interpolate past the bound
    assert expr._zp_interpolate({0: 1 << _EXP_MAX + 1}, 2, 0) is None
