"""The packed monomial keys of Poly, and IntPoly, their integer view.

Every key holds one bit field per symbol of its Poly's symbol tuple; these
properties run over two to four symbols with rational coefficients: Poly's
ring operations and derivatives agree with sympy, IntPoly's with Poly,
exact division agrees with sympy, an inexact division raises (also when the
divisor's leading monomial does not divide, which shows as a borrow into a
guard bit), the GCDHEU gcd agrees with the subresultant PRS, and exponents
at the field bound work while one past it raises OverflowError."""

import time
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


def _key(exponents) -> int:
    return sum(k << _W * i for i, k in enumerate(exponents))


def _poly(syms, terms) -> Poly:
    return Poly(tuple(syms), {_key(e): ConstScalar.from_rational(q) for e, q in terms.items()})


@st.composite
def polys(draw, syms, min_terms=0, max_terms=4, max_exp=2):
    exponents = st.tuples(*[st.integers(0, max_exp)] * len(syms))
    terms = draw(st.dictionaries(exponents, rationals.filter(bool),
                                 min_size=min_terms, max_size=max_terms))
    return _poly(syms, terms)


@st.composite
def cases(draw, count=2, min_terms=0):
    syms = tuple(SYMBOLS[:draw(st.integers(2, 4))])
    return (syms, *(draw(polys(syms, min_terms)) for _ in range(count)))


def _sympy(p):
    """p through its terms view, the form readers outside the package use."""
    return sum((sympy.Rational(c.rational_value().numerator, c.rational_value().denominator)
                * sympy.Mul(*(sympy.Symbol(s) ** k for s, k in m))
                for m, c in p.terms.items()), sympy.Integer(0))


@PROPERTY
@given(cases(), st.integers(-3, 3))
def test_poly_ring_operations_and_derivatives_match_sympy(case, k):
    syms, p, q = case
    f, g = _sympy(p), _sympy(q)
    for got, want in [(p + q, f + g), (p - q, f - g), (p * q, f * g), (q * p, g * f),
                      (-p, -f), (p.scale_rational(k), k * f), (p ** 2, f ** 2)]:
        assert sympy.expand(_sympy(got) - want) == 0
    for var in syms:
        assert sympy.expand(_sympy(p.partial(var)) - sympy.diff(f, sympy.Symbol(var))) == 0
    assert (p - p).is_zero() and (p - p).syms == ("x", "y")
    assert p.symbols() == {str(s) for s in f.free_symbols}


@PROPERTY
@given(cases(), st.integers(-3, 3))
def test_ring_operations_and_derivatives_match_poly(case, k):
    syms, p, q = case
    f, g = IntPoly.from_poly(p, syms), IntPoly.from_poly(q, syms)
    assert f.to_poly(syms) == p
    assert (f + g).to_poly(syms) == p + q
    assert (f - g).to_poly(syms) == p - q
    assert (f * g).to_poly(syms) == p * q
    assert (g * f).to_poly(syms) == q * p
    assert f.scale_rational(k).to_poly(syms) == p.scale_rational(k)
    assert f.to_poly(syms, Fraction(-2, 3)) == p.scale_rational(Fraction(-2, 3))
    for var in ("x", "y"):
        assert f.diff(var).to_poly(syms) == p.diff(var)


def test_keys_stand_when_a_symbol_joins_after_y():
    x, y, a = Poly.symbol("x"), Poly.symbol("y"), Poly.symbol("a")
    p = x * x + y
    assert p.syms == ("x", "y") and set(p.packed) == {2, 1 << _W}
    q = p + a
    assert q.syms == ("x", "y", "a") and {2, 1 << _W} <= set(q.packed)
    assert (q - a).syms == ("x", "y")  # a symbol no term uses is dropped
    b = Poly.symbol("b")
    assert (a + b - a).syms == ("x", "y", "b")
    assert (a + b - a).packed == {1 << 2 * _W: ConstScalar.ONE}


@PROPERTY
@given(cases(min_terms=1))
def test_exact_division_matches_poly(case):
    syms, p, q = case
    f, g = IntPoly.from_poly(p, syms), IntPoly.from_poly(q, syms)
    assert (f * g).exact_div(g).to_poly(syms) == p
    assert (p * q).exact_div(q) == p


@PROPERTY
@given(cases(min_terms=1))
def test_division_is_exact_exactly_when_sympy_says_so(case):
    syms, p, q = case
    assume(not q.is_const())
    f, g = IntPoly.from_poly(p, syms), IntPoly.from_poly(q, syms)
    _, r = sympy.div(_sympy(p), _sympy(q), *map(sympy.Symbol, syms))
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
    syms = ("x", "y")
    x2y = 2 + (1 << _W)
    assert expr._zp_quo({2 << _W: 1}, {x2y: 1, 0: 1}) is None
    y2, g = _poly(syms, {(0, 2): 1}), _poly(syms, {(2, 1): 1, (0, 0): 1})
    with pytest.raises(ValueError):
        IntPoly.from_poly(y2, syms).exact_div(IntPoly.from_poly(g, syms))
    with pytest.raises(ValueError):
        y2.exact_div(g)
    with pytest.raises(ValueError):  # the same borrow over radical coefficients
        y2.exact_div(g.scale(ConstScalar.radical(2)))
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
    syms = ("x", "y", "a")
    top = _poly(syms, {(_EXP_MAX, _EXP_MAX, _EXP_MAX): Fraction(3, 2), (0, 1, 0): 1})
    f = IntPoly.from_poly(top, syms)
    assert f.to_poly(syms) == top
    assert f.diff("y").to_poly(syms) == top.diff("y")
    one_less = _poly(syms, {(_EXP_MAX - 1, 0, 0): 1})
    x = Poly.symbol("x")
    product = one_less * x
    assert product == Poly.symbol("x", _EXP_MAX)
    assert product.exact_div(x) == one_less
    assert IntPoly.from_poly(product, syms).exact_div(
        IntPoly.from_poly(x, syms)).to_poly(syms) == one_less
    at_bound = R(_poly(("x", "y"), {(_EXP_MAX, 0): 1, (0, 1): 2}), Poly.ONE)
    assert type(Lane([at_bound, R.ONE / (R.X + R.Y)]).power(1)) is IntPoly
    for var in range(3):  # a carry out of any field is caught
        e = [0, 0, 0]
        e[var] = 1
        with pytest.raises(OverflowError):
            f * IntPoly.from_poly(_poly(syms, {tuple(e): 1}), syms)
        with pytest.raises(OverflowError):
            top * _poly(syms, {tuple(e): 1})


def test_one_past_the_bound_raises():
    with pytest.raises(OverflowError):
        Poly.symbol("x", _EXP_MAX + 1)
    with pytest.raises(OverflowError):
        _poly(("x", "y"), {(_EXP_MAX + 1, 0): 1})
    with pytest.raises(OverflowError):
        Poly.symbol("a", _EXP_MAX) * Poly.symbol("a")
    with pytest.raises(OverflowError):
        Poly.symbol("y", 1 << _W - 2) ** 2
    assert Poly.symbol("y", 1 << _W - 3) ** 2 == Poly.symbol("y", 1 << _W - 2)
    # GCDHEU gives up rather than interpolate past the bound
    assert expr._zp_interpolate({0: 1 << _EXP_MAX + 1}, 2, 0) is None
    # a non-square whose trial root squares past the bound has no root
    x8000 = Poly.symbol("x", 8000)
    y8000 = Poly.symbol("y", 8000)
    not_square = (x8000 * y8000) ** 2 + x8000 * Poly.symbol("x", 8200) * y8000
    assert expr.poly_sqrt(not_square) is None


def test_a_quotient_past_the_bound_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(OverflowError):
        (R.X ** (_EXP_MAX + 1) + R.from_int(2) * R.Y) / (R.X + R.Y)
    assert time.perf_counter() - start < 0.1
