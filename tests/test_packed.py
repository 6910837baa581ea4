"""The packed monomial keys of Poly, and its two coefficient kinds.

Every key holds one bit field per symbol of its Poly's symbol tuple; these
properties run over two to four symbols with rational coefficients, which a
Poly stores as int numerators over one denominator: the ring operations and
derivatives agree with sympy, and the same operations through radical
coefficients (ConstScalars) give the same canonical Polys; exact division
agrees with sympy, an inexact division raises (also when the divisor's
leading monomial does not divide, which shows as a borrow into a guard
bit), the GCDHEU gcd agrees with the subresultant PRS, Poly.fma is the
product and the sum it fuses, and exponents at the field bound work while
one past it raises OverflowError.  Only expr.py reads the format."""

import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpdo import expr
from lpdo.expr import ConstScalar, Poly, RatExpr as R, _EXP_MAX, _W
from lpdo.factorize import Lane

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

SYMBOLS = ("x", "y", "a", "b")
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
S2 = Poly.const(ConstScalar.radical(2))


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


def _same(got, want):
    assert got == want and hash(got) == hash(want) and got.den == want.den


@PROPERTY
@given(cases(), st.integers(-3, 3))
def test_ring_operations_and_derivatives_match_poly(case, k):
    # the int numerators against the same values through sqrt(2), which
    # makes their coefficients ConstScalars, and back
    syms, p, q = case
    assert p.den is not None and q.den is not None
    f, g = p * S2, q * S2
    assert f.is_zero() or f.den is None
    _same(p + g - g, p)
    _same(f + q - f, q)
    _same((f + g) * S2, (p + q).scale_rational(2))
    _same((f - g) * S2, (p - q).scale_rational(2))
    _same(f * g, (p * q).scale_rational(2))
    _same((g * f).exact_div(S2).exact_div(S2), q * p)
    _same(f.scale_rational(k) * S2, p.scale_rational(2 * k))
    _same(f.scale(S2.const_value().inverse()), p)
    _same((f * S2).scale_rational(Fraction(-2, 3)), p.scale_rational(Fraction(-4, 3)))
    for var in syms:
        _same(f.partial(var) * S2, p.partial(var).scale_rational(2))
    for var in ("x", "y"):
        _same(f.diff(var) - p.diff(var) * S2, Poly.ZERO)


U, U_X = expr.Unknown("u"), expr.Unknown("u", 1, 0)
# the symbol tuples an fma operand may sit on beyond its x, y terms
FACTORS = (Poly.ONE, Poly.symbol("a"), Poly.symbol(U), Poly.symbol(U_X) + Poly.symbol(U))


@st.composite
def fma_cases(draw):
    """Three operands in x and y, of one kind: rational (the one-pass
    path), sqrt(2) coefficients on some, or some times a parameter or an
    unknown's jets, which gives them symbol tuples of their own."""
    kind = draw(st.sampled_from(("rational", "radical", "symbols")))
    out = []
    for _ in range(3):
        p = draw(polys(("x", "y")))
        if kind == "radical" and draw(st.booleans()):
            p = p * S2
        elif kind == "symbols":
            p = p * draw(st.sampled_from(FACTORS))
        out.append(p)
    return out


@settings(PROPERTY, max_examples=80)
@given(fma_cases(), st.integers(-3, 3), st.booleans())
def test_fma_is_the_product_and_the_sum(case, sign, flip):
    a, b, c = case
    got = a.fma(b, c, sign, flip)
    want = (-a if flip else a) + (b * c).scale_rational(sign)
    _same(got, want)
    assert got.syms == want.syms and str(got) == str(want)
    for x, y, z in ((Poly.ZERO, b, c), (a, Poly.ZERO, c), (a, b, Poly.ZERO)):
        _same(x.fma(y, z, sign), x + (y * z).scale_rational(sign))


def test_fma_past_the_exponent_bound_raises():
    top, x = Poly.symbol("x", _EXP_MAX), Poly.symbol("x")
    assert Poly.ONE.fma(top, Poly.ONE) == top + Poly.ONE
    for a in (Poly.ONE, top, S2):  # the one-pass path, then through sqrt(2)
        with pytest.raises(OverflowError):
            a.fma(top, x)
        with pytest.raises(OverflowError):
            a.fma(x, top + Poly.ONE, -1, True)


def test_keys_stand_when_a_symbol_joins_after_y():
    x, y, a = Poly.symbol("x"), Poly.symbol("y"), Poly.symbol("a")
    p = x * x + y
    assert p.syms == ("x", "y") and set(p.packed) == {2, 1 << _W}
    q = p + a
    assert q.syms == ("x", "y", "a") and {2, 1 << _W} <= set(q.packed)
    assert (q - a).syms == ("x", "y")  # a symbol no term uses is dropped
    b = Poly.symbol("b")
    assert (a + b - a).syms == ("x", "y", "b")
    assert (a + b - a).packed == {1 << 2 * _W: 1} and (a + b - a).den == 1


@PROPERTY
@given(cases(min_terms=1))
def test_exact_division_matches_poly(case):
    # over Z on the int numerators, over ConstScalar when either side
    # carries sqrt(2)
    syms, p, q = case
    _same((p * q).exact_div(q), p)
    _same((p * q * S2).exact_div(q * S2), p)
    _same((p * q * S2).exact_div(q), p * S2)
    _same((p * q).exact_div(q * S2).scale_rational(2), p * S2)


@PROPERTY
@given(cases(min_terms=1))
def test_division_is_exact_exactly_when_sympy_says_so(case):
    syms, p, q = case
    assume(not q.is_const())
    _, r = sympy.div(_sympy(p), _sympy(q), *map(sympy.Symbol, syms))
    if r == 0:
        assert p.exact_div(q) * q == p
    else:
        with pytest.raises(ValueError):
            p.exact_div(q)
        with pytest.raises(ValueError):
            (p * S2).exact_div(q)


def test_a_leading_monomial_that_does_not_divide_is_a_borrow():
    # y^2 is above x^2*y in the packed order (y is the higher field), but
    # x^2 does not divide it: the x field borrows from its guard bit
    syms = ("x", "y")
    x2y = 2 + (1 << _W)
    assert expr._zp_quo({2 << _W: 1}, {x2y: 1, 0: 1}) is None
    y2, g = _poly(syms, {(0, 2): 1}), _poly(syms, {(2, 1): 1, (0, 0): 1})
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
    assert top.terms == {(("x", _EXP_MAX), ("y", _EXP_MAX), ("a", _EXP_MAX)):
                         ConstScalar.from_rational(Fraction(3, 2)),
                         (("y", 1),): ConstScalar.ONE}
    assert top.diff("y") == _poly(syms, {(_EXP_MAX, _EXP_MAX - 1, _EXP_MAX):
                                         Fraction(3 * _EXP_MAX, 2), (0, 0, 0): 1})
    one_less = _poly(syms, {(_EXP_MAX - 1, 0, 0): 1})
    x = Poly.symbol("x")
    product = one_less * x
    assert product == Poly.symbol("x", _EXP_MAX)
    assert product.exact_div(x) == one_less
    assert (product * S2).exact_div(x * S2) == one_less
    at_bound = R(_poly(("x", "y"), {(_EXP_MAX, 0): 1, (0, 1): 2}), Poly.ONE)
    assert Lane([at_bound, R.ONE / (R.X + R.Y)]).power(1) == (R.X + R.Y).num
    for var in range(3):  # a carry out of any field is caught
        e = [0, 0, 0]
        e[var] = 1
        with pytest.raises(OverflowError):
            top * _poly(syms, {tuple(e): 1})
        with pytest.raises(OverflowError):
            (top * S2) * _poly(syms, {tuple(e): 1})


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


def test_only_expr_reads_the_coefficient_format():
    # the format of Poly and ConstScalar is private to expr.py: every other
    # module goes through their methods and views
    fields = re.compile(r"\.(packed|coords|_coords|_den)\b")
    src = Path(expr.__file__).parent
    readers = [f.name for f in sorted(src.glob("*.py"))
               if f.name != "expr.py" and fields.search(f.read_text())]
    assert readers == []
