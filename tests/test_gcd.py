"""Properties of poly_gcd on random rational polynomials in x, y and a
parameter with a planted common factor, with sympy as the oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdo import expr
from lpdo.expr import ConstScalar, Poly, _W, poly_gcd

sympy = pytest.importorskip("sympy")

SYMS = ("x", "y", "a")  # in the term order's symbol rank
PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def _poly(terms: dict[tuple[int, ...], Fraction]) -> Poly:
    return Poly(SYMS, {sum(k << _W * i for i, k in enumerate(e)): ConstScalar.from_rational(q)
                       for e, q in terms.items()})


def polys(min_terms: int, max_terms: int):
    exponents = st.tuples(*[st.integers(0, 2)] * len(SYMS))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool)
    return st.dictionaries(exponents, coeffs, min_size=min_terms,
                           max_size=max_terms).map(_poly)


# cofactors p, q and a non-constant common factor c
planted = st.tuples(polys(1, 4), polys(1, 4), polys(2, 3))


def _sympy(p: Poly):
    gens = dict(zip(SYMS, sympy.symbols(SYMS)))
    value = 0
    for m, c in p.terms.items():
        q = c.rational_value()
        value += sympy.Rational(q.numerator, q.denominator) * sympy.Mul(
            *(gens[s] ** k for s, k in m))
    return sympy.Poly(value, *gens.values(), domain="QQ")


def _divides(g: Poly, f: Poly) -> bool:
    try:
        f.exact_div(g)
    except ValueError:
        return False
    return True


@PROPERTY
@given(planted)
def test_gcd_is_monic_and_divides_both(case):
    p, q, c = case
    f, g = p * c, q * c
    h = poly_gcd(f, g)
    assert h.leading_term()[1] == ConstScalar.ONE
    assert _divides(h, f) and _divides(h, g)
    assert _divides(c, h)


@PROPERTY
@given(planted)
def test_cofactors_are_coprime(case):
    p, q, c = case
    f, g = p * c, q * c
    h = poly_gcd(f, g)
    assert poly_gcd(f.exact_div(h), g.exact_div(h)) == Poly.ONE


@PROPERTY
@given(planted)
def test_gcd_matches_sympy(case):
    p, q, c = case
    f, g = p * c, q * c
    assert _sympy(poly_gcd(f, g)).monic() == sympy.gcd(_sympy(f), _sympy(g)).monic()


@PROPERTY
@given(planted)
def test_integer_lane_matches_prs(case):
    p, q, c = case
    f, g = p * c, q * c
    h = expr._int_gcd(f, g)
    assert h is not None
    assert h == expr._prs_gcd(f, g)


def test_radical_coefficients_take_the_prs(monkeypatch):
    x, y = Poly.symbol("x"), Poly.symbol("y")
    common = x + Poly.const(ConstScalar.radical(2)) * y
    f = common * (x - y)
    g = common * (x + Poly.ONE)
    calls = []
    prs = expr._prs_gcd

    def recording(a, b):
        calls.append((a, b))
        return prs(a, b)

    monkeypatch.setattr(expr, "_prs_gcd", recording)
    assert expr._int_gcd(f, g) is None
    assert poly_gcd(f, g) == common
    assert calls
