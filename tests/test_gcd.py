"""Properties of poly_gcd on random rational polynomials in x, y and a
parameter with a planted common factor, on a polynomial of total degree 1
against another, and on a pair of which only one holds the parameter, with
sympy as the oracle."""

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


def _sympy(p: Poly, domain="QQ"):
    gens = dict(zip(SYMS, sympy.symbols(SYMS)))
    value = 0
    for m, c in p.terms.items():
        coeff = sum(sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
                    for d, q in c.coords.items())
        value += coeff * sympy.Mul(*(gens[s] ** k for s, k in m))
    return sympy.Poly(value, *gens.values(), domain=domain)


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


# -- a polynomial of total degree 1 against another -------------------------

QQ_SQRT2 = sympy.QQ.algebraic_field(sympy.sqrt(2))
small = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def linears(fields: tuple[str, ...], required: str | None = None, radical: bool = False):
    """c0 + the sum of c_s * s over fields, of total degree 1; c_required is
    nonzero, and with radical some c carries sqrt(2)."""
    names = ("1",) + fields
    parts = st.tuples(small, small if radical else st.just(Fraction(0)))
    coeffs = st.tuples(*[parts] * len(names)).map(lambda cs: dict(zip(names, cs)))

    def usable(cs):
        return (any(any(cs[s]) for s in fields) and (required is None or any(cs[required]))
                and (not radical or any(r for _, r in cs.values())))

    def build(cs):
        keys = {"1": 0, **{s: 1 << _W * SYMS.index(s) for s in fields}}
        return Poly(SYMS, {keys[s]: ConstScalar({1: q, 2: r}) for s, (q, r) in cs.items()
                           if q or r})
    return coeffs.filter(usable).map(build)


def _check_against_sympy(lin: Poly, f: Poly, times: bool, domain="QQ"):
    # half the time the other operand is a multiple of lin; either way the
    # gcd is lin or 1, in either argument order
    other = lin * f if times else f
    want = sympy.gcd(_sympy(lin, domain), _sympy(other, domain)).monic()
    assert _sympy(poly_gcd(lin, other), domain) == want
    assert _sympy(poly_gcd(other, lin), domain) == want


@PROPERTY
@given(linears(("x", "y")), polys(1, 4), st.booleans())
def test_degree_one_gcd_matches_sympy(lin, f, times):
    _check_against_sympy(lin, f, times)


@PROPERTY
@given(linears(("x", "y", "a"), required="a"), polys(1, 4), st.booleans())
def test_degree_one_gcd_with_a_parameter_matches_sympy(lin, f, times):
    _check_against_sympy(lin, f, times)


@PROPERTY
@given(linears(("x", "y"), radical=True), polys(1, 4), st.booleans())
def test_degree_one_gcd_with_a_radical_matches_sympy(lin, f, times):
    _check_against_sympy(lin, f, times, QQ_SQRT2)


def test_proportional_degree_one_operands():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    lin = x.scale_rational(2) - y.scale_rational(4) + Poly.rational(6)
    want = x - y.scale_rational(2) + Poly.rational(3)
    for other in (lin.scale_rational(Fraction(-3, 2)), lin * Poly.const(ConstScalar.radical(2))):
        assert poly_gcd(lin, other) == want
        assert poly_gcd(other, lin) == want


# -- an input that holds a symbol the other lacks -----------------------------

def polys_in(fields: tuple[str, ...], radical: bool):
    """Polys of 1-4 terms in the symbols fields, some coefficients carrying
    sqrt(2) when radical."""
    exponents = st.tuples(*[st.integers(0, 2) if s in fields else st.just(0) for s in SYMS])
    coeffs = st.tuples(small, small if radical else st.just(Fraction(0))).filter(any)
    return st.dictionaries(exponents, coeffs, min_size=1, max_size=4).map(
        lambda terms: Poly(SYMS, {sum(k << _W * i for i, k in enumerate(e)): ConstScalar({1: q, 2: r})
                                  for e, (q, r) in terms.items()}))


@st.composite
def one_sided(draw):
    """f in x, y and a, g in x and y alone, with a common factor free of a
    planted or not."""
    radical = draw(st.booleans())
    p = draw(polys_in(SYMS, radical).filter(lambda p: "a" in p.symbols()))
    q, c = draw(polys_in(("x", "y"), radical)), draw(polys_in(("x", "y"), radical))
    planted = draw(st.booleans())
    return (p * c, q * c) if planted else (p, q), radical


@PROPERTY
@given(one_sided())
def test_gcd_with_a_symbol_one_input_lacks_matches_sympy(case):
    (f, g), radical = case
    domain = QQ_SQRT2 if radical else "QQ"
    want = sympy.gcd(_sympy(f, domain), _sympy(g, domain)).monic()
    assert _sympy(poly_gcd(f, g), domain) == want
    assert _sympy(poly_gcd(g, f), domain) == want
