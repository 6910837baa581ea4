"""The common-denominator descent against a reference level loop that keeps
every value a reduced RatExpr, on both numerator lanes (IntPoly for rational
inputs, Poly otherwise), and the integer lane of Poly.exact_div."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdo import expr, parse, parse_function
from lpdo.expr import ConstScalar, IntPoly, Poly, RatExpr as R
from lpdo.factorize import LevelState, OutcomeStatus, factor_left, solve_level
from lpdo.operator import LPDO, FirstOrderFactor

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

X, Y = R.X, R.Y


# --------------------------------------------------------------------------
# the reference: every value a reduced RatExpr
# --------------------------------------------------------------------------

def _oracle_top(op, omega):
    n = op.order
    out, acc = {}, R.ZERO
    for k in range(n):
        acc = acc * omega + op.coeff(n - k, k)
        if not acc.is_zero():
            out[(n - 1 - k, k)] = acc
    return out


def _oracle_descent(op, omega, p3, top):
    def L(f):
        return f.diff("x") - omega * f.diff("y")

    solved = dict(top)
    residuals = []
    for m in range(op.order - 1, -1, -1):
        cs = []
        for k in range(m + 1):
            p = solved.get((m - k, k), R.ZERO)
            cs.append(op.coeff(m - k, k) - L(p) - p3 * p)
        u_prev = R.ZERO
        for k in range(m):
            u = cs[k] + omega * u_prev
            if not u.is_zero():
                solved[(m - 1 - k, k)] = u
            u_prev = u
        residuals.append(cs[m] + omega * u_prev)
    return solved, residuals


def _descent(op, omega, p3, top, lane=None):
    """The common-denominator descent with the whole cofactor map read back,
    zero residuals or not; lane, when given, is the numerator type the state
    must hold."""
    state = LevelState(op, omega, p3, top)
    if lane is not None:
        assert type(state.power(0)) is lane
    residuals = [solve_level(state, op, m) for m in range(op.order - 1, -1, -1)]
    return {jk: state.reduce(v) for jk, v in state.solved.items()}, residuals


def _assert_same(op, omega, p3, lane=None):
    top = _oracle_top(op, omega)
    want_cof, want_res = _oracle_descent(op, omega, p3, top)
    got_cof, got_res = _descent(op, omega, p3, top, lane)
    assert got_res == want_res
    assert [str(r) for r in got_res] == [str(r) for r in want_res]
    assert got_cof == want_cof
    assert {jk: str(v) for jk, v in got_cof.items()} == \
        {jk: str(v) for jk, v in want_cof.items()}


# --------------------------------------------------------------------------
# random operators with rational-function coefficients
# --------------------------------------------------------------------------

DENOMINATORS = (R.ONE, X + Y, X * Y, (X + R.ONE) ** 2)
ROOTS = (R.ZERO, R.from_int(2), X, X - Y,
         -Y / (Y + R.ONE), R.ONE / X, (X + R.ONE) / (X + Y))
P3S = (R.ZERO, X, R.ONE / (X + Y), Y / (X + R.ONE) ** 2)


@st.composite
def coefficients(draw):
    c0, cx, cy = (draw(st.integers(-2, 2)) for _ in range(3))
    num = R.from_int(c0) + R.from_int(cx) * X + R.from_int(cy) * Y
    return num / draw(st.sampled_from(DENOMINATORS))


@st.composite
def operators(draw, coefficients=coefficients):
    n = draw(st.integers(2, 4))
    coeffs = {}
    for j in range(n + 1):
        for k in range(n + 1 - j):
            if draw(st.booleans()):
                coeffs[(j, k)] = draw(coefficients())
    lead = draw(coefficients())
    coeffs[(n, 0)] = lead if not lead.is_zero() else R.ONE
    return LPDO(coeffs)


@PROPERTY
@given(operators(), st.sampled_from(ROOTS), st.sampled_from(P3S))
def test_descent_matches_the_ratexpr_loop(op, omega, p3):
    _assert_same(op, omega, p3, IntPoly)


# non-integer rational coefficients and a plain parameter a beside x and y
A = R.symbol("a")
FRACTIONS = tuple(map(Fraction, (1, -2, "1/2", "-3/4", "5/3")))
Q_DENOMINATORS = (R.ONE, X + Y, Y + R.ONE, X + A, X * A)
Q_ROOTS = (R.from_fraction(Fraction(-3, 4)), -Y / (Y + R.ONE),
           R.from_fraction(Fraction(1, 2)) * X + A, A / (X + R.ONE))
Q_P3S = (R.ZERO, R.from_fraction(Fraction(-3, 4)) * A,
         X / (R.from_int(2) * Y + R.ONE))


@st.composite
def rational_coefficients(draw):
    num = R.ZERO
    for t in (R.ONE, X, Y, A):
        if draw(st.booleans()):
            num = num + R.from_fraction(draw(st.sampled_from(FRACTIONS))) * t
    return num / draw(st.sampled_from(Q_DENOMINATORS))


@settings(PROPERTY, max_examples=25)
@given(operators(rational_coefficients), st.sampled_from(Q_ROOTS),
       st.sampled_from(Q_P3S))
def test_rational_coefficients_and_a_parameter_take_the_integer_lane(op, omega, p3):
    _assert_same(op, omega, p3, IntPoly)


def test_rational_operator_state_holds_integer_numerators():
    op = parse("Dx^3 + x/2*Dx^2*Dy - 3/4*y*Dy^2 + a*Dx + 1/(x + y)", {"a"})
    omega = parse_function("-y/(y + 1)")
    state = LevelState(op, omega, A, _oracle_top(op, omega))
    solve_level(state, op, op.order - 1)
    values = [state.omega, state.p3, *state.solved.values()]
    assert all(type(n) is IntPoly and type(k) is int for n, k in values)
    assert type(state.power(3)) is IntPoly


def test_sqrt2_coefficient_takes_the_poly_lane():
    s2 = R.sqrt_int(2)
    op = LPDO({(2, 0): R.ONE, (1, 1): s2 * X, (0, 2): -R.ONE / (X + Y),
               (1, 0): Y, (0, 0): s2 / (Y + R.ONE)})
    _assert_same(op, X - Y, R.ONE / (X + Y), Poly)
    _assert_same(op, s2, Y, Poly)


def test_differential_parameters_take_the_poly_lane():
    a10, a01 = R.unknown("a10"), R.unknown("a01")
    half = R.from_fraction(Fraction(1, 2))
    grad = lambda f: f.diff("x") + f.diff("y")
    a00 = (R.from_int(2) * grad(a10 + a01) + a10 * a10 - a01 * a01) * half * half
    op = LPDO({(2, 0): R.ONE, (0, 2): -R.ONE, (1, 0): a10, (0, 1): a01,
               (0, 0): a00})
    _assert_same(op, -R.ONE, (a10 - a01) * half, Poly)
    _assert_same(op, -R.ONE, a10 / (X + Y), Poly)


def test_degenerate_psi_path_matches_and_keeps_its_jets():
    op = parse("Dx^2 + x*Dx")
    _assert_same(op, R.ZERO, R.unknown("psi"), Poly)
    _, residuals = _descent(op, R.ZERO, R.unknown("psi"), _oracle_top(op, R.ZERO))
    assert "psi_x" in residuals[-1].symbols()


@pytest.mark.parametrize("omega", ["-y/(y + 1)", "1/x", "(x + 1)/(x + y)"])
def test_planted_factor_with_a_rational_root(omega):
    w = parse_function(omega)
    factor = FirstOrderFactor.from_root(w, Y / (Y + R.ONE) ** 2)
    cofactor = LPDO({(1, 0): R.ONE, (0, 1): X / (Y + R.ONE), (0, 0): X + Y})
    op = factor.as_operator().compose(cofactor)
    out = factor_left(op, root_choice=w)
    assert out.status is OutcomeStatus.FACTORED
    assert out.cofactor == cofactor
    _assert_same(op, w, Y / (Y + R.ONE) ** 2)


# --------------------------------------------------------------------------
# Poly.exact_div
# --------------------------------------------------------------------------

SYMS = ("x", "y", "a")


def _poly(terms) -> Poly:
    return Poly({tuple((s, k) for s, k in zip(SYMS, e) if k): ConstScalar.from_rational(q)
                 for e, q in terms.items()})


def polys(coeffs, min_terms=1, max_terms=4):
    exponents = st.tuples(*[st.integers(0, 2)] * len(SYMS))
    return st.dictionaries(exponents, coeffs.filter(bool), min_size=min_terms,
                           max_size=max_terms).map(_poly)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
nonconstant = polys(rationals, 2, 4).filter(lambda p: not p.is_const())


# --------------------------------------------------------------------------
# IntPoly against Poly
# --------------------------------------------------------------------------

INDEX = {s: i for i, s in enumerate(SYMS)}


def _int(p):
    return IntPoly.from_poly(p, INDEX)


@PROPERTY
@given(polys(rationals, 0), polys(rationals, 0), st.integers(-3, 3))
def test_intpoly_arithmetic_matches_poly(p, q, k):
    f, g = _int(p), _int(q)
    assert (f + g).to_poly(SYMS) == p + q
    assert (f - g).to_poly(SYMS) == p - q
    assert (-f).to_poly(SYMS) == -p
    assert (f * g).to_poly(SYMS) == p * q
    assert f.scale_rational(k).to_poly(SYMS) == p.scale_rational(k)
    assert f.diff("x").to_poly(SYMS) == p.diff("x")
    assert f.diff("y").to_poly(SYMS) == p.diff("y")
    assert (f - f).is_zero() and f.is_zero() == p.is_zero()


@PROPERTY
@given(polys(rationals), polys(st.integers(-5, 5), 2, 4), st.integers(2, 6))
def test_exact_div_by_a_divisor_with_integer_content(p, g, content):
    g = g.scale_rational(content)
    assert (p * g).exact_div(g) == p


@PROPERTY
@given(polys(rationals), nonconstant)
def test_exact_div_with_rational_coefficients(p, g):
    assert (p * g).exact_div(g) == p


@PROPERTY
@given(polys(rationals), nonconstant)
def test_inexact_division_raises(p, g):
    with pytest.raises(ValueError):
        (p * g + Poly.ONE).exact_div(g)


def test_radical_coefficients_take_the_division_loop(monkeypatch):
    x, y = Poly.symbol("x"), Poly.symbol("y")
    g = x + Poly.const(ConstScalar.radical(2)) * y
    p = x - y + Poly.rational(Fraction(1, 3))
    calls = []
    quo = expr._zp_quo

    def recording(f, h):
        calls.append((f, h))
        return quo(f, h)

    monkeypatch.setattr(expr, "_zp_quo", recording)
    assert (p * g).exact_div(g) == p
    with pytest.raises(ValueError):
        (p * g + Poly.ONE).exact_div(g)
    assert not calls
