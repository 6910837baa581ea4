"""The common-denominator descent against a reference level loop that keeps
every value a reduced RatExpr, and the integer lane of Poly.exact_div."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdo import expr, parse, parse_function, register_differential_param
from lpdo.expr import ConstScalar, Poly, RatExpr as R
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


def _descent(op, omega, p3, top):
    """The common-denominator descent with the whole cofactor map read back,
    zero residuals or not."""
    state = LevelState(op, omega, p3, top)
    residuals = [solve_level(state, op, m) for m in range(op.order - 1, -1, -1)]
    return {jk: state.reduce(v) for jk, v in state.solved.items()}, residuals


def _assert_same(op, omega, p3):
    top = _oracle_top(op, omega)
    want_cof, want_res = _oracle_descent(op, omega, p3, top)
    got_cof, got_res = _descent(op, omega, p3, top)
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
def operators(draw):
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
    _assert_same(op, omega, p3)


def test_degenerate_psi_path_matches_and_keeps_its_jets():
    register_differential_param("psi")
    op = parse("Dx^2 + x*Dx")
    _assert_same(op, R.ZERO, R.symbol("psi"))
    _, residuals = _descent(op, R.ZERO, R.symbol("psi"), _oracle_top(op, R.ZERO))
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
