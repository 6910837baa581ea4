"""Laws of printing, of the exchange of x and y and of factoring, over
operators whose coefficients mix rationals, sqrt(2), a parameter a and
monomial denominators: the plain form parses back to the operator;
change_vars, the swap, is its own inverse, equals the substitution
x <-> y with the derivatives exchanged, equals the change composed from
powers of the new derivatives and commutes with compose; a first-order
product with constant Dx and Dy coefficients applies as its two factors do,
on monomials and, against sympy, on an undefined function; a planted
product (Dx - w*Dy + p3) o B factors back into its two parts at a simple
root w, also when its coefficients mix sqrt(2) and a parameter, so that
one attempt computes with rational and radical coefficients together, and
so does (Dy + p3) o B at the root at infinity.  At the two roots of
Dx*Dy + a*Dx + b*Dy + c the one residual is a Laplace invariant.  A gauge
r^-1 o A o r keeps the first residual at a simple root, and moves a left
factor by the log-derivative of r and its cofactor by the same gauge.  At
every node of a full factorization the roots are those of the node's own
characteristic polynomial, with their multiplicities and extensions."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpdo.charpoly import Root, char_poly, find_roots
from lpdo.expr import RatExpr as R
from lpdo.factorize import OutcomeStatus, factor_all_roots, factor_fully, factor_left
from lpdo.operator import LPDO, FirstOrderFactor
from lpdo.parser import parse
from lpdo.printer import operator_str

from conftest import change_vars_by_compose

LAW = settings(derandomize=True, deadline=None, max_examples=60)

X, Y, A = R.X, R.Y, R.symbol("a")
S2 = R.sqrt_int(2)
TERMS = (R.ONE, X, Y, A, S2, X * Y, A * Y, S2 * X, X * X)
MONOMIAL_DENOMINATORS = (R.ONE, X, Y, A, X * Y, X * X * A)
FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def coefficients(draw):
    num = R.ZERO
    for t in draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True)):
        num = num + R.from_fraction(draw(FRACTIONS)) * t
    return num / draw(st.sampled_from(MONOMIAL_DENOMINATORS))


@st.composite
def operators(draw):
    n = draw(st.integers(1, 3))
    derivatives = [(j, k) for j in range(n + 1) for k in range(n + 1 - j)]
    chosen = draw(st.lists(st.sampled_from(derivatives), max_size=4, unique=True))
    return LPDO({jk: draw(coefficients()) for jk in chosen})


@LAW
@given(operators())
def test_the_plain_form_parses_back(op):
    assert parse(operator_str(op), {"a"}) == op


@LAW
@given(operators())
def test_change_vars_then_the_inverse_is_the_identity(op):
    assert op.change_vars().change_vars() == op


SWAP_XY = ((0, 1), (1, 0))  # (u, v) = M (x, y) exchanging x and y
# the swap moves the leading term of these denominators
SWAP_DENOMINATORS = (R.ONE, X + R.from_int(2) * Y, S2 * X + Y + A, X * X + A * Y)


@LAW
@given(operators(), st.sampled_from(SWAP_DENOMINATORS))
def test_the_swap_is_the_substitution_of_x_and_y(op, den):
    # the strings catch a denominator that the swap left not monic
    op = op.scale(den.inverse())
    want = {(k, j): c.substitute({"x": Y, "y": X}) for (j, k), c in op.coeffs.items()}
    got = op.change_vars()
    assert got == LPDO(want)
    assert {jk: str(c) for jk, c in got.coeffs.items()} == {jk: str(c) for jk, c in want.items()}


@LAW
@given(operators())
def test_change_vars_is_the_composed_change(op):
    assert op.change_vars() == change_vars_by_compose(op, SWAP_XY, SWAP_XY)


@LAW
@given(operators(), operators())
def test_the_swap_commutes_with_compose(a, b):
    assert a.compose(b).change_vars() == a.change_vars().compose(b.change_vars())


# bare constants make compose pass a Leibniz term through (1), only negate
# it (-1) or scale it (3/2), and keep sqrt(2) and a on the general product
BARE_CONSTANTS = (R.ONE, -R.ONE, R.from_fraction(Fraction(3, 2)), S2, A)


@st.composite
def compose_operators(draw):
    n = draw(st.integers(0, 3))
    derivatives = [(j, k) for j in range(n + 1) for k in range(n + 1 - j)]
    chosen = draw(st.lists(st.sampled_from(derivatives), min_size=1, max_size=3, unique=True))
    value = st.one_of(st.sampled_from(BARE_CONSTANTS), coefficients())
    return LPDO({jk: draw(value) for jk in chosen})


@LAW
@given(compose_operators(), compose_operators(), compose_operators())
def test_compose_is_associative_and_distributes_over_the_sum(a, b, c):
    assert a.compose(b.compose(c)) == a.compose(b).compose(c)
    assert a.compose(b + c) == a.compose(b) + a.compose(c)
    assert (a + b).compose(c) == a.compose(c) + b.compose(c)


# compose's first-order product: c1 passes b through (1), scales it or is
# absent (0), and p3 is absent, rational, a parameter, a radical, a rational
# function or an unknown function
FIRST_ORDER_P3 = (R.ZERO, R.ONE, X, A, R.ONE / (X + R.ONE), S2, R.unknown("u"))


@st.composite
def first_order_constant_factors(draw):
    c1 = draw(st.sampled_from((0, 1, 2, Fraction(-1, 2))))
    c2 = draw(st.sampled_from((0, 1, Fraction(-3, 2))))
    assume(c1 or c2)
    return LPDO({(1, 0): R.from_fraction(c1), (0, 1): R.from_fraction(c2),
                 (0, 0): draw(st.sampled_from(FIRST_ORDER_P3))})


@LAW
@given(first_order_constant_factors(), compose_operators())
def test_a_first_order_product_applies_as_its_factors(f, b):
    # an operator of order N is fixed by its values on the monomials of degree <= N
    product = f.compose(b)
    for i in range(b.order + 2):
        for j in range(b.order + 2 - i):
            m = X ** i * Y ** j
            assert product.apply(m) == f.apply(b.apply(m))


def _oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@settings(LAW, max_examples=8)
@given(first_order_constant_factors(), compose_operators())
def test_a_first_order_product_against_sympy(f, b):
    # both sides applied to an undefined function; the unknown u is g(x, y) there
    assert _oracle().composes_to(f.compose(b), [f, b], {"u": "g"})


PLANTED_DENOMINATORS = (R.ONE, X, Y, X * Y)


@st.composite
def planted_coefficients(draw):
    num = R.ZERO
    for t in (R.ONE, X, Y):
        num = num + R.from_fraction(draw(FRACTIONS)) * t
    return num / draw(st.sampled_from(PLANTED_DENOMINATORS))


RADICAL_TERMS = (R.ONE, X, Y, A, S2, S2 * X, A * Y)
RADICAL_DENOMINATORS = (R.ONE, X, Y, X * Y, A)


@st.composite
def radical_coefficients(draw):
    num = R.ZERO
    for t in draw(st.lists(st.sampled_from(RADICAL_TERMS), min_size=1, max_size=3, unique=True)):
        num = num + R.from_fraction(draw(FRACTIONS)) * t
    return num / draw(st.sampled_from(RADICAL_DENOMINATORS))


@st.composite
def planted_products(draw, coefficients=planted_coefficients):
    """(w, p3, B) with B of order 1-3 and b_{n,0} != 0, so that the
    product has order 2-4 and infinity is a simple root of (Dy + p3) o B."""
    n = draw(st.integers(1, 3))
    coeffs = {(j, k): draw(coefficients())
              for j in range(n + 1) for k in range(n + 1 - j) if draw(st.booleans())}
    lead = draw(coefficients())
    coeffs[(n, 0)] = lead if not lead.is_zero() else R.ONE
    return R.from_fraction(draw(FRACTIONS)), draw(coefficients()), LPDO(coeffs)


@LAW
@given(planted_products())
def test_a_planted_product_factors_back_at_a_simple_root(case):
    _assert_factors_back(*case)


@LAW
@given(planted_products(radical_coefficients))
def test_a_planted_product_over_sqrt2_and_a_parameter_factors_back(case):
    _assert_factors_back(*case)


def _assume_simple(w, b):
    """P'(w) for (Dx - w*Dy + p3) o B is B's symbol at w: nonzero at a simple root."""
    n = b.order
    assume(not sum((b.coeff(n - k, k) * w ** (n - k) for k in range(n + 1)), R.ZERO).is_zero())


def _assert_factors_back(w, p3, b):
    _assume_simple(w, b)
    factor = FirstOrderFactor.from_root(w, p3)
    out = factor_left(factor.as_operator().compose(b), root_choice=w)
    assert out.status is OutcomeStatus.FACTORED and out.certified
    assert out.factor == factor and out.cofactor == b


# the descent's general D = b*Dx - a*Dy for w = a/b, beside the one pass of a constant w
NONCONSTANT_ROOTS = (X, -Y / (Y + R.ONE), A * X, S2 * X)


@pytest.mark.parametrize("w", NONCONSTANT_ROOTS, ids=str)
@settings(derandomize=True, deadline=None, max_examples=20)
@given(planted_products())
def test_a_planted_product_factors_back_at_a_nonconstant_simple_root(w, case):
    _, p3, b = case
    _assert_factors_back(w, p3, b)


@LAW
@given(planted_products(coefficients))
def test_a_planted_product_factors_back_at_the_root_at_infinity(case):
    _, p3, b = case
    factor = FirstOrderFactor(R.ZERO, R.ONE, p3)
    out = factor_left(factor.as_operator().compose(b), root_choice=Root(None, 1, at_infinity=True))
    assert out.status is OutcomeStatus.FACTORED and out.certified
    assert out.root.at_infinity
    assert out.factor == factor and out.cofactor == b


@st.composite
def laplace_operators(draw):
    """(a, b, c) of Dx*Dy + a*Dx + b*Dy + c, with c drawn, or chosen so
    that h = c - a_x - a*b or k = c - b_y - a*b vanishes; then the other
    invariant differs from it unless a_x = b_y."""
    a, b = draw(coefficients()), draw(coefficients())
    c = draw(st.sampled_from(("h", "k", "free")))
    if c == "h":
        return a, b, a.diff("x") + a * b
    if c == "k":
        return a, b, b.diff("y") + a * b
    return a, b, draw(coefficients())


@LAW
@given(laplace_operators())
def test_the_residuals_of_a_hyperbolic_operator_are_its_laplace_invariants(abc):
    # Dx*Dy + a*Dx + b*Dy + c = (Dx + b) o (Dy + a) + h = (Dy + a) o (Dx + b) + k
    a, b, c = abc
    op = LPDO({(1, 1): R.ONE, (1, 0): a, (0, 1): b, (0, 0): c})
    h, k = c - a.diff("x") - a * b, c - b.diff("y") - a * b
    at_zero, at_infinity = factor_all_roots(op)  # P(w) = w
    assert at_zero.root.value == R.ZERO and at_infinity.root.at_infinity
    dx_b, dy_a = LPDO({(1, 0): R.ONE, (0, 0): b}), LPDO({(0, 1): R.ONE, (0, 0): a})
    for out, invariant, factor, cofactor in ((at_zero, h, dx_b, dy_a),
                                             (at_infinity, k, dy_a, dx_b)):
        assert out.residuals == (invariant,)
        assert (out.status is OutcomeStatus.FACTORED) == invariant.is_zero()
        if invariant.is_zero():
            assert (out.factor.as_operator(), out.cofactor) == (factor, cofactor)


GAUGE_TERMS = (R.ONE, X, Y, X * X, X * Y, Y * Y)


@st.composite
def gauged_operators(draw):
    """(w, p3, B, E, r): the operator (Dx - w*Dy + p3) o B + E, with E zero
    half the time and else of an order below the product's, and the gauge
    r, a nonzero quadratic, half the time over a linear polynomial."""
    w, p3, b = draw(planted_products())
    n = b.order + 1
    e = LPDO({(j, k): draw(planted_coefficients()) for j in range(n) for k in range(n - j)
              if draw(st.booleans())}) if draw(st.booleans()) else LPDO.zero()
    r = sum((R.from_fraction(draw(FRACTIONS)) * t for t in GAUGE_TERMS), R.ZERO)
    r = r if not r.is_zero() else X
    if draw(st.booleans()):
        den = sum((R.from_fraction(draw(FRACTIONS)) * t for t in (R.ONE, X, Y)), R.ZERO)
        r = r / den if not den.is_zero() else r
    return w, p3, b, e, r


@settings(derandomize=True, deadline=None, max_examples=30)
@given(gauged_operators())
def test_a_gauge_keeps_the_first_residual_and_moves_the_factor_by_its_log_derivative(case):
    # r^-1 o (Dx - w*Dy + p3) o r = Dx - w*Dy + p3 + L(r)/r with L = Dx - w*Dy;
    # the residuals below the first are not invariant and are not compared
    w, p3, b, e, r = case
    _assume_simple(w, b)
    op = FirstOrderFactor.from_root(w, p3).as_operator().compose(b) + e
    conjugate = LPDO.function(r.inverse()).compose
    out, gauged = (factor_left(a, root_choice=w)
                   for a in (op, conjugate(op).compose(LPDO.function(r))))
    assert gauged.residuals[0] == out.residuals[0]
    assert gauged.status is out.status
    if e.is_zero():  # a planted product
        assert out.status is OutcomeStatus.FACTORED
    if out.status is OutcomeStatus.FACTORED:
        log_derivative = (r.diff("x") - w * r.diff("y")) / r
        assert gauged.factor == FirstOrderFactor.from_root(w, out.factor.p3 + log_derivative)
        assert gauged.cofactor == conjugate(out.cofactor).compose(LPDO.function(r))


CHAIN_ROOTS = (R.ZERO, R.ONE, -R.ONE, R.from_int(2), R.from_fraction(Fraction(1, 2)),
               A, X, S2, -S2, None)  # None: the root at infinity, a factor Dy + p3
CHAIN_P3 = (R.ZERO, R.ONE, X, Y, A, S2)


@st.composite
def planted_chains(draw):
    """A product of 2-4 first-order factors Dx - w*Dy + p3 or Dy + p3."""
    op = LPDO.function(R.ONE)
    for w, p3 in draw(st.lists(st.tuples(st.sampled_from(CHAIN_ROOTS), st.sampled_from(CHAIN_P3)),
                               min_size=2, max_size=4)):
        factor = (FirstOrderFactor(R.ZERO, R.ONE, p3) if w is None
                  else FirstOrderFactor.from_root(w, p3))
        op = op.compose(factor.as_operator())
    return op


def _distinct_nodes(tree, seen):
    if id(tree) not in seen:
        seen[id(tree)] = tree
        for _, subtree in tree.branches:
            if subtree is not None:
                _distinct_nodes(subtree, seen)
    return seen.values()


@LAW
@given(planted_chains())
def test_every_node_of_a_full_factorization_has_the_roots_of_its_own_symbol(op):
    # the cofactor's roots are handed down from its parent's search
    for node in _distinct_nodes(factor_fully(op), {}):
        if node.operator.order < 2:
            continue
        p = char_poly(node.operator)
        roots = tuple(out.root for out, _ in node.branches if out.root is not None)
        for root in roots:
            if root.at_infinity:
                # the degree drop: P's leading zeros
                drop = next(i for i, c in enumerate(p.coeffs) if not c.is_zero())
                assert root.multiplicity == drop
            else:
                assert root.multiplicity == p.multiplicity_of(root.value)
                assert root.extensions == p.extensions_of(root.value)
        fresh = find_roots(p)
        if not fresh.unresolved:
            assert fresh.roots == roots
