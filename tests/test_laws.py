"""Laws of printing, of changes of variables and of factoring, over
operators whose coefficients mix rationals, sqrt(2), a parameter a and
monomial denominators: the plain form parses back to the operator,
change_vars by M and then by M^-1 is the identity and equals the change
composed from powers of the new derivatives, and a planted product
(Dx - w*Dy + p3) o B factors back into its two parts at a simple root w,
also when its coefficients mix sqrt(2) and a parameter, so that one attempt
computes with rational and radical coefficients together.  At the two roots
of Dx*Dy + a*Dx + b*Dy + c the one residual is a Laplace invariant."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpdo.expr import RatExpr as R
from lpdo.factorize import OutcomeStatus, factor_all_roots, factor_left
from lpdo.operator import LPDO, FirstOrderFactor, matrix_inverse
from lpdo.parser import parse
from lpdo.printer import operator_str

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


ENTRIES = st.sampled_from(tuple(map(Fraction, (0, 1, -1, 2, "1/2", "-3/2"))))


@LAW
@given(operators())
def test_the_plain_form_parses_back(op):
    assert parse(operator_str(op), {"a"}) == op


@LAW
@given(operators(), st.tuples(ENTRIES, ENTRIES, ENTRIES, ENTRIES))
def test_change_vars_then_the_inverse_is_the_identity(op, entries):
    m11, m12, m21, m22 = entries
    assume(m11 * m22 != m12 * m21)
    m = ((m11, m12), (m21, m22))
    assert op.change_vars(m).change_vars(matrix_inverse(m)) == op


def _change_vars_by_compose(op, m):
    """change_vars as composed powers of the new Dx and Dy, each coefficient
    substituted: the reference for the binomial expansion."""
    (m11, m12), (m21, m22) = [[e if isinstance(e, R) else R.from_fraction(e) for e in row]
                              for row in m]
    (i11, i12), (i21, i22) = matrix_inverse(m)
    subs = {"x": i11 * X + i12 * Y, "y": i21 * X + i22 * Y}
    new_dx, new_dy = LPDO({(1, 0): m11, (0, 1): m21}), LPDO({(1, 0): m12, (0, 1): m22})
    out = LPDO.zero()
    for (j, k), a in op.coeffs.items():
        term = LPDO.function(R.ONE)
        for d in [new_dx] * j + [new_dy] * k:
            term = term.compose(d)
        out = out + term.scale(a.substitute(subs))
    return out


MATRICES = st.one_of(
    st.tuples(ENTRIES, ENTRIES, ENTRIES, ENTRIES).filter(lambda e: e[0] * e[3] != e[1] * e[2])
    .map(lambda e: ((e[0], e[1]), (e[2], e[3]))),
    st.sampled_from((((1, S2), (0, 1)), ((1, 0), (-S2, 1)))))


@LAW
@given(operators(), MATRICES)
def test_change_vars_is_the_composed_change(op, m):
    assert op.change_vars(m) == _change_vars_by_compose(op, m)


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
    """(w, p3, B) with B of order 1-3 and b_{n-1,0} != 0, so that the
    product has order 2-4 and needs no normalization."""
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


def _assert_factors_back(w, p3, b):
    n = b.order
    assume(not sum((b.coeff(n - k, k) * w ** (n - k) for k in range(n + 1)), R.ZERO).is_zero())
    factor = FirstOrderFactor.from_root(w, p3)
    out = factor_left(factor.as_operator().compose(b), root_choice=w)
    assert out.status is OutcomeStatus.FACTORED and out.certified
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
