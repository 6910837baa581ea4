"""Laws of printing and of changes of variables, over operators whose
coefficients mix rationals, sqrt(2), a parameter a and monomial
denominators: the plain form parses back to the operator, and change_vars
by M and then by M^-1 is the identity."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpdo.expr import RatExpr as R
from lpdo.operator import LPDO, matrix_inverse
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
