"""The common-denominator lane against reference loops that keep every value
a reduced RatExpr, with numerators of both coefficient kinds (int numerators
over one denominator for rational inputs, ConstScalars where sqrt(2) enters):
the top level and the descent, and solve_p3.  Also the certificate verify,
whose product LPDO.compose builds off the lane from the printed values, an
attempt that builds one lane and fails its certificate when a printed value
is corrupted, Poly.exact_div and Lane.reduce."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdo import expr, factorize, parse, parse_function
from lpdo.expr import ConstScalar, Poly, RatExpr as R, _W
from lpdo.factorize import (
    CertificateError,
    DegenerateRoot,
    Lane,
    LevelState,
    OutcomeStatus,
    factor_left,
    factor_right,
    solve_level,
    solve_p3,
    verify,
)
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


def _kind(state):
    """The coefficient kind of the state's numerators: "rational" when none
    carries a radical, else "radical"."""
    nums = [state.omega[0], *(n for n, _ in state.coeffs.values())]
    return "radical" if any(n.radicals() for n in nums) else "rational"


def _descent(op, omega, p3, kind=None):
    """The common-denominator descent, top level included, with the whole
    cofactor map read back, zero residuals or not; kind, when given, is the
    coefficient kind of the state's numerators."""
    state = LevelState(op, omega, p3)
    if kind is not None:
        assert _kind(state) == kind
    residuals = [solve_level(state, op, m) for m in range(op.order - 1, -1, -1)]
    return {jk: state.reduce(v) for jk, v in state.solved.items()}, residuals


def _assert_same(op, omega, p3, kind=None):
    top = _oracle_top(op, omega)
    want_cof, want_res = _oracle_descent(op, omega, p3, top)
    got_cof, got_res = _descent(op, omega, p3, kind)
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
def operators(draw, coefficients=coefficients, max_order=4):
    n = draw(st.integers(2, max_order))
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
    _assert_same(op, omega, p3, "rational")


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
    _assert_same(op, omega, p3, "rational")


def test_rational_operator_state_holds_integer_numerators():
    op = parse("Dx^3 + x/2*Dx^2*Dy - 3/4*y*Dy^2 + a*Dx + 1/(x + y)", {"a"})
    omega = parse_function("-y/(y + 1)")
    state = LevelState(op, omega, A)
    solve_level(state, op, op.order - 1)
    values = [state.omega, state.p3, *state.solved.values(), (state.power(3), 3)]
    assert all(n.den is not None and type(k) is int for n, k in values)
    assert all(type(c) is int for n, _ in values for c in n.packed.values())


def test_sqrt2_coefficient_takes_the_poly_lane():
    s2 = R.sqrt_int(2)
    op = LPDO({(2, 0): R.ONE, (1, 1): s2 * X, (0, 2): -R.ONE / (X + Y),
               (1, 0): Y, (0, 0): s2 / (Y + R.ONE)})
    _assert_same(op, X - Y, R.ONE / (X + Y), "radical")
    _assert_same(op, s2, Y, "radical")


def test_differential_parameters_take_the_poly_lane():
    a10, a01 = R.unknown("a10"), R.unknown("a01")
    half = R.from_fraction(Fraction(1, 2))
    grad = lambda f: f.diff("x") + f.diff("y")
    a00 = (R.from_int(2) * grad(a10 + a01) + a10 * a10 - a01 * a01) * half * half
    op = LPDO({(2, 0): R.ONE, (0, 2): -R.ONE, (1, 0): a10, (0, 1): a01,
               (0, 0): a00})
    # the jets of a10 and a01 are symbols of the rational numerators
    _assert_same(op, -R.ONE, (a10 - a01) * half, "rational")
    _assert_same(op, -R.ONE, a10 / (X + Y), "rational")


def test_degenerate_psi_path_matches_and_keeps_its_jets():
    op = parse("Dx^2 + x*Dx")
    _assert_same(op, R.ZERO, R.unknown("psi"), "rational")
    _, residuals = _descent(op, R.ZERO, R.unknown("psi"))
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
# solve_p3 on the lane
# --------------------------------------------------------------------------

def _oracle_p3(op, omega, top):
    """p3 = (sum of b_{n-1-k,k} w^(n-1-k)) / P'(w) with b = a - L(p), every
    value a reduced RatExpr."""
    n = op.order
    dp = R.ZERO
    for k in range(n):
        dp = dp * omega + top.get((n - 1 - k, k), R.ZERO)
    if dp.is_zero():
        raise DegenerateRoot("multiple root")
    acc = R.ZERO
    for k in range(n):
        p = top.get((n - 1 - k, k), R.ZERO)
        b = op.coeff(n - 1 - k, k) - (p.diff("x") - omega * p.diff("y"))
        acc = acc * omega + b
    return acc / dp


def _assert_p3_same(op, omega, kind=None):
    """solve_p3 gives the reference p3, and the state it leaves carries that
    p3 (on a widened Q when the division left a new denominator) into the
    same descent.  Returns whether Q was widened."""
    top = _oracle_top(op, omega)
    try:
        want = _oracle_p3(op, omega, top)
    except DegenerateRoot:
        with pytest.raises(DegenerateRoot):
            solve_p3(op, omega)
        return None
    state = LevelState(op, omega, None)
    if kind is not None:
        assert _kind(state) == kind
    q = state.q
    got = solve_p3(op, omega, state)
    assert got == want and str(got) == str(want)
    assert state.reduce(state.p3) == want
    want_cof, want_res = _oracle_descent(op, omega, want, top)
    residuals = [solve_level(state, op, m) for m in range(op.order - 1, -1, -1)]
    assert residuals == want_res
    assert {jk: state.reduce(v) for jk, v in state.solved.items()} == want_cof
    return state.q != q


@PROPERTY
@given(operators(), st.sampled_from(ROOTS))
def test_solve_p3_matches_the_ratexpr_formula(op, omega):
    _assert_p3_same(op, omega, "rational")


@settings(PROPERTY, max_examples=25)
@given(operators(rational_coefficients, max_order=3), st.sampled_from(Q_ROOTS))
def test_solve_p3_with_rational_coefficients_and_a_parameter(op, omega):
    _assert_p3_same(op, omega, "rational")


S2 = R.sqrt_int(2)
PLANTED_B = LPDO({(1, 0): X + R.ONE, (0, 1): Y, (0, 0): X})


@pytest.mark.parametrize("scale, kind", [(R.ONE, "rational"), (S2, "radical")])
def test_solve_p3_exact_division_keeps_q(scale, kind):
    # P'(2) = P_B(2) = 2*(x + 1) + y divides the b-sum: p3 is x*y*scale
    factor = FirstOrderFactor.from_root(R.from_int(2), X * Y * scale)
    op = factor.as_operator().compose(PLANTED_B)
    assert _assert_p3_same(op, R.from_int(2), kind) is False


@pytest.mark.parametrize("scale, kind", [(R.ONE, "rational"), (S2, "radical")])
def test_solve_p3_inexact_division_widens_q(scale, kind):
    # the b-sum is not a multiple of P'(2) = 2*(x + 1) + y, and the root
    # -y/(y + 1) gives a Q of its own to widen
    op = PLANTED_B.compose(LPDO({(1, 0): R.ONE, (0, 1): scale, (0, 0): Y}))
    omega = parse_function("-y/(y + 1)")
    assert not _oracle_p3(op, omega, _oracle_top(op, omega)).den.is_const()
    assert _assert_p3_same(op, omega, kind) is True
    assert _assert_p3_same(op, R.from_int(2), kind) is True


def test_solve_p3_divides_a_raised_sum_by_a_linear_p_prime_in_q():
    # at w = 1, L(1/(x + y)) = 0, so the b-sum x*y + x sits over Q^0 while
    # P'(1) = 1/(x + y) reads (x - y)/Q on Q = x^2 - y^2: the failed trial
    # division by x - y settles nothing about (x*y + x)*Q, which x - y divides
    a11 = R.ONE / (X + Y)
    op = LPDO({(1, 1): a11, (0, 2): -a11, (1, 0): X * Y, (0, 1): X, (0, 0): R.ONE / (X - Y)})
    state = LevelState(op, R.ONE, None)
    assert state.dp == ((X - Y).num, 1) and state.q == (X * X - Y * Y).num
    assert _assert_p3_same(op, R.ONE, "rational") is False
    assert str(solve_p3(op, R.ONE)) == "x^2*y + x*y^2 + x^2 + x*y"


def test_solve_p3_multiple_root_raises():
    op = LPDO({(2, 0): R.ONE, (1, 1): -R.from_int(2) * X, (0, 2): X * X, (0, 0): Y})
    top = _oracle_top(op, X)
    with pytest.raises(DegenerateRoot):
        solve_p3(op, X)
    with pytest.raises(DegenerateRoot):
        _oracle_p3(op, X, top)


# --------------------------------------------------------------------------
# the (L + p3) step of the levels below n-1
# --------------------------------------------------------------------------

W_OVER_B = (X + R.ONE) / (X + Y)  # b = x + y: 1/b = B/Q^j with j = 1


def _widened():
    """The state of test_solve_p3_inexact_division_widens_q at w = 2 after
    solve_p3, which widens Q = 1 to P'(2) and leaves p3 over Q."""
    op = PLANTED_B.compose(LPDO({(1, 0): R.ONE, (0, 1): R.ONE, (0, 0): Y}))
    state = LevelState(op, R.from_int(2), None)
    solve_p3(op, R.from_int(2), state)
    return state


def _riccati():
    state = LevelState(parse("Dx^2 + x*Dx"), R.ZERO, None)
    state.p3 = state.lift(R.unknown("psi"))
    return state


STEP_CASES = {  # name: (the state's maker, whether the step takes L's one pass)
    "q is 1": (lambda: LevelState(parse("Dx^2 + x*Dx*Dy + y"), R.from_int(2), X * Y), False),
    "q widened": (_widened, True),
    "w = a/b, p3 over Q^(1+j)": (
        lambda: LevelState(LPDO({(2, 0): R.ONE, (0, 0): R.ONE / (X + Y)}),
                           W_OVER_B, Y / (X + Y) ** 2), True),
    "w = a/b, p3 over Q^j": (
        lambda: LevelState(LPDO({(2, 0): R.ONE, (0, 0): R.ONE / (X + Y)}),
                           W_OVER_B, Y / (X + Y)), False),
    "riccati unknown": (_riccati, False),
    "p3 = 0": (lambda: LevelState(LPDO({(2, 0): R.ONE, (1, 1): X / (X + Y)}),
                                  W_OVER_B, R.ZERO), False),
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_the_l_plus_p3_step_is_l_plus_p3_times_u(case):
    make, fused = STEP_CASES[case]
    s = make()
    assert (s.p3[1] == 1 + s._b_inv[1]) == fused
    omega, p3 = s.reduce(s.omega), s.reduce(s.p3)
    values = [*s.coeffs.values(), *s.solved.values(), s.p3, s.omega,
              s.lift(X * Y + R.ONE), (s.power(2), 3), (Poly.ZERO, 2)]
    assert s.q.is_const() == (case in ("q is 1", "riccati unknown"))
    for u in values:
        f = s.reduce(u)
        want = f.diff("x") - omega * f.diff("y") + p3 * f
        got = s.reduce(s.step(u))
        assert got == want and str(got) == str(want)
        assert s.reduce(s.add(s.L(u), s.addmul((Poly.ZERO, 0), s.p3, u))) == want


def _linear_order_five():
    """An order-5 operator with linear coefficients and the simple root 2,
    which does not factor: solve_p3 widens Q, the generic workload's case."""
    n, coeffs = 5, {}
    for j in range(n + 1):
        for k in range(n + 1 - j):
            coeffs[(j, k)] = (R.from_int((j + 2 * k) % 5 - 2) * X
                              + R.from_int((3 * j + k) % 4 - 1) * Y + R.from_int(j - k + 1))
    acc = R.ZERO
    for k in range(n):
        acc = (acc + coeffs[(n - k, k)]) * R.from_int(2)
    coeffs[(0, n)] = -acc
    return LPDO(coeffs)


def test_an_order_five_attempt_takes_at_most_103_poly_results(monkeypatch):
    # one _canon per Poly result: with a product, an alignment and a sum
    # for each lane value instead of one fused pass, this attempt takes 171
    canon, count = expr._canon, []

    def counting(*args):
        count.append(1)
        return canon(*args)

    op = _linear_order_five()
    monkeypatch.setattr(expr, "_canon", counting)
    out = factor_left(op, root_choice=R.from_int(2))
    monkeypatch.undo()
    assert out.status is OutcomeStatus.CONDITIONS_FAIL and len(out.residuals) == 4
    assert len(count) <= 103


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

U = R.unknown("u")
# one kind per example: rational, sqrt(2) (radical coefficients) or the
# unknown function u
KINDS = (R.ONE, S2, U, U.diff("x") + X)


@st.composite
def products(draw):
    """A factor, a cofactor of order <= 2 and a perturbation, with
    coefficients c*kind for c from coefficients()."""
    kind = draw(st.sampled_from(KINDS))

    def coefficient():
        return draw(coefficients()) * kind

    def operator():
        return LPDO({(j, k): coefficient()
                     for j in range(3) for k in range(3 - j) if draw(st.booleans())})

    p1, p2 = coefficient(), coefficient()
    if p1.is_zero() and p2.is_zero():
        p1 = R.ONE
    return FirstOrderFactor(p1, p2, coefficient()), operator(), operator()


@settings(PROPERTY, max_examples=30)
@given(products(), st.sampled_from(("left", "right")))
def test_verify_matches_compose(case, side):
    """verify(f, B, A) is the difference f o B - A (B o f - A on the right)
    in canonical form: zero for the product, and -E, the same nonzero
    difference as compose gives, for a product perturbed by E."""
    f, b, e = case
    prod = f.as_operator().compose(b) if side == "left" else b.compose(f.as_operator())
    for a in (prod, prod + e):
        got, want = verify(f, b, a, side), prod - a
        assert got == want
        assert {jk: str(c) for jk, c in got.coeffs.items()} == \
            {jk: str(c) for jk, c in want.coeffs.items()}
    assert verify(f, b, prod, side).is_zero()
    assert verify(f, b, prod + e, side) == -e


# --------------------------------------------------------------------------
# one lane per attempt, and a certificate on the printed values
# --------------------------------------------------------------------------

W2 = R.from_int(2)
# (factor, cofactor, perturbations of the cofactor that fit the attempt's
# lane): Q = 1 throughout; Q = y + 1 from the operator, widened by p3's
# denominator x + y; and a sqrt(2) coefficient, radical numerators
ONE_LANE = {
    "q=1": (FirstOrderFactor.from_root(W2, X),
            LPDO({(2, 0): R.ONE, (0, 1): Y, (0, 0): R.ONE}),
            (LPDO({(0, 1): X}), LPDO({(1, 0): X * Y, (0, 0): R.ONE}))),
    "widened q": (FirstOrderFactor.from_root(W2, R.ONE / (X + Y)),
                  LPDO({(1, 0): X + Y, (0, 1): (X + Y) / (Y + R.ONE),
                        (0, 0): (X + Y) * (R.ONE + R.ONE / (Y + R.ONE))}),
                  (LPDO({(0, 1): X}), LPDO({(1, 0): R.ONE / (Y + R.ONE),
                                            (0, 0): Y / (X + Y) ** 2}))),
    "sqrt(2)": (FirstOrderFactor.from_root(W2, S2 * X),
                LPDO({(1, 0): R.ONE, (0, 1): Y, (0, 0): S2 * Y}),
                (LPDO({(0, 0): S2}), LPDO({(1, 0): X * Y / R.from_int(3)}))),
}


def _lanes(monkeypatch):
    """The lanes built from here on, and the arguments of each verify call."""
    built, calls = [], []
    init, real_verify = Lane.__init__, factorize.verify
    monkeypatch.setattr(Lane, "__init__",
                        lambda self, values: built.append(self) or init(self, values))
    monkeypatch.setattr(factorize, "verify",
                        lambda *args: calls.append(args) or real_verify(*args))
    return built, calls


@pytest.mark.parametrize("case", ONE_LANE)
def test_a_factored_attempt_builds_one_lane(case, monkeypatch):
    f, b, perturbations = ONE_LANE[case]
    a = f.as_operator().compose(b)
    built, calls = _lanes(monkeypatch)
    out = factor_left(a, root_choice=W2)
    assert out.status is OutcomeStatus.FACTORED and out.certified
    assert out.factor == f and out.cofactor == b
    # the attempt's LevelState is the only lane; verify gets the printed values
    assert [type(lane) for lane in built] == [LevelState]
    assert calls == [(f, b, a, "left")]
    if case == "widened q":
        assert built[0].q == parse_function("(y + 1)*(x + y)").num
    for e in (LPDO(), *perturbations):
        assert verify(f, b + e, a) == f.as_operator().compose(e)


def test_a_normalized_attempt_and_a_right_factor_certify_on_a_fresh_lane(monkeypatch):
    """Neither certificate builds a plain Lane: verify composes the printed
    values, the only lanes are the attempts' LevelStates."""
    built, calls = _lanes(monkeypatch)
    # roots -1 and infinity; the root at infinity is worked with x and y swapped
    out = factor_left(parse("(Dy + x)*(Dx + Dy + y)"), root_choice=1)
    assert out.status is OutcomeStatus.FACTORED and out.root.at_infinity
    assert str(out.factor.as_operator()) == "Dy + x"
    assert out.certified and len(calls) == 1
    assert [type(lane) for lane in built] == [LevelState]
    built.clear(), calls.clear()
    out = factor_right(parse("(Dx + y)*(Dx - Dy + x)"))
    assert out.status is OutcomeStatus.FACTORED and not out.root.at_infinity
    assert str(out.factor.as_operator()) == "Dx - Dy + x"
    assert {type(lane) for lane in built} == {LevelState}  # one per root tried
    assert [args[3] for args in calls] == ["left", "right"]


CORRUPTIONS = {
    "plus one": lambda c: c + R.ONE,
    "a new symbol": lambda c: c * R.symbol("c"),  # not a symbol of the lane's values
    "a new denominator": lambda c: c / (X + R.from_int(3)),
    "a factor of q": lambda c: c / (X + Y),
}


def _corrupt(monkeypatch, wrong):
    """Print the cofactor's first coefficient c as wrong(c)."""
    real = factorize._run_descent

    def descent(op, state):
        cofactor, residuals = real(op, state)
        if cofactor is not None:
            jk = min(cofactor)
            cofactor[jk] = wrong(cofactor[jk])
        return cofactor, residuals

    monkeypatch.setattr(factorize, "_run_descent", descent)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("case", ONE_LANE)
def test_a_corrupted_printed_coefficient_fails_the_certificate(case, corrupt, monkeypatch):
    f, b, _ = ONE_LANE[case]
    _corrupt(monkeypatch, CORRUPTIONS[corrupt])
    with pytest.raises(CertificateError):
        factor_left(f.as_operator().compose(b), root_choice=W2)


def test_a_printed_symbol_off_the_integer_lane_fails_the_certificate(monkeypatch):
    # the lane's symbols are x, y, a: a printed c in place of a must not be
    # read as a, whose field its key would take, so the product differs
    f = FirstOrderFactor.from_root(W2, A * X)
    b = LPDO({(1, 0): R.ONE, (0, 0): A * Y})
    assert factor_left(f.as_operator().compose(b), root_choice=W2).cofactor == b
    _corrupt(monkeypatch, lambda c: c.substitute({"a": R.symbol("c")}))
    with pytest.raises(CertificateError, match="failed independent verification"):
        factor_left(f.as_operator().compose(b), root_choice=W2)


# --------------------------------------------------------------------------
# Poly.exact_div
# --------------------------------------------------------------------------

SYMS = ("x", "y", "a")


def _poly(terms) -> Poly:
    return Poly(SYMS, {sum(k << _W * i for i, k in enumerate(e)): ConstScalar.from_rational(q)
                       for e, q in terms.items()})


def polys(coeffs, min_terms=1, max_terms=4):
    exponents = st.tuples(*[st.integers(0, 2)] * len(SYMS))
    return st.dictionaries(exponents, coeffs.filter(bool), min_size=min_terms,
                           max_size=max_terms).map(_poly)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
nonconstant = polys(rationals, 2, 4).filter(lambda p: not p.is_const())


# --------------------------------------------------------------------------
# rational coefficients against sympy, and the two kinds together
# --------------------------------------------------------------------------

def _sympy(p):
    gens = sympy.symbols(SYMS)
    return sum((sympy.Rational(c.rational_value().numerator, c.rational_value().denominator)
                * sympy.Mul(*(gens[SYMS.index(s)] ** k for s, k in m))
                for m, c in p.terms.items()), sympy.Integer(0))


@PROPERTY
@given(polys(rationals, 0), polys(rationals, 0), st.integers(-3, 3))
def test_rational_arithmetic_matches_sympy(p, q, k):
    f, g = _sympy(p), _sympy(q)
    x, y = sympy.symbols("x y")
    for got, want in [(p + q, f + g), (p - q, f - g), (-p, -f), (p * q, f * g),
                      (p.scale_rational(k), k * f), (p.diff("x"), sympy.diff(f, x)),
                      (p.diff("y"), sympy.diff(f, y))]:
        assert sympy.expand(_sympy(got) - want) == 0
    assert (p - p).is_zero() and (p - p) == Poly.ZERO
    # through sqrt(2) and back: the same canonical Poly, rational kind again
    s2q = q * Poly.const(ConstScalar.radical(2))
    back = (p + s2q) - s2q
    assert back == p and hash(back) == hash(p) and back.den == p.den is not None


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
    # the division ran on ConstScalar coefficients, never on the integer lane
    assert calls and all(isinstance(c, ConstScalar) for _, h in calls for c in h.values())


# --------------------------------------------------------------------------
# Lane.reduce: the gcd with the squarefree Q on the numerators
# --------------------------------------------------------------------------

# Q as the lane holds it: two factors, and a negative leading coefficient
# over an integer denominator (-x/2 - y/3 + 1, set directly)
TWO_FACTORS = ((X + Y) * (X - R.ONE)).num
NEGATIVE = (R.from_fraction(Fraction(-1, 2)) * X - R.from_fraction(Fraction(1, 3)) * Y
            + R.ONE).num


def _lane(q, kind):
    """A lane over x, y and a for values kind * a (R.ONE or S2), with
    Q = q."""
    lane = Lane([kind * A])
    lane._set_q(q)
    return lane


def _assert_reduces(lane, n, k):
    got = lane.reduce((n, k))
    want = R._reduce(n, lane.q ** k) if k else R._reduce(n, Poly.ONE)
    assert got == want and str(got) == str(want)
    return got


@PROPERTY
@given(polys(rationals, 0), st.integers(0, 3), st.sampled_from((TWO_FACTORS, NEGATIVE)),
       st.sampled_from((R.ONE, S2)))
def test_lane_reduce_matches_ratexpr_reduce(n, k, q, kind):
    _assert_reduces(_lane(q, kind), n.scale(kind.const_value()), k)


@pytest.mark.parametrize("kind, coefficients", [(R.ONE, "rational"), (S2, "radical")])
@pytest.mark.parametrize("q", [TWO_FACTORS, NEGATIVE], ids=["two_factors", "negative_lc"])
def test_lane_reduce_cases(kind, coefficients, q):
    lane = _lane(q, kind)
    c = kind.const_value()
    unit = (X * Y + R.from_int(3)).num.scale(c)
    assert _assert_reduces(lane, unit, 0).den == Poly.ONE
    for k in (1, 2, 3):  # a unit gcd: the denominator is Q^k made monic
        got = _assert_reduces(lane, unit, k)
        assert got.den == (lane.q ** k).monic()
        assert (got.num.den is None) == (coefficients == "radical")
    shared = (X + Y).num * unit  # one factor of the two-factor Q
    for k in (2, 3):
        got = _assert_reduces(lane, shared, k)
        if q is TWO_FACTORS:
            assert got.den == ((X + Y) ** (k - 1) * (X - R.ONE) ** k).num.monic()


@pytest.mark.parametrize("case", ["gcdheu gives up", "gcd with q not a unit"])
def test_lane_reduce_falls_back_over_the_unscaled_power_of_q(case, monkeypatch):
    # N / Q^k reduced as a RatExpr must take Q^k itself, not Q^k made monic:
    # with Q = -x/2 - y/3 + 1 the two differ by the factor (-1/2)^k
    lane = _lane(NEGATIVE, R.ONE)
    n, k = (X * Y + R.from_int(3)).num, 1
    if case == "gcdheu gives up":
        monkeypatch.setattr(expr, "_heu_gcd", lambda f, g: None)
    else:
        n, k = n * NEGATIVE, 2
    assert str(lane.reduce((n, k))) == "(-2*x*y - 6)/(x + 2/3*y - 2)"
