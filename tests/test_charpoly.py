"""Characteristic polynomial extraction and exact root finding."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdo.expr import RatExpr
from lpdo.operator import LPDO, FirstOrderFactor
from lpdo.charpoly import CharPoly, Root, char_poly, find_roots
from lpdo.parser import parse, parse_function

from conftest import rand_operator

R = RatExpr
X, Y = R.X, R.Y
ONE = R.ONE


def hyperbolic_family(zero_term) -> LPDO:
    q = (Y * Y - X * X) * R.from_fraction(Fraction(1, 4))
    return LPDO({(2, 0): ONE, (0, 2): -ONE, (1, 0): Y, (0, 1): X,
                 (0, 0): q + zero_term})


class TestCharPoly:
    def test_read_off_hyperbolic(self):
        p = char_poly(hyperbolic_family(ONE))
        assert [str(c) for c in p.coeffs] == ["1", "0", "-1"]

    def test_read_off_mixed_lead(self):
        op = LPDO({(1, 1): ONE, (1, 0): X, (0, 0): Y})
        p = char_poly(op)
        assert [str(c) for c in p.coeffs] == ["0", "1", "0"]

    def test_parabolic_double_root(self):
        a20, a11 = R.from_int(1), R.from_int(2)
        a02 = a11 * a11 / (R.from_int(4) * a20)
        op = LPDO({(2, 0): a20, (1, 1): a11, (0, 2): a02, (0, 0): ONE})
        search = find_roots(char_poly(op))
        (root,) = search.roots
        assert root.multiplicity == 2
        assert root.value == -(a11 / (a20 + a20))

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            char_poly(LPDO.function(ONE))


class TestFindRoots:
    def test_two_simple_roots(self):
        p = CharPoly((ONE, R.ZERO, -ONE), 2)
        search = find_roots(p)
        assert [str(r.value) for r in search.roots] == ["-1", "1"]
        assert all(r.multiplicity == 1 for r in search.roots)
        assert not search.unresolved

    def test_complex_pair_extends_tower(self):
        p = CharPoly((ONE, R.ZERO, ONE), 2)
        search = find_roots(p)
        values = {str(r.value) for r in search.roots}
        assert values == {"i", "-i"}
        assert all(-1 in r.extensions for r in search.roots)

    def test_degree_drop_is_root_at_infinity(self):
        p = CharPoly((R.ZERO, ONE, R.ZERO), 2)
        search = find_roots(p)
        assert [str(r) for r in search.roots] == \
            ["0 (multiplicity 1)", "infinity (multiplicity 1)"]

    def test_rational_function_root(self):
        # (w - x)(w + 1/x) = w^2 + (1/x - x) w - 1
        p = CharPoly((ONE, ONE / X - X, -ONE), 2)
        search = find_roots(p)
        values = {str(r.value) for r in search.roots}
        assert values == {"x", "-1/x"}

    def test_constant_cubic_splits(self):
        # w^3 - w
        p = CharPoly((ONE, R.ZERO, -ONE, R.ZERO), 3)
        search = find_roots(p)
        assert {str(r.value) for r in search.roots} == {"-1", "0", "1"}

    def test_rational_roots_beyond_plus_minus_one(self):
        # the divisor pairs of the trailing and leading integer coefficients
        search = find_roots(char_poly(parse("(3*Dx - 2*Dy)*(Dx - 5*Dy)*(Dx + 3*Dy)")))
        assert [str(r) for r in search.roots] == [
            "-3 (multiplicity 1)", "2/3 (multiplicity 1)", "5 (multiplicity 1)"]
        assert not search.unresolved

    def test_rational_root_then_a_complex_pair(self):
        # 8*w^3 - 1 = (2*w - 1)(4*w^2 + 2*w + 1)
        search = find_roots(char_poly(parse("8*Dx^3 - Dy^3")))
        want = {parse_function(t): ext for t, ext in [
            ("1/2", ()), ("-1/4 + 1/4*sqrt(-3)", (-3,)), ("-1/4 - 1/4*sqrt(-3)", (-3,))]}
        assert {r.value: r.extensions for r in search.roots} == want
        assert search.total_multiplicity() == 3 and not search.unresolved

    @pytest.mark.parametrize("text, want", [
        ("(Dx + 2*Dy)*(Dx - x*Dy)*(Dx - 3*Dy)", ["-2", "3", "x"]),
        ("(Dx + 2*Dy - 1)*(Dx + 2*Dy + 1)*(Dx - x*Dy)", ["-2", "-2", "x"])])
    def test_a_constant_root_beside_a_nonconstant_one(self, text, want):
        # the divisor pairs of one monomial's slice of the coefficients: here
        # the constant terms 1, -1, -6, 0 and 1, 4, 4, 0
        search = find_roots(char_poly(parse(text)))
        assert [str(r.value) for r in search.roots for _ in range(r.multiplicity)] == want
        assert not search.unresolved

    def test_unresolved_reported(self):
        # w^2 - x has no square root in the supported field
        p = CharPoly((ONE, R.ZERO, -X), 2)
        search = find_roots(p)
        assert not search.roots
        assert search.unresolved
        assert search.total_multiplicity() == 0

    def test_multiplicity_certified_by_derivatives(self):
        # (w - 1)^2 (w + 2)
        coeffs = (ONE, R.ZERO, -R.from_int(3), R.from_int(2))
        search = find_roots(CharPoly(coeffs, 3))
        by_value = {str(r.value): r.multiplicity for r in search.roots}
        assert by_value == {"1": 2, "-2": 1}

    def test_multiplicity_sum_bounded(self, rng):
        for _ in range(15):
            op = rand_operator(rng, rng.randint(2, 3))
            search = find_roots(char_poly(op))
            assert search.total_multiplicity() <= op.order


class TestAfter:
    """A cofactor's roots from its parent's: P_B = P / (W - w)."""

    def test_the_split_root_loses_one_and_the_others_keep_their_order(self):
        a = parse("(Dx - Dy)*(Dx - Dy)*(Dx + 2*Dy)*Dy")
        search = find_roots(char_poly(a))
        minus_two, one, infinity = search.roots  # in the order of their text
        assert one.multiplicity == 2
        cofactor = parse("(Dx - Dy)*(Dx + 2*Dy)*Dy")
        assert search.after(one, char_poly(cofactor)) == find_roots(char_poly(cofactor))
        last = search.after(infinity, char_poly(parse("(Dx - Dy)^2*(Dx + 2*Dy)")))
        assert last.roots == (minus_two, one)
        assert search.after(minus_two, char_poly(parse("(Dx - Dy)^2*Dy"))).roots == (
            one, infinity)

    def test_extensions_are_read_against_the_cofactor(self):
        # P = w^2 - 2 lacks sqrt(2); the cofactor's w + sqrt(2) has it
        search = find_roots(char_poly(parse("Dx^2 - 2*Dy^2")))
        root = next(r for r in search.roots if r.value == RatExpr.sqrt_int(2))
        assert all(r.extensions == (2,) for r in search.roots)
        (left,) = search.after(root, char_poly(parse("Dx + sqrt(2)*Dy"))).roots
        assert left == Root(-RatExpr.sqrt_int(2), 1)

    def test_the_unresolved_factor_stays(self):
        search = find_roots(char_poly(parse("(Dx - Dy)*(Dx^2 - x*Dy^2)")))
        (root,) = search.roots
        after = search.after(root, char_poly(parse("Dx^2 - x*Dy^2")))
        assert after.roots == () and after.unresolved == search.unresolved


class TestOneDivisionPass:
    @pytest.mark.parametrize("p, want", [
        (char_poly(parse("Dx^2 - Dy^2")), {"-1": 1, "1": 1}),
        # (w - 1)^2 (w + 2)
        (CharPoly((ONE, R.ZERO, -R.from_int(3), R.from_int(2)), 3), {"-2": 1, "1": 2})])
    def test_multiplicities_come_from_the_split(self, monkeypatch, p, want):
        calls = []

        def counted(self, omega):
            calls.append(omega)
            return multiplicity_of(self, omega)

        multiplicity_of = CharPoly.multiplicity_of
        monkeypatch.setattr(CharPoly, "multiplicity_of", counted)
        search = find_roots(p)
        assert {str(r.value): r.multiplicity for r in search.roots} == want
        assert calls == []


# planted P = prod (w - r_i)^{m_i} that the search splits: any rational
# roots, or at most two roots from the whole pool next to roots 0, 1, -1
# (candidates that P's coefficients give whatever else they hold)
_RATIONAL_ROOT = st.fractions(-3, 3, max_denominator=3).map(R.from_fraction)
_ANY_ROOT = st.one_of(_RATIONAL_ROOT, st.sampled_from(
    ["sqrt(2)", "a", "x", "-y/(y + 1)"]).map(lambda t: parse_function(t, {"a"})))
_PLANTED = st.one_of(
    st.lists(_RATIONAL_ROOT, min_size=2, max_size=5),
    st.lists(_ANY_ROOT, max_size=2).flatmap(lambda rs: st.lists(
        st.sampled_from([R.ZERO, ONE, -ONE]), min_size=2 - len(rs), max_size=5 - len(rs))
        .map(lambda easy: rs + easy)))
_W = sympy.Symbol("w")
_NAMES = {s: sympy.Symbol(s) for s in ("x", "y", "a")}


def _sympy(r: RatExpr):
    return sympy.sympify(str(r).replace("^", "**"), locals=_NAMES)


def _sympy_zero(e) -> bool:
    return sympy.expand(sympy.fraction(sympy.together(e))[0]) == 0


def _planted(roots: list) -> CharPoly:
    coeffs = [ONE]
    for r in roots:  # times (w - r)
        coeffs = [c - r * d for c, d in zip(coeffs + [R.ZERO], [R.ZERO] + coeffs)]
    return CharPoly(tuple(coeffs), len(roots))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_PLANTED, _ANY_ROOT)
def test_planted_roots_and_their_multiplicities_against_sympy(roots, omega):
    p = _planted(roots)
    search = find_roots(p)
    assert {r.value: r.multiplicity for r in search.roots} == \
        {r: roots.count(r) for r in roots}
    assert not search.unresolved
    big_p = sympy.expand(sympy.prod(_W - _sympy(r) for r in roots))
    for w in (roots[0], omega):
        at, dp = big_p.subs(_W, _sympy(w)), sympy.diff(big_p, _W).subs(_W, _sympy(w))
        assert _sympy_zero(_sympy(p.eval_at(w)) - at)
        assert _sympy_zero(_sympy(p.derivative_at(w)) - dp)
        m = 0
        while m <= p.n and _sympy_zero(sympy.diff(big_p, _W, m).subs(_W, _sympy(w))):
            m += 1
        assert p.multiplicity_of(w) == m


class TestSymbolMultiplicativity:
    def test_factor_times_cofactor(self, rng):
        for _ in range(20):
            w0 = R.from_int(rng.randint(-3, 3))
            b = rand_operator(rng, rng.randint(1, 2))
            f = FirstOrderFactor.from_root(w0, R.ZERO)
            prod = f.as_operator().compose(b)
            if prod.order != b.order + 1:
                continue
            pc = char_poly(prod).coeffs
            qc = char_poly(b).coeffs
            # (t - w0) * Q(t), coefficientwise
            want = [qc[0]]
            for i in range(1, len(qc)):
                want.append(qc[i] - w0 * qc[i - 1])
            want.append(-w0 * qc[-1])
            assert list(pc) == want


class TestRootTransform:
    def test_swap_duality_with_infinity(self):
        # exchanging x and y sends the direction [w : 1] to [1 : w]:
        # w -> 1/w, with 0 and infinity exchanged
        def image(r):
            if r.at_infinity:
                return Root(R.ZERO, r.multiplicity)
            if r.value.is_zero():
                return Root(None, r.multiplicity, at_infinity=True)
            return Root(r.value.inverse(), r.multiplicity)

        for op in (LPDO({(1, 1): ONE}), LPDO({(1, 1): ONE, (0, 2): R.from_int(2)})):
            search = find_roots(char_poly(op))
            swapped = find_roots(char_poly(op.change_vars()))
            images = sorted(str(image(r)) for r in search.roots)
            assert images == sorted(str(r) for r in swapped.roots)
