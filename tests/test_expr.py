"""Exact arithmetic kernel: scalars, polynomials, rational functions."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpdo
from lpdo import expr
from lpdo.expr import (
    ConstScalar,
    Poly,
    RatExpr,
    poly_gcd,
    squarefree_decompose,
)

from conftest import rand_poly, rand_ratexpr

R = RatExpr
X, Y = RatExpr.X, RatExpr.Y


class TestConstScalar:
    def test_squarefree_decompose(self):
        assert squarefree_decompose(12) == (2, 3)
        assert squarefree_decompose(-4) == (2, -1)
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(30) == (1, 30)

    def test_radical_products(self):
        s2 = ConstScalar.radical(2)
        s3 = ConstScalar.radical(3)
        s6 = ConstScalar.radical(6)
        assert s2 * s3 == s6
        assert s2 * s2 == ConstScalar.from_rational(2)
        assert s2 * s6 == ConstScalar.from_rational(2) * s3

    def test_imaginary_unit(self):
        i = ConstScalar.radical(-1)
        assert i * i == ConstScalar.from_rational(-1)
        # i*sqrt(2) * i*sqrt(3) = -sqrt(6)
        assert ConstScalar.radical(-2) * ConstScalar.radical(-3) == \
            -ConstScalar.radical(6)

    def test_inverse_in_tower(self):
        z = (ConstScalar.from_rational(1) + ConstScalar.radical(2)
             + ConstScalar.radical(3))
        assert z * z.inverse() == ConstScalar.ONE

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ConstScalar.ZERO.inverse()

    def test_sqrt_denesting(self):
        s2 = ConstScalar.radical(2)
        val = ConstScalar.from_rational(3) + s2.scale(2)
        root = val.sqrt()
        assert root is not None and root * root == val

    def test_sqrt_extension_control(self):
        two = ConstScalar.from_rational(2)
        got = two.sqrt()
        assert got == ConstScalar.radical(2)
        assert got * got == two


def _const(coords: dict[int, int]) -> ConstScalar:
    return ConstScalar({d: Fraction(q) for d, q in coords.items()})


# elements of Q(sqrt(2), sqrt(3), i) with small integer coordinates
_scalars = st.dictionaries(st.sampled_from([1, 2, 3, 6, -1, -2, -3, -6]),
                           st.integers(-4, 4), max_size=4).map(_const)


# the same field with coordinates n/m, m in 1..6, so that a denominator
# above 1 is exercised
_fractional = st.dictionaries(st.sampled_from([1, 2, 3, 6, -1, -2, -3, -6]),
                              st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
                              max_size=4).map(ConstScalar)

_SQUAREFREE = [d for d in range(-60, 61) if d and squarefree_decompose(d)[0] == 1]


def test_radical_products_follow_the_squarefree_rule(monkeypatch):
    # sqrt(a)*sqrt(b) = c*sqrt(d) for a*b = c^2*d, negated when both are
    # negative (i*i = -1); the product itself factors no integer
    want = {}
    for a in _SQUAREFREE:
        for b in _SQUAREFREE:
            c, d = squarefree_decompose(a * b)
            want[a, b] = (-c if a < 0 and b < 0 else c), d

    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(expr, "_factor", no_factoring)
    assert {ab: expr._mul_radicals(*ab) for ab in want} == want


def test_arithmetic_builds_no_fraction(monkeypatch):
    a = ConstScalar({1: Fraction(1, 6), 2: Fraction(-3, 4), -3: 2})
    b = ConstScalar({1: Fraction(5, 2), 6: Fraction(1, 3)})
    want = [a + b, a - b, -a, a * b]

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(expr, "Fraction", no_fraction)
    assert [a + b, a - b, -a, a * b] == want


class TestFractionalCoordinates:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(_fractional, _fractional, _fractional)
    def test_field_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        if a:
            assert a * a.inverse() == ConstScalar.ONE

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(_fractional)
    def test_coords_round_trip(self, a):
        coords = a.coords
        assert all(type(q) is Fraction and q for q in coords.values())
        assert ConstScalar(coords) == a
        m = lcm(*(q.denominator for q in coords.values()))
        assert ConstScalar({d: int(q * m) for d, q in coords.items()}) == a.scale(m)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(_fractional, _fractional)
    def test_products_and_inverses_match_sympy(self, a, b):
        import sympy

        def sym(c):  # as perfbench/oracle.py converts a constant
            return sum((sympy.Rational(q.numerator, q.denominator)
                        * (1 if d == 1 else sympy.sqrt(d)) for d, q in c.coords.items()),
                       sympy.Integer(0))

        assert sympy.expand(sym(a * b) - sym(a) * sym(b)) == 0
        if a:
            assert sympy.expand(sym(a.inverse()) * sym(a)) == 1


class TestSqrtDenesting:
    SQUARES = [
        ConstScalar.radical(-1),
        _const({1: 3, 2: 2}),
        _const({1: 2, 3: 1}),
        _const({1: 5, 6: 2}),
    ]

    def test_nested_radical_has_no_root(self):
        assert _const({1: 1, 2: 1}).sqrt() is None

    @pytest.mark.parametrize("order", [1, -1])
    def test_roots_square_back_in_either_order(self, order):
        # a square root depends only on its argument, not on earlier roots
        for val in self.SQUARES[::order]:
            assert _const({1: 1, 2: 1}).sqrt() is None
            root = val.sqrt()
            assert root is not None and root * root == val

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(_scalars, _scalars)
    def test_sqrt_terminates_and_squares_back(self, r, z):
        assert (r * r).sqrt() ** 2 == r * r
        got = z.sqrt()
        assert got is None or got * got == z


class TestRatExprArith:
    def test_add_forced_cancellation(self):
        assert (X / (X + Y) + Y / (X + Y)).is_one()

    def test_mul_radical_relation(self):
        s2 = R.sqrt_int(2)
        assert s2 * s2 == R.from_int(2)

    def test_div_forced_factorization(self):
        assert (Y * Y - X * X) / (X + Y) == Y - X

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            R.ONE / R.ZERO

    def test_field_axioms_random(self, rng):
        for _ in range(60):
            a, b, c = (rand_ratexpr(rng, 1) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a + (-a)).is_zero()
            if not a.is_zero():
                assert (a * a.inverse()).is_one()

    def test_canonicality_different_orders(self, rng):
        for _ in range(40):
            a, b = rand_ratexpr(rng, 1), rand_ratexpr(rng, 1)
            lhs = (a + b) * (a - b)
            rhs = a * a - b * b
            assert lhs == rhs
            assert hash(lhs) == hash(rhs)
            assert str(lhs) == str(rhs)


class TestDiff:
    def test_polynomial(self):
        q = (Y * Y - X * X) * R.from_fraction(Fraction(1, 4))
        assert q.diff("x") == -(X * R.from_fraction(Fraction(1, 2)))

    def test_quotient_rule(self):
        alpha = R.symbol("alpha")
        assert (alpha / (X + Y)).diff("y") == -(alpha / ((X + Y) ** 2))

    def test_mixed_partials_commute(self):
        f = (X ** 3 * Y) / (X + Y)
        assert f.diff("x").diff("y") == f.diff("y").diff("x")

    def test_parameters_are_constant(self):
        assert R.symbol("alpha").diff("x").is_zero()

    def test_leibniz_random(self, rng):
        for _ in range(60):
            a, b = rand_ratexpr(rng, 1), rand_ratexpr(rng, 1)
            for v in ("x", "y"):
                assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)

    @pytest.mark.parametrize("c", [0, 1, -3, Fraction(3, 2), Fraction(-2, 3)])
    def test_diff_along_is_dx_minus_c_times_dy(self, rng, c):
        # over rationals, sqrt(2), a parameter and an unknown's jets, with and
        # without a cancellation that drops a symbol or the radical
        u = R.unknown("u")
        factors = [X, Y, R.symbol("a"), u, u.diff("y"), X * Y]
        scalars = [R.ONE, R.from_fraction(Fraction(-5, 6)), R.sqrt_int(2), R.from_int(4)]
        for _ in range(150):
            p = R.ZERO
            for _ in range(rng.randint(0, 5)):
                t = rng.choice(scalars)
                for _ in range(rng.randint(0, 3)):
                    t = t * rng.choice(factors)
                p = p + t
            n = p.num
            want = n.diff("x") - Poly.rational(c) * n.diff("y")
            got = n.diff_along(c)
            assert got == want and str(got) == str(want)

    def test_differential_parameter_jets(self):
        psi = R.unknown("psi")
        assert psi.diff("x") == R.symbol("psi_x")
        assert psi.diff("x").diff("y") == R.symbol("psi_xy")
        assert psi.diff("y").diff("x") == R.symbol("psi_xy")
        assert (psi * psi).diff("x") == R.from_int(2) * psi * R.symbol("psi_x")

    def test_unknowns_leave_plain_symbols_constant(self):
        # the kind belongs to the symbol: a plain "a" stays a parameter
        # next to the unknown a, and nothing declares a_x
        a = R.unknown("a")
        assert a.diff("x") == R.symbol("a_x")
        assert a.diff("x").diff("x") == R.symbol("a_xx")
        assert R.symbol("a").diff("x").is_zero()
        assert R.symbol("a") == a
        assert (R.symbol("a_x") * X).diff("x") == R.symbol("a_x")
        assert str(a.diff("y")) == "a_y"

    def test_a_name_of_both_kinds_does_not_combine(self):
        # the parameter a and the unknown function a: neither product order
        # may let one kind silently win
        for left, right in [(R.symbol("a"), R.unknown("a")), (R.unknown("a"), R.symbol("a"))]:
            with pytest.raises(ValueError, match="both a parameter and an unknown"):
                left * right
            with pytest.raises(ValueError, match="both a parameter and an unknown"):
                (left * X + Y) * (right + X)
            with pytest.raises(ValueError, match="both a parameter and an unknown"):
                left + right

    def test_registering_a_parameter_is_a_deprecated_no_op(self):
        with pytest.warns(DeprecationWarning, match=r"RatExpr\.unknown"):
            lpdo.register_differential_param("b")
        assert R.symbol("b").diff("x").is_zero()
        assert "register_differential_param" not in lpdo.__all__


class TestSubstitute:
    def test_parameter_specialization(self):
        a = R.symbol("a")
        assert a.substitute({"a": R.ONE}) - R.ONE == R.ZERO
        assert (a - R.ONE).substitute({"a": R.ONE}).is_zero()

    def test_simultaneous(self):
        assert (X ** 2).substitute({"x": X + Y}) == X ** 2 + \
            R.from_int(2) * X * Y + Y ** 2

    def test_parameter_condition_specialization(self):
        al, be, g = R.symbol("alpha"), R.symbol("beta"), R.symbol("gamma")
        expr = g - al * (be - R.ONE)
        assert expr.substitute({"gamma": al * (be - R.ONE)}).is_zero()

    def test_vanishing_denominator(self):
        f = R.ONE / (X - Y)
        with pytest.raises(ZeroDivisionError):
            f.substitute({"x": Y})


A, S2 = R.symbol("a"), R.sqrt_int(2)
SUB_TERMS = (R.ONE, X, Y, A, X * Y, X * X, A * Y, S2 * X)
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def sub_polys(draw, terms=SUB_TERMS, max_size=4):
    out = R.ZERO
    for t in draw(st.lists(st.sampled_from(terms), min_size=1, max_size=max_size, unique=True)):
        out = out + R.from_fraction(draw(SMALL)) * t
    return out


@st.composite
def sub_values(draw):
    """A polynomial value, or a rational one with a nonconstant denominator."""
    num = draw(sub_polys(terms=(R.ONE, X, Y, A, X * Y), max_size=3))
    if draw(st.booleans()):
        return num
    den = draw(sub_polys(terms=(X, Y, A, X * Y, Y * Y), max_size=2))
    return num / (den + R.ONE)


def _sympy_of(r):
    import sympy
    return sympy.sympify(str(r).replace("^", "**"))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(sub_polys(), sub_polys(), st.dictionaries(st.sampled_from("xya"), sub_values(), min_size=1))
def test_substitute_matches_sympy(num, den, values):
    import sympy
    f = num / (den + R.from_int(5))
    want = _sympy_of(f).subs({sympy.Symbol(s): _sympy_of(v) for s, v in values.items()},
                             simultaneous=True)
    try:
        got = f.substitute(values)
    except ZeroDivisionError:
        assert sympy.simplify(_sympy_of(den + R.from_int(5)).subs(
            {sympy.Symbol(s): _sympy_of(v) for s, v in values.items()}, simultaneous=True)) == 0
        return
    assert sympy.cancel(_sympy_of(got) - want) == 0
    assert got == _termwise(f.num, values) / _termwise(f.den, values)
    assert got == RatExpr._reduce(got.num, got.den)


def _termwise(p, values):
    """p at values by RatExpr products and sums, term by term."""
    out = R.ZERO
    for mono, c in p.terms.items():
        term = R.from_const(c)
        for s, k in mono:
            term = term * values.get(s, R.symbol(s)) ** k
        out = out + term
    return out


PSI_X = R.unknown("psi").diff("x")  # a jet of an unknown function
AT_TERMS = (R.ONE, X, Y, A, PSI_X, X * Y, X * X * A, A * A, A * PSI_X, S2 * PSI_X ** 3, S2 * X)
AT_CONSTANTS = st.one_of(
    st.just(ConstScalar.ZERO),
    st.integers(-5, 5).map(ConstScalar.from_rational),
    SMALL.map(ConstScalar.from_rational),
    st.sampled_from(["sqrt(2)", "-sqrt(3)/2 + 1", "i", "1 + sqrt(2)"])
    .map(lambda t: lpdo.parse_function(t).const_value()))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sub_polys(terms=AT_TERMS, max_size=5), st.sampled_from(["x", "y", "a", "psi_x"]),
       AT_CONSTANTS)
def test_at_is_the_substitution_of_a_constant(p, v, c):
    assert R.from_poly(p.num.at(v, c)) == p.substitute({v: R.from_const(c)})


class TestPerfectSquareRoot:
    def test_polynomial_square(self):
        f = (X + Y) ** 2 / R.from_int(4)
        assert f.perfect_square_root() == (X + Y) / R.from_int(2)

    def test_constant_extends_tower(self):
        r = R.from_int(2).perfect_square_root()
        assert r == R.sqrt_int(2)
        assert r.radicals() == {2}

    def test_not_a_square(self):
        assert X.perfect_square_root() is None

    def test_negative_constant(self):
        assert R.from_int(-4).perfect_square_root() == \
            R.from_int(2) * R.sqrt_int(-1)

    def test_root_squares_back(self, rng):
        for _ in range(30):
            f = rand_ratexpr(rng, 1)
            sq = f * f
            r = sq.perfect_square_root()
            assert r is not None and r * r == sq


class TestPolyGcd:
    def test_common_factor(self):
        a = ((X + Y) ** 3 * (X - Y)).num
        b = ((X + Y) ** 2 * (X * X + Y)).num
        assert poly_gcd(a, b) == ((X + Y) ** 2).num

    def test_coprime(self):
        assert poly_gcd((X + Y).num, (X - Y).num) == Poly.ONE

    def test_gcd_divides_random(self, rng):
        for _ in range(25):
            g = rand_poly(rng, 1)
            a = rand_poly(rng, 1)
            b = rand_poly(rng, 1)
            if g.is_zero() or a.is_zero() or b.is_zero():
                continue
            got = poly_gcd((g * a).num, (g * b).num)
            # the common factor must divide the computed gcd
            got_r = R.from_poly(got)
            quot = got_r / g
            assert (quot * g) == got_r


# --------------------------------------------------------------------------
# integer factoring: trial division to a bound, then a primality proof
# --------------------------------------------------------------------------

def _sympy_squarefree(n):
    import sympy

    c = d = 1
    for p, e in sympy.factorint(abs(n)).items():
        c, d = c * p ** (e // 2), d * p ** (e % 2)
    return c, d if n > 0 else -d


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(-10 ** 12, 10 ** 12).filter(bool))
def test_squarefree_decompose_matches_sympy(n):
    assert expr.squarefree_decompose(n) == _sympy_squarefree(n)


@pytest.mark.parametrize("n", [
    2 ** 61 - 1,                      # proven prime by Miller-Rabin
    3 * (2 ** 61 - 1) ** 2,           # a square cofactor above the bound
    999983 * 1000003,                 # two primes below the bound
    (2 ** 31 - 1) ** 2 * 5 ** 3,
])
def test_squarefree_decompose_of_large_integers(n):
    assert expr.squarefree_decompose(n) == _sympy_squarefree(n)


def test_is_prime_agrees_with_sympy_on_pseudoprimes():
    import sympy

    for n in [2047, 3215031751, 3825123056546413051, 318665857834031151167461,
              561, 1105, 2 ** 61 - 1, *range(2, 2000)]:
        assert expr._is_prime(n) == sympy.isprime(n), n
    assert not expr._is_prime(2 ** 89 - 1)  # prime, but past the proven range


def test_an_integer_past_the_bound_raises_naming_it():
    n = 10 ** 39 + 7  # 19 * 347 * 389513 * 157034976251 * 2479696758123328573
    with pytest.raises(ValueError, match=str(n)):
        expr.squarefree_decompose(n)

