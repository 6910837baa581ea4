"""Operator normal form, composition, transpose, the exchange of x and y."""

from fractions import Fraction

import pytest

from lpdo.expr import RatExpr
from lpdo.operator import LPDO, FirstOrderFactor

from conftest import rand_operator, rand_ratexpr

R = RatExpr
X, Y = R.X, R.Y
ONE = R.ONE


def triple_composite() -> LPDO:
    f = LPDO({(1, 0): ONE, (0, 0): ONE})
    g = LPDO({(1, 0): ONE, (0, 1): X})
    return f.compose(f.compose(g))


class TestCompose:
    def test_triple_product_expansion(self):
        got = triple_composite()
        two = R.from_int(2)
        want = LPDO({
            (3, 0): ONE,
            (2, 1): X,
            (2, 0): two,
            (1, 1): two * X + two,
            (1, 0): ONE,
            (0, 1): X + two,
        })
        assert got == want

    def test_regrouped_product_matches(self):
        two = R.from_int(2)
        left = LPDO({(2, 0): ONE, (1, 1): X, (1, 0): ONE, (0, 1): two + X})
        tail = LPDO({(1, 0): ONE, (0, 0): ONE})
        assert left.compose(tail) == triple_composite()

    def test_leibniz_on_monomial(self):
        got = LPDO.dx().compose(LPDO.function(X))
        assert got == LPDO({(1, 0): X, (0, 0): ONE})

    def test_associativity_random(self, rng):
        for _ in range(25):
            a = rand_operator(rng, rng.randint(1, 2))
            b = rand_operator(rng, rng.randint(1, 2))
            c = rand_operator(rng, rng.randint(1, 2))
            assert a.compose(b.compose(c)) == a.compose(b).compose(c)

    def test_order_additive(self, rng):
        for _ in range(10):
            a = rand_operator(rng, 2)
            b = rand_operator(rng, 1)
            if a.coeff(2, 0).is_zero() or b.coeff(1, 0).is_zero():
                continue
            assert a.compose(b).order == 3


class TestTranspose:
    def test_first_order(self):
        assert LPDO({(1, 0): ONE, (0, 0): ONE}).transpose() == \
            LPDO({(1, 0): -ONE, (0, 0): ONE})

    def test_known_second_order_pair(self):
        q = (Y * Y - X * X) * R.from_fraction(Fraction(1, 4))
        tilde = LPDO({(2, 0): ONE, (0, 2): -ONE, (1, 0): -Y, (0, 1): -X,
                      (0, 0): q + ONE})
        plain = LPDO({(2, 0): ONE, (0, 2): -ONE, (1, 0): Y, (0, 1): X,
                      (0, 0): q + ONE})
        assert tilde.transpose() == plain

    def test_involution_random(self, rng):
        for _ in range(25):
            a = rand_operator(rng, rng.randint(1, 3))
            assert a.transpose().transpose() == a

    def test_anti_homomorphism_random(self, rng):
        for _ in range(25):
            a = rand_operator(rng, rng.randint(1, 2))
            b = rand_operator(rng, rng.randint(1, 2))
            assert a.compose(b).transpose() == \
                b.transpose().compose(a.transpose())


class TestApply:
    def test_directional(self):
        f = (Y + X) / R.from_int(2)
        assert (LPDO.dx() - LPDO.dy()).apply(f).is_zero()
        assert (LPDO.dx() + LPDO.dy()).apply(f).is_one()

    def test_identity_operator(self, rng):
        ident = LPDO.function(ONE)
        for _ in range(5):
            f = rand_ratexpr(rng, 2)
            assert ident.apply(f) == f

    def test_agrees_with_compose(self, rng):
        for _ in range(15):
            a = rand_operator(rng, rng.randint(1, 2))
            b = rand_operator(rng, rng.randint(1, 2))
            f = rand_ratexpr(rng, 1)
            assert a.compose(b).apply(f) == a.apply(b.apply(f))

    def test_linear_in_argument(self, rng):
        for _ in range(10):
            a = rand_operator(rng, 2)
            f, g = rand_ratexpr(rng, 1), rand_ratexpr(rng, 1)
            assert a.apply(f + g) == a.apply(f) + a.apply(g)


class TestChangeVars:
    def test_swap_fixes_symmetric(self):
        dxdy = LPDO.dx().compose(LPDO.dy())
        assert dxdy.change_vars() == dxdy

    def test_swap_renames(self):
        assert LPDO({(1, 0): X}).change_vars() == LPDO({(0, 1): Y})


class TestFirstOrderFactor:
    def test_needs_derivative_part(self):
        with pytest.raises(ValueError):
            FirstOrderFactor(R.ZERO, R.ZERO, ONE)

    def test_round_trip_operator(self):
        f = FirstOrderFactor(ONE, -X, Y)
        assert FirstOrderFactor.from_operator(f.as_operator()) == f
