import random

import pytest

from lpdo.expr import RatExpr


@pytest.fixture
def rng():
    return random.Random(0xD1FF)


def rand_poly(rng, max_deg=2, density=0.6, coeff_range=3, symbols=("x", "y")):
    """Random polynomial with small integer coefficients."""
    out = RatExpr.ZERO
    names = list(symbols)
    for dx in range(max_deg + 1):
        for dy in range(max_deg + 1 - dx):
            if rng.random() < density:
                c = rng.randint(-coeff_range, coeff_range)
                if c:
                    term = RatExpr.from_int(c)
                    if dx:
                        term = term * RatExpr.symbol(names[0]) ** dx
                    if dy:
                        term = term * RatExpr.symbol(names[1]) ** dy
                    out = out + term
    return out


def rand_ratexpr(rng, max_deg=2):
    """Random nonzero-denominator rational function."""
    num = rand_poly(rng, max_deg)
    den = rand_poly(rng, 1)
    while den.is_zero():
        den = rand_poly(rng, 1)
    return num / den


def rand_operator(rng, order, density=0.7, max_deg=1):
    """Random operator of exactly the given order."""
    from lpdo.operator import LPDO

    while True:
        coeffs = {}
        for j in range(order + 1):
            for k in range(order + 1 - j):
                if rng.random() < density:
                    p = rand_poly(rng, max_deg)
                    if not p.is_zero():
                        coeffs[(j, k)] = p
        op = LPDO(coeffs)
        if op.order == order:
            return op
