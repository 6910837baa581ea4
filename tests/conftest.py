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


def change_vars_by_compose(op, m, inverse):
    """op in the coordinates (u, v) = M (x, y) renamed back to (x, y), for
    the constant matrix m with the given inverse: each coefficient
    substituted through the inverse, times the composed powers of the new
    derivatives Dx -> m11 Dx + m21 Dy and Dy -> m12 Dx + m22 Dy."""
    from lpdo.operator import LPDO

    X, Y = RatExpr.X, RatExpr.Y
    (m11, m12), (m21, m22), (i11, i12), (i21, i22) = \
        [[RatExpr.from_fraction(e) for e in row] for row in m + inverse]
    subs = {"x": i11 * X + i12 * Y, "y": i21 * X + i22 * Y}
    new_dx, new_dy = LPDO({(1, 0): m11, (0, 1): m21}), LPDO({(1, 0): m12, (0, 1): m22})
    out = LPDO.zero()
    for (j, k), a in op.coeffs.items():
        term = LPDO.function(RatExpr.ONE)
        for d in [new_dx] * j + [new_dy] * k:
            term = term.compose(d)
        out = out + term.scale(a.substitute(subs))
    return out
