"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (canonical-form equality, no tolerances); the time
budgets from the criteria are asserted as hard bounds.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction

from lpdo.expr import RatExpr
from lpdo.operator import LPDO, FirstOrderFactor
from lpdo.charpoly import char_poly
from lpdo.factorize import (
    OutcomeStatus,
    complete_with_p3,
    degenerate_constraints,
    factor_all_roots,
    factor_left,
    factor_right,
)
from lpdo.parser import parse

from conftest import rand_operator, rand_poly, rand_ratexpr

R = RatExpr
X, Y = R.X, R.Y
ONE = R.ONE
HALF = R.from_fraction(Fraction(1, 2))


def report(k: int, label: str, elapsed: float):
    print(f"\nACCEPTANCE {k} [PASS] {label} ({elapsed:.3f}s)")


def test_criterion_1_composition_identity():
    t0 = time.monotonic()
    lhs = parse("(Dx+1)*(Dx+1)*(Dx+x*Dy)")
    rhs = parse("(Dx^2 + x*Dx*Dy + Dx + (2+x)*Dy)*(Dx+1)")
    elapsed = time.monotonic() - t0
    assert lhs == rhs
    assert elapsed < 0.1
    report(1, "triple-product normal forms agree exactly", elapsed)


def test_criterion_2_cross_lead_conditions_and_factorizations():
    t0 = time.monotonic()
    al, be, ga = R.symbol("alpha"), R.symbol("beta"), R.symbol("gamma")
    s = X + Y

    def operator(gamma_expr):
        return LPDO({(1, 1): ONE, (1, 0): al / s, (0, 1): be / s,
                     (0, 0): gamma_expr / (s * s)})

    outs = factor_all_roots(operator(ga))
    assert len(outs) == 2
    conditions = [ga - al * (be - ONE), ga - be * (al - ONE)]
    for out, cond in zip(outs, conditions):
        assert out.status is OutcomeStatus.CONDITIONS_FAIL
        (residual,) = out.residuals
        assert residual.num in (cond.num, (-cond).num)

    first = factor_left(operator(al * (be - ONE)))
    assert first.status is OutcomeStatus.FACTORED
    assert first.factor.as_operator() == LPDO({(1, 0): ONE, (0, 0): be / s})
    assert first.cofactor == LPDO({(0, 1): ONE, (0, 0): al / s})

    second = factor_left(operator(be * (al - ONE)), root_choice=1)
    assert second.status is OutcomeStatus.FACTORED
    assert second.factor.as_operator() == LPDO({(0, 1): ONE, (0, 0): al / s})
    assert second.cofactor == LPDO({(1, 0): ONE, (0, 0): be / s})

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, "mixed-lead family: parameter conditions and both "
              "factorizations", elapsed)


def test_criterion_3_zero_term_family():
    t0 = time.monotonic()

    def family(zero_term):
        q = (Y * Y - X * X) * R.from_fraction(Fraction(1, 4))
        return LPDO({(2, 0): ONE, (0, 2): -ONE, (1, 0): Y, (0, 1): X,
                     (0, 0): q + zero_term})

    outs = factor_all_roots(family(R.symbol("a")))
    by_root = {str(o.root.value): o for o in outs}
    assert str(by_root["-1"].residuals[0]) == "a - 1"
    assert str(by_root["1"].residuals[0]) == "a + 1"

    plus = factor_left(family(ONE))
    assert plus.status is OutcomeStatus.FACTORED
    assert plus.factor.as_operator() == parse("Dx + Dy + (y-x)/2")
    assert plus.cofactor == parse("Dx - Dy + (y+x)/2")
    other = factor_left(family(ONE), root_choice=ONE)
    assert other.status is OutcomeStatus.CONDITIONS_FAIL

    minus = factor_left(family(-ONE))
    assert minus.status is OutcomeStatus.FACTORED
    assert minus.factor.as_operator() == parse("Dx - Dy + (y+x)/2")
    assert minus.cofactor == parse("Dx + Dy + (y-x)/2")

    right = factor_right(family(ONE))
    assert right.status is OutcomeStatus.FACTORED
    assert right.factor.as_operator() == parse("Dx - Dy + (y+x)/2")

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(3, "zero-term family: only a = +/-1 factor, right factor via "
              "transpose", elapsed)


def test_criterion_4_factorizable_hyperbolic_class():
    t0 = time.monotonic()
    # fully symbolic lower coefficients: formal unknown functions
    a10, a01 = R.unknown("a10"), R.unknown("a01")
    quarter = R.from_fraction(Fraction(1, 4))
    grad = lambda f: f.diff("x") + f.diff("y")
    a00 = (R.from_int(2) * grad(a10 + a01) + a10 * a10 - a01 * a01) * quarter
    op = LPDO({(2, 0): ONE, (0, 2): -ONE, (1, 0): a10, (0, 1): a01,
               (0, 0): a00})
    out = factor_left(op, root_choice=-ONE)
    assert out.status is OutcomeStatus.FACTORED
    assert out.factor.p3 == (a10 - a01) * HALF
    assert out.cofactor == LPDO({(1, 0): ONE, (0, 1): -ONE,
                                 (0, 0): (a10 + a01) * HALF})
    assert len(out.residuals) == 1
    assert all(r.is_zero() for r in out.residuals)

    # the two-parameter subfamily over Q(sqrt(2))
    t1, t3 = R.symbol("t1"), R.symbol("t3")
    s2 = R.sqrt_int(2)
    b10 = t3 * X + s2 * t1
    b01 = -(t3 * X)
    b00 = s2 * t1 * t3 * X * HALF + t1 * t1 * HALF
    fam = LPDO({(2, 0): ONE, (0, 2): -ONE, (1, 0): b10, (0, 1): b01,
                (0, 0): b00})
    out = factor_left(fam, root_choice=-ONE)
    assert out.status is OutcomeStatus.FACTORED
    assert out.factor.p3 == (R.from_int(2) * t3 * X + s2 * t1) * HALF
    assert out.cofactor == LPDO({(1, 0): ONE, (0, 1): -ONE,
                                 (0, 0): s2 * t1 * HALF})
    assert 2 in out.factor.p3.radicals()

    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    report(4, "hyperbolic class: symbolic case-1 factors and the sqrt(2) "
              "two-parameter family", elapsed)


def _rand_univar(rng, max_deg=3):
    out = R.ZERO
    for d in range(max_deg + 1):
        c = rng.randint(-3, 3)
        if c:
            out = out + R.from_int(c) * X ** d
    return out


def test_criterion_5_degenerate_reduction():
    rng = random.Random(5)
    worst = 0.0
    for _ in range(10):
        t0 = time.monotonic()
        a20 = _rand_univar(rng)
        while a20.is_zero():
            a20 = _rand_univar(rng)
        a10 = _rand_univar(rng)
        a00 = _rand_univar(rng)
        op = LPDO({(2, 0): a20, (1, 0): a10, (0, 0): a00})
        prob = degenerate_constraints(op, R.ZERO)
        psi = R.unknown(prob.unknown)
        dx = lambda f: f.diff("x")
        want = dx(psi) + psi * psi + \
            ((R.from_int(2) * dx(a20) - a10) / a20) * psi + \
            (a00 + dx(dx(a20)) - dx(a10)) / a20
        assert prob.constraints == (want,)
        worst = max(worst, time.monotonic() - t0)
        assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    op = LPDO({(2, 0): ONE, (1, 0): X})
    out = complete_with_p3(op, R.ZERO, X)
    assert out.status is OutcomeStatus.FACTORED
    assert out.factor.as_operator() == parse("Dx + x")
    assert out.cofactor == LPDO.dx()
    assert time.monotonic() - t0 < 1.0
    report(5, f"degenerate reduction matches the closed-form constraint "
              f"(worst instance {worst:.3f}s)", worst)


def _random_factor_and_cofactor(rng, n):
    """A normalized first-order factor with constant root and a random
    order-(n-1) cofactor, rejected until the root is simple."""
    while True:
        w0 = R.from_fraction(Fraction(rng.randint(-3, 3),
                                      rng.choice([1, 1, 2])))
        cof = rand_operator(rng, n - 1, max_deg=2, density=0.6)
        if cof.coeff(n - 1, 0).is_zero():
            continue
        factor = FirstOrderFactor.from_root(w0, rand_poly(rng, 2))
        product = factor.as_operator().compose(cof)
        if product.order != n:
            continue
        p = char_poly(product)
        if p.eval_at(w0).is_zero() and not p.derivative_at(w0).is_zero():
            return factor, cof, product, w0


def test_criterion_6_round_trip_recovery():
    rng = random.Random(6)
    t0 = time.monotonic()
    per_order = 200
    for n in (2, 3, 4):
        for _ in range(per_order):
            factor, cof, product, w0 = _random_factor_and_cofactor(rng, n)
            out = factor_left(product, root_choice=w0)
            assert out.status is OutcomeStatus.FACTORED
            assert out.factor.as_operator() == factor.as_operator()
            assert out.cofactor == cof
            assert len(out.residuals) == n - 1
            assert all(r.is_zero() for r in out.residuals)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, f"{per_order} exact recoveries per order 2..4", elapsed)


def test_criterion_7_condition_count():
    rng = random.Random(7)
    t0 = time.monotonic()
    per_order = 50
    for n in (2, 3, 4, 5):
        done = 0
        while done < per_order:
            w0 = R.from_int(rng.randint(-2, 2))
            coeffs = {}
            for j in range(n + 1):
                for k in range(n + 1 - j):
                    p = rand_poly(rng, 1, density=0.7, coeff_range=2)
                    if not p.is_zero():
                        coeffs[(j, k)] = p
            coeffs[(n, 0)] = rand_poly(rng, 1, density=0.7, coeff_range=2) \
                + R.from_int(rng.randint(1, 2))
            # adjust the trailing top coefficient so w0 is a root
            acc = R.ZERO
            for k in range(n):
                acc = (acc + coeffs.get((n - k, k), R.ZERO)) * w0
            coeffs[(0, n)] = -acc
            op = LPDO(coeffs)
            if op.order != n:
                continue
            p = char_poly(op)
            if not p.eval_at(w0).is_zero() or p.derivative_at(w0).is_zero():
                continue
            out = factor_left(op, root_choice=w0)
            assert len(out.residuals) == n - 1
            done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(7, f"{per_order} generic operators per order 2..5 give exactly "
              f"n-1 residuals", elapsed)


def test_criterion_8_algebraic_law_suites():
    rng = random.Random(8)
    t0 = time.monotonic()
    cases = 200

    for _ in range(cases):
        a = rand_operator(rng, rng.randint(1, 3), density=0.5)
        assert a.transpose().transpose() == a

    for _ in range(cases):
        a = rand_operator(rng, rng.randint(1, 2), density=0.5)
        b = rand_operator(rng, rng.randint(1, 2), density=0.5)
        assert a.compose(b).transpose() == b.transpose().compose(a.transpose())

    for _ in range(cases):
        a = rand_operator(rng, rng.randint(1, 2), density=0.4)
        b = rand_operator(rng, rng.randint(1, 2), density=0.4)
        c = rand_operator(rng, rng.randint(1, 2), density=0.4)
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)

    done = 0
    while done < cases:
        w0 = R.from_int(rng.randint(-3, 3))
        b = rand_operator(rng, rng.randint(1, 2), density=0.6)
        f = FirstOrderFactor.from_root(w0, R.ZERO)
        product = f.as_operator().compose(b)
        if product.order != b.order + 1:
            continue
        pc = list(char_poly(product).coeffs)
        qc = list(char_poly(b).coeffs)
        want = [qc[0]]
        for i in range(1, len(qc)):
            want.append(qc[i] - w0 * qc[i - 1])
        want.append(-w0 * qc[-1])
        assert pc == want
        done += 1

    for _ in range(cases):
        a = rand_ratexpr(rng, 1)
        b = rand_ratexpr(rng, 1)
        c = rand_ratexpr(rng, 1)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + (-a)).is_zero()
        if not a.is_zero():
            assert (a * a.inverse()).is_one()
        for v in ("x", "y"):
            assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)

    elapsed = time.monotonic() - t0
    report(8, f"law suites x{cases}: transpose, associativity, symbol "
              f"multiplicativity, field/Leibniz", elapsed)


def test_criterion_9_elliptic_extension():
    t0 = time.monotonic()
    op = parse("Dx^2 + Dy^2")
    out = factor_left(op)
    elapsed = time.monotonic() - t0
    assert out.status is OutcomeStatus.FACTORED
    i = R.sqrt_int(-1)
    assert out.factor.as_operator() == LPDO({(1, 0): ONE, (0, 1): i})
    assert out.cofactor == LPDO({(1, 0): ONE, (0, 1): -i})
    assert -1 in out.root.extensions
    assert elapsed < 0.1
    report(9, "elliptic operator factors over Q(sqrt(-1))", elapsed)
