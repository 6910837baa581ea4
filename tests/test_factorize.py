"""The order-reduction engine: level solves, outcomes, degenerate path."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lpdo
from lpdo import factorize
from lpdo.expr import RatExpr
from lpdo.operator import LPDO, FirstOrderFactor
from lpdo.charpoly import char_poly
from lpdo.factorize import (
    CertificateError,
    DegenerateRoot,
    OutcomeStatus,
    complete_with_p3,
    degenerate_constraints,
    factor_all_roots,
    factor_fully,
    factor_left,
    factor_right,
    riccati_candidates,
    solve_p3,
    solve_top,
    verify,
)
from lpdo.parser import parse

from conftest import change_vars_by_compose, rand_operator, rand_poly

R = RatExpr
X, Y = R.X, R.Y
ONE = R.ONE
HALF = R.from_fraction(Fraction(1, 2))


def hyperbolic_family(zero_term) -> LPDO:
    q = (Y * Y - X * X) * R.from_fraction(Fraction(1, 4))
    return LPDO({(2, 0): ONE, (0, 2): -ONE, (1, 0): Y, (0, 1): X,
                 (0, 0): q + zero_term})


def cross_lead(gamma_expr) -> LPDO:
    al, be = R.symbol("alpha"), R.symbol("beta")
    s = X + Y
    return LPDO({(1, 1): ONE, (1, 0): al / s, (0, 1): be / s,
                 (0, 0): gamma_expr / (s * s)})


class TestSolveTop:
    def test_order_two(self):
        op = hyperbolic_family(ONE)
        got = solve_top(op, -ONE)
        assert got == {(1, 0): ONE, (0, 1): -ONE}

    def test_order_three_generic(self):
        a21, a12 = R.symbol("b"), R.symbol("c")
        w = R.symbol("w")
        # use a parameter as the root by constructing a matching trailing part
        op = LPDO({(3, 0): ONE, (2, 1): a21, (1, 2): a12,
                   (0, 3): -((w * ONE) ** 3 + a21 * w * w + a12 * w)})
        got = solve_top(op, w)
        assert got[(2, 0)] == ONE
        assert got[(1, 1)] == w + a21
        assert got[(0, 2)] == w * w + a21 * w + a12

    def test_level_identity_reproduced(self, rng):
        # the solved top coefficients satisfy p_{j-1,k} - w p_{j,k-1} = a_{jk}
        for _ in range(10):
            n = rng.randint(2, 4)
            w0 = R.from_int(rng.randint(-2, 2))
            b = rand_operator(rng, n - 1)
            if b.coeff(n - 1, 0).is_zero():
                continue
            a = FirstOrderFactor.from_root(w0, rand_poly(rng, 1)) \
                .as_operator().compose(b)
            if a.coeff(n, 0).is_zero():
                continue
            top = solve_top(a, w0)
            for k in range(n + 1):
                left = top.get((n - 1 - k, k), R.ZERO) - \
                    w0 * top.get((n - k, k - 1), R.ZERO)
                assert left == a.coeff(n - k, k)

    def test_rejects_non_root(self):
        with pytest.raises(ValueError):
            solve_top(hyperbolic_family(ONE), R.from_int(5))

    def test_zero_lead_at_a_root_and_a_non_root(self):
        # P(W) = W, so at w = 0 the top level is P(W) / W = 1: p_{0,1} = 1
        op = cross_lead(R.symbol("g"))
        assert solve_top(op, R.ZERO) == {(0, 1): ONE}
        with pytest.raises(ValueError, match="not a root"):
            solve_top(op, ONE)


class TestSolveP3:
    def test_known_pair_of_roots(self):
        op = hyperbolic_family(ONE)
        assert solve_p3(op, -ONE) == (Y - X) * HALF
        assert solve_p3(op, ONE) == (Y + X) * HALF

    def test_constant_coefficients(self):
        op = LPDO({(2, 0): ONE, (0, 2): -ONE})
        assert solve_p3(op, ONE).is_zero()

    def test_order_two_closed_form(self, rng):
        # same value as the displayed order-2 quotient:
        # [w a10 + a01 - w L(a20) - L(a20 w + a11)] / (2 a20 w + a11)
        for _ in range(15):
            w0 = R.from_int(rng.randint(-2, 2))
            b = rand_operator(rng, 1)
            if b.coeff(1, 0).is_zero():
                continue
            op = FirstOrderFactor.from_root(w0, rand_poly(rng, 1)) \
                .as_operator().compose(b)
            P = char_poly(op)
            if op.coeff(2, 0).is_zero() or P.derivative_at(w0).is_zero():
                continue
            a20, a11 = op.coeff(2, 0), op.coeff(1, 1)
            a10, a01 = op.coeff(1, 0), op.coeff(0, 1)

            def L(f):
                return f.diff("x") - w0 * f.diff("y")

            denom = R.from_int(2) * a20 * w0 + a11
            closed = (w0 * a10 + a01 - w0 * L(a20) - L(a20 * w0 + a11)) / denom
            assert solve_p3(op, w0) == closed

    def test_degenerate_signals(self):
        op = LPDO({(2, 0): ONE, (1, 0): X})
        with pytest.raises(DegenerateRoot):
            solve_p3(op, R.ZERO)


class TestLevelResiduals:
    def test_zero_term_family_residuals(self):
        a = R.symbol("a")
        op = hyperbolic_family(a)
        outs = factor_all_roots(op)
        by_root = {str(o.root.value): o for o in outs}
        assert str(by_root["-1"].residuals[0]) == "a - 1"
        assert str(by_root["1"].residuals[0]) == "a + 1"

    def test_order_three_emits_two_residuals(self, rng):
        count = 0
        while count < 8:
            w0 = R.from_int(rng.randint(-2, 2))
            b = rand_operator(rng, 2)
            if b.coeff(2, 0).is_zero():
                continue
            op = FirstOrderFactor.from_root(w0, rand_poly(rng, 1)) \
                .as_operator().compose(b)
            P = char_poly(op)
            if op.coeff(3, 0).is_zero() or P.derivative_at(w0).is_zero():
                continue
            out = factor_left(op, root_choice=w0)
            assert len(out.residuals) == 2
            count += 1


class TestFactorLeft:
    def test_cross_lead_specialized_first_branch(self):
        al, be = R.symbol("alpha"), R.symbol("beta")
        out = factor_left(cross_lead(al * (be - ONE)))
        assert out.status is OutcomeStatus.FACTORED
        s = X + Y
        assert out.factor.as_operator() == LPDO({(1, 0): ONE, (0, 0): be / s})
        assert out.cofactor == LPDO({(0, 1): ONE, (0, 0): al / s})

    def test_cross_lead_specialized_swapped_branch(self):
        al, be = R.symbol("alpha"), R.symbol("beta")
        out = factor_left(cross_lead(be * (al - ONE)), root_choice=1)
        assert out.status is OutcomeStatus.FACTORED
        s = X + Y
        assert out.factor.as_operator() == LPDO({(0, 1): ONE, (0, 0): al / s})
        assert out.cofactor == LPDO({(1, 0): ONE, (0, 0): be / s})

    def test_cross_lead_residual_numerators(self):
        al, be, g = R.symbol("alpha"), R.symbol("beta"), R.symbol("gamma")
        outs = factor_all_roots(cross_lead(g))
        conds = [g - al * (be - ONE), g - be * (al - ONE)]
        for out, cond in zip(outs, conds):
            assert out.status is OutcomeStatus.CONDITIONS_FAIL
            (res,) = out.residuals
            assert res.num in (cond.num, (-cond).num)

    def test_plusminus_only_at_one(self):
        out = factor_left(hyperbolic_family(ONE))
        assert out.status is OutcomeStatus.FACTORED
        assert out.factor.as_operator() == \
            LPDO({(1, 0): ONE, (0, 1): ONE, (0, 0): (Y - X) * HALF})
        assert out.cofactor == \
            LPDO({(1, 0): ONE, (0, 1): -ONE, (0, 0): (Y + X) * HALF})
        # the other root branch fails with residual 2
        other = factor_left(hyperbolic_family(ONE), root_choice=ONE)
        assert other.status is OutcomeStatus.CONDITIONS_FAIL
        assert [str(r) for r in other.residuals] == ["2"]

    def test_minusplus_only_at_minus_one(self):
        out = factor_left(hyperbolic_family(-ONE))
        assert out.status is OutcomeStatus.FACTORED
        assert out.factor.as_operator() == \
            LPDO({(1, 0): ONE, (0, 1): -ONE, (0, 0): (Y + X) * HALF})
        assert out.cofactor == \
            LPDO({(1, 0): ONE, (0, 1): ONE, (0, 0): (Y - X) * HALF})

    def test_pure_dx_square_goes_degenerate(self):
        out = factor_left(LPDO({(2, 0): ONE}))
        assert out.status is OutcomeStatus.DEGENERATE
        psi = R.unknown(out.riccati.unknown)
        assert out.riccati.constraints == (psi.diff("x") + psi * psi,)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            factor_left(LPDO.dx())

    def test_explicit_non_root_rejected(self):
        with pytest.raises(ValueError):
            factor_left(hyperbolic_family(ONE), root_choice=R.from_int(7))

    def test_explicit_non_root_expression_message(self):
        with pytest.raises(ValueError,
                           match="x is not a root of the characteristic polynomial"):
            factor_left(hyperbolic_family(ONE), root_choice=X)

    @pytest.mark.parametrize("text, value", [
        ("Dy^2 + x*Dx", "0"),   # swapped, the value moves to infinity
        ("Dx*Dy + Dy^2", "1"),  # swapped, the value stays finite
    ])
    def test_explicit_non_root_named_under_a_normalization(self, text, value):
        with pytest.raises(ValueError,
                           match=f"^{value} is not a root of the characteristic polynomial"):
            factor_left(parse(text), root_choice=R.from_int(int(value)))

    def test_explicit_double_root_reports_multiplicity_two(self):
        out = factor_left(LPDO({(2, 0): ONE}), root_choice=R.ZERO)
        assert out.root.multiplicity == 2
        assert out.status is OutcomeStatus.DEGENERATE

    def test_explicit_root_skips_root_search(self, monkeypatch):
        searched = []
        search = factorize.find_roots
        monkeypatch.setattr(factorize, "find_roots",
                            lambda p: searched.append(p) or search(p))
        by_index = factor_left(hyperbolic_family(ONE), root_choice=0)
        assert len(searched) == 1
        by_value = factor_left(hyperbolic_family(ONE), root_choice=by_index.root.value)
        assert len(searched) == 1
        assert by_value == by_index


class TestDegeneratePath:
    def test_riccati_for_second_order_lodo(self):
        a20, a10, a00 = X + ONE, X * X, X
        op = LPDO({(2, 0): a20, (1, 0): a10, (0, 0): a00})
        prob = degenerate_constraints(op, R.ZERO)
        psi = R.unknown(prob.unknown)
        dx = lambda f: f.diff("x")
        want = dx(psi) + psi * psi + \
            ((R.from_int(2) * dx(a20) - a10) / a20) * psi + \
            (a00 + dx(dx(a20)) - dx(a10)) / a20
        assert prob.constraints == (want,)
        assert prob.necessary_precondition.is_zero()

    def test_third_order_lodo_reduces_to_second_order_constraint(self):
        op = LPDO({(3, 0): ONE, (2, 0): X, (1, 0): R.from_int(2),
                   (0, 0): X * X})
        prob = degenerate_constraints(op, R.ZERO)
        (constraint,) = prob.constraints
        assert prob.unknown + "_xx" in constraint.symbols()

    def test_simple_root_rejected(self):
        with pytest.raises(ValueError):
            degenerate_constraints(hyperbolic_family(ONE), ONE)

    def test_completion_with_valid_candidate(self):
        op = LPDO({(2, 0): ONE, (1, 0): X})
        prob = degenerate_constraints(op, R.ZERO)
        psi = R.unknown(prob.unknown)
        assert prob.constraints == \
            (psi.diff("x") + psi * psi - X * psi - ONE,)
        assert all(r.is_zero() for r in prob.check(X))
        out = complete_with_p3(op, R.ZERO, X)
        assert out.status is OutcomeStatus.FACTORED
        assert out.factor.as_operator() == LPDO({(1, 0): ONE, (0, 0): X})
        assert out.cofactor == LPDO.dx()

    def test_completion_with_pole_candidate(self):
        c = R.symbol("c")
        out = complete_with_p3(LPDO({(2, 0): ONE}), R.ZERO, ONE / (X + c))
        assert out.status is OutcomeStatus.FACTORED
        assert verify(out.factor, out.cofactor, LPDO({(2, 0): ONE})).is_zero()

    def test_completion_with_bad_candidate(self):
        out = complete_with_p3(LPDO({(2, 0): ONE}), R.ZERO, X)
        assert out.status is OutcomeStatus.CONDITIONS_FAIL
        assert [str(r) for r in out.nonzero_residuals()] == ["x^2 + 1"]

    def test_precondition_failure(self):
        # parabolic principal part with an incompatible first-order part
        op = LPDO({(2, 0): ONE, (0, 1): ONE})
        out = factor_left(op)
        assert out.status is OutcomeStatus.CONDITIONS_FAIL
        assert out.residuals and not out.residuals[0].is_zero()

    def test_candidate_search_finds_constants(self):
        triple = parse("(Dx+1)*(Dx+1)*(Dx+x*Dy)")
        out = factor_left(triple, root_choice=R.ZERO)
        assert out.status is OutcomeStatus.DEGENERATE
        cands = riccati_candidates(out.riccati)
        assert ONE in cands

    def test_candidate_search_finds_linear_forms(self):
        op = LPDO({(2, 0): ONE, (1, 0): X})
        out = factor_left(op)
        assert out.status is OutcomeStatus.DEGENERATE
        assert X in riccati_candidates(out.riccati)

    def test_constraints_at_a_finite_root_are_in_the_callers_coordinates(self):
        # no pure-Dx term: the double root 0 is worked on the operator as
        # given, so its candidate is the p3 the caller passes
        op = parse("Dx^2*Dy + x*Dx*Dy")
        out = factor_left(op, root_choice=R.ZERO)
        assert out.status is OutcomeStatus.DEGENERATE and not out.root.at_infinity
        assert [str(c) for c in out.riccati.constraints] == ["-x*psi + psi^2 + psi_x - 1"]
        assert riccati_candidates(out.riccati) == [X]
        done = factor_left(op, R.ZERO, X)
        assert done.status is OutcomeStatus.FACTORED and done.certified
        assert (str(done.factor), str(done.cofactor)) == ("Dx + x", "Dx*Dy")


# the candidate lists of riccati_candidates at the root 0, as printed
_PINNED_SEARCHES = [
    ("Dx^2 - 2", ["-sqrt(2)"]),
    ("Dx^2 + 2*Dx - 2", ["(1 + sqrt(3))"]),
    ("(Dx + 1)*(Dx + 1/(x+1))", ["1"]),  # a constraint over x + 1
    ("(Dx - 1)*(Dx + a)", ["-1"]),  # an equation over a: (c3 + 1)*(c3 - a)
    ("(Dx - 1)*(Dx + a)*Dx", ["0", "-1"]),  # multiplicity 3
    ("(Dx+1)*(Dx+1)*(Dx+x*Dy)", ["1"]),
]


class TestCandidateSearchPinned:
    @staticmethod
    def _problem(text):
        out = factor_left(parse(text, {"a"}), root_choice=R.ZERO)
        assert out.status is OutcomeStatus.DEGENERATE
        return out.riccati

    @pytest.mark.parametrize("text, want", _PINNED_SEARCHES)
    def test_candidates(self, text, want):
        assert [str(c) for c in riccati_candidates(self._problem(text))] == want

    def test_constraint_over_x_plus_1(self):
        (constraint,) = self._problem("(Dx + 1)*(Dx + 1/(x+1))").constraints
        assert str(constraint.den) == "x + 1"

    @pytest.mark.parametrize("text, want", _PINNED_SEARCHES)
    def test_one_substitution_and_no_root_search(self, monkeypatch, text, want):
        problem = self._problem(text)
        calls = {"substitute": 0, "find_roots": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(R, "substitute", counted("substitute", R.substitute))
        monkeypatch.setattr(factorize, "find_roots", counted("find_roots", factorize.find_roots))
        monkeypatch.setattr(lpdo.charpoly, "find_roots",
                            counted("find_roots", lpdo.charpoly.find_roots))
        riccati_candidates(problem)
        # the template is put into each constraint once, the one substitution
        # of a one-constraint problem; the rest is evaluation
        assert calls == {"substitute": len(problem.constraints), "find_roots": 0}


class TestFactorRight:
    def test_right_factor_of_plus_family(self):
        out = factor_right(hyperbolic_family(ONE))
        assert out.status is OutcomeStatus.FACTORED
        assert out.factor.as_operator() == \
            LPDO({(1, 0): ONE, (0, 1): -ONE, (0, 0): (Y + X) * HALF})
        assert verify(out.factor, out.cofactor, hyperbolic_family(ONE),
                      side="right").is_zero()

    def test_right_factor_of_minus_family(self):
        out = factor_right(hyperbolic_family(-ONE))
        assert out.status is OutcomeStatus.FACTORED
        assert out.factor.as_operator() == \
            LPDO({(1, 0): ONE, (0, 1): ONE, (0, 0): (Y - X) * HALF})

    def test_duality_with_left(self, rng):
        for _ in range(8):
            w0 = R.from_int(rng.randint(-2, 2))
            b = rand_operator(rng, 1)
            if b.coeff(1, 0).is_zero():
                continue
            f = FirstOrderFactor.from_root(w0, rand_poly(rng, 1))
            a = f.as_operator().compose(b)
            if a.coeff(2, 0).is_zero():
                continue
            out = factor_right(a.transpose())
            if out.status is OutcomeStatus.FACTORED:
                assert verify(out.factor, out.cofactor, a.transpose(),
                              side="right").is_zero()


class TestVerify:
    def test_certifies_known_identity(self):
        f = FirstOrderFactor(ONE, ONE, (Y - X) * HALF)
        cof = LPDO({(1, 0): ONE, (0, 1): -ONE, (0, 0): (Y + X) * HALF})
        assert verify(f, cof, hyperbolic_family(ONE)).is_zero()

    def test_triple_product_regrouping(self):
        lhs = parse("(Dx+1)*(Dx+1)*(Dx+x*Dy)")
        rhs = parse("(Dx^2 + x*Dx*Dy + Dx + (2+x)*Dy)*(Dx+1)")
        assert (lhs - rhs).is_zero()

    def test_perturbation_detected(self):
        f = FirstOrderFactor(ONE, ONE, (Y - X) * HALF + ONE)
        cof = LPDO({(1, 0): ONE, (0, 1): -ONE, (0, 0): (Y + X) * HALF})
        diff = verify(f, cof, hyperbolic_family(ONE))
        assert not diff.is_zero()
        assert diff.order == 1

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(factorize, "verify",
                            lambda *args, **kwargs: LPDO({(0, 0): ONE}))
        with pytest.raises(CertificateError):
            factor_left(hyperbolic_family(ONE))
        with pytest.raises(CertificateError):
            factor_right(hyperbolic_family(ONE))

    def test_certificate_checked_under_optimize_flag(self):
        code = (
            "import lpdo.factorize as fz\n"
            "from lpdo import LPDO, RatExpr, parse\n"
            "fz.verify = lambda *args, **kwargs: LPDO({(0, 0): RatExpr.ONE})\n"
            "try:\n"
            "    fz.factor_left(parse('(Dx + 1)*(Dx + Dy)'))\n"
            "except fz.CertificateError:\n"
            "    print('raised', __debug__)\n"
        )
        src = os.path.dirname(os.path.dirname(lpdo.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["raised", "False"]


class TestCertifiedFlag:
    def test_left_factorization_is_certified(self):
        out = factor_left(hyperbolic_family(ONE))
        assert out.status is OutcomeStatus.FACTORED
        assert out.certified

    def test_right_factorization_is_certified(self):
        out = factor_right(hyperbolic_family(ONE))
        assert out.status is OutcomeStatus.FACTORED
        assert out.certified

    def test_conditions_fail_is_not_certified(self):
        out = factor_left(hyperbolic_family(ONE), root_choice=ONE)
        assert out.status is OutcomeStatus.CONDITIONS_FAIL
        assert not out.certified
        right = factor_right(hyperbolic_family(R.from_int(5)))
        assert right.status is OutcomeStatus.CONDITIONS_FAIL
        assert not right.certified

    def test_degenerate_is_not_certified(self):
        out = factor_left(LPDO({(2, 0): ONE}))
        assert out.status is OutcomeStatus.DEGENERATE
        assert not out.certified

    def test_structured_output_carries_the_flag(self):
        from lpdo.printer import outcome_structured

        assert outcome_structured(factor_left(hyperbolic_family(ONE)))["certified"] is True
        failed = factor_left(hyperbolic_family(ONE), root_choice=ONE)
        assert outcome_structured(failed)["certified"] is False


def _normalizations(op: LPDO) -> list:
    """The root of each outcome of factor_all_roots; x and y are swapped
    exactly for "infinity"."""
    return ["infinity" if o.root.at_infinity else str(o.root.value)
            for o in factor_all_roots(op)]


class TestNormalization:
    """Exactly a root at infinity is worked with x and y swapped."""

    def test_swap_preferred(self):
        op = LPDO({(0, 2): ONE, (2, 0): R.ZERO, (0, 0): X})
        assert _normalizations(op) == ["infinity"]

    def test_swap_when_neither_pure_term(self):
        # P(W) = W: the root 0 is worked as given, only infinity is swapped
        assert _normalizations(cross_lead(R.symbol("g"))) == \
            ["0", "infinity"]

    def test_none_when_lead_present(self):
        assert _normalizations(hyperbolic_family(ONE)) == ["-1", "1"]

    def test_outcome_invariant_under_forced_shear(self):
        # factor the same operator directly and through a pre-applied shear
        shear, unshear = ((1, 2), (0, 1)), ((1, -2), (0, 1))
        op = hyperbolic_family(ONE)
        direct = factor_left(op)
        via = factor_left(change_vars_by_compose(op, shear, unshear))
        assert via.status is OutcomeStatus.FACTORED
        back_f = change_vars_by_compose(via.factor.as_operator(), unshear, shear)
        back_c = change_vars_by_compose(via.cofactor, unshear, shear)
        unit = back_f.coeff(1, 0)  # the factor's p1
        assert back_f.scale(unit.inverse()) == direct.factor.as_operator()
        assert back_c.scale(unit) == direct.cofactor


class TestNonConstantRootNormalized:
    """A root w(x, y) of an operator without a pure-Dx term is worked in the
    operator's own coordinates, with no normalization."""

    @pytest.mark.parametrize("factor, cofactor", [("Dx + x*Dy", "Dy"),
                                                  ("Dx + x*Dy + y", "Dy + x")])
    def test_dx_dy_led_operator_factors(self, factor, cofactor):
        op = parse(factor).compose(parse(cofactor))
        out = factor_left(op)
        assert out.status is OutcomeStatus.FACTORED
        assert out.certified
        assert not out.root.at_infinity
        assert out.factor.as_operator() == parse(factor)
        assert out.cofactor == parse(cofactor)

    def test_factor_fully_finds_the_planted_chain(self):
        tree = factor_fully(parse("(Dx+x)*(Dx+y*Dy)*(Dy+1)"))
        chains = {" o ".join(str(c) for c in ch) for ch in tree.chains()}
        assert "Dx + x o Dx + y*Dy o Dy + 1" in chains


class TestCharPolyReadOnce:
    def _count(self, monkeypatch):
        calls = []
        real = factorize.char_poly
        monkeypatch.setattr(factorize, "char_poly",
                            lambda op: calls.append(op) or real(op))
        return calls

    def test_factor_left_at_an_explicit_root(self, monkeypatch):
        calls = self._count(monkeypatch)
        op = parse("(Dx - 2*Dy + x)*(Dx^2 + y*Dy + 1)")
        out = factor_left(op, root_choice=R.from_int(2))
        assert out.status is OutcomeStatus.FACTORED
        assert out.root.multiplicity == 1
        assert calls == []  # root and simple: read off solve_top and P'(w)

    @pytest.mark.parametrize("text", ["Dx^2 - 2*Dy^2", "(Dx - sqrt(2)*Dy)*(Dx + Dy + x)"])
    def test_a_radical_root_value_carries_the_extensions_the_search_gives(
            self, monkeypatch, text):
        # Root.extensions: the radicals of the value that P's coefficients lack
        op, s2 = parse(text), R.sqrt_int(2)
        (searched,) = [out for out in factor_all_roots(op) if out.root.value == s2]
        calls = self._count(monkeypatch)
        out = factor_left(op, root_choice=s2)
        assert out.status is OutcomeStatus.FACTORED
        assert out.root == searched.root
        assert out.root.extensions == ((2,) if text.startswith("Dx^2") else ())
        assert len(calls) == 1

    def test_level_solves_do_not_read_it(self, monkeypatch):
        calls = self._count(monkeypatch)
        op = hyperbolic_family(ONE)
        assert solve_p3(op, -ONE) == (Y - X) * HALF
        with pytest.raises(ValueError, match="not a root"):
            solve_top(op, R.from_int(5))
        lodo = LPDO({(2, 0): ONE, (1, 0): X})
        with pytest.raises(DegenerateRoot):
            solve_p3(lodo, R.ZERO)
        assert calls == []

    def test_top_level_gives_the_derivative_at_the_root(self, rng):
        # P(W) = (W - w) q(W) with q's coefficients from solve_top, so q(w) = P'(w)
        checked = 0
        while checked < 10:
            n = rng.randint(2, 4)
            w = rand_poly(rng, 1)
            b = rand_operator(rng, n - 1)
            a = FirstOrderFactor.from_root(w, rand_poly(rng, 1)).as_operator().compose(b)
            if a.order != n or a.coeff(n, 0).is_zero():
                continue
            state = factorize.LevelState(a, w, None)
            assert {jk: state.reduce(v) for jk, v in state.solved.items()} == solve_top(a, w)
            assert state.at_root
            assert state.reduce(state.dp) == char_poly(a).derivative_at(w)
            checked += 1


class TestFactorFully:
    def test_triple_product_both_groupings(self):
        triple = parse("(Dx+1)*(Dx+1)*(Dx+x*Dy)")
        tree = factor_fully(triple)
        chains = tree.chains()
        assert len(chains) == 1
        assert [str(c) for c in chains[0]] == ["Dx + 1", "Dx + 1", "Dx + x*Dy"]
        # the regrouped form with a first-order right factor is reachable
        # through the transpose: its degenerate root completes with p3 = -1
        rc = factor_right(triple, root_choice=R.ZERO)
        assert rc.status is OutcomeStatus.DEGENERATE
        assert -ONE in riccati_candidates(rc.riccati)
        done = factor_right(triple, root_choice=R.ZERO, p3=-ONE)
        assert done.status is OutcomeStatus.FACTORED
        assert str(done.factor.as_operator()) == "Dx + 1"
        assert str(done.cofactor) == "Dx^2 + x*Dx*Dy + Dx + (x + 2)*Dy"

    def test_wave_operator_both_orders(self):
        tree = factor_fully(parse("Dx^2 - Dy^2"))
        chains = {" o ".join(str(c) for c in ch) for ch in tree.chains()}
        assert chains == {"Dx + Dy o Dx - Dy", "Dx - Dy o Dx + Dy"}

    def test_riccati_candidate_under_a_normalization(self):
        # Dy^2 + y*Dy = (Dy + y) o Dy: the double root works in swapped
        # coordinates, where the candidate p3 = x is this operator's y
        tree = factor_fully(parse("Dy^2 + y*Dy"))
        assert ["Dy + y", "Dy"] in [[str(c) for c in ch] for ch in tree.chains()]

    def test_cross_lead_chain_of_two(self):
        al, be = R.symbol("alpha"), R.symbol("beta")
        tree = factor_fully(cross_lead(al * (be - ONE)))
        assert any(len(ch) == 2 for ch in tree.chains())


FOUR_ROOTS = "(Dx+1)*(Dx+2)*(Dx+3)*(Dx+Dy)"
FIVE_ROOTS = "(Dx+Dy)*(Dx-Dy)*(Dx+2*Dy)*(Dx-2*Dy)*(Dx+3*Dy)"


def _nodes(tree):
    """Every node of a factorization tree, each time it is reached."""
    yield tree
    for _, subtree in tree.branches:
        if subtree is not None:
            yield from _nodes(subtree)


class TestOneRootSearch:
    """factor_fully searches the roots once; a cofactor's are its parent's."""

    def _count(self, monkeypatch, name):
        calls = []
        real = getattr(factorize, name)
        monkeypatch.setattr(factorize, name, lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("text", [FOUR_ROOTS, FIVE_ROOTS])
    def test_one_search_per_call(self, monkeypatch, text):
        # a search at every node would take 6 and 86
        searches = self._count(monkeypatch, "find_roots")
        op = parse(text)
        first = factor_fully(op)
        assert len(searches) == 1
        assert factor_fully(op) == first and len(searches) == 2

    def test_each_distinct_cofactor_is_walked_once(self, monkeypatch):
        attempts = self._count(monkeypatch, "_attempt")
        tree = factor_fully(parse(FIVE_ROOTS))
        assert len(attempts) <= 75  # 205 if every node reached were walked
        assert len(tree.chains()) == 120
        by_operator = {}
        for node in _nodes(tree):
            by_operator.setdefault(node.operator, set()).add(id(node))
        assert all(len(ids) == 1 for ids in by_operator.values())
        assert len(by_operator) == 31  # of 206 nodes reached

    def test_a_cofactor_keeps_the_roots_its_parent_split(self):
        # a fresh search of each cofactor leaves 3 branches unresolved
        # and finds 6 of the 24 chains
        text = "(Dx - sqrt(2)*Dy)*(Dx + sqrt(2)*Dy)*(Dx - a*Dy)*(Dx - 1/2*Dy)"
        tree = factor_fully(parse(text, {"a"}))
        assert all(out.status is not OutcomeStatus.UNSUPPORTED_ROOT
                   for node in _nodes(tree) for out, _ in node.branches)
        assert len(tree.chains()) == 24


class TestRoundTrip:
    def test_exact_recovery(self, rng):
        done = 0
        while done < 12:
            n = rng.randint(2, 4)
            w0 = R.from_fraction(Fraction(rng.randint(-3, 3),
                                          rng.choice([1, 1, 2])))
            b = rand_operator(rng, n - 1, max_deg=2)
            if b.coeff(n - 1, 0).is_zero():
                continue
            f = FirstOrderFactor.from_root(w0, rand_poly(rng, 1))
            a = f.as_operator().compose(b)
            P = char_poly(a)
            if a.order != n or not P.eval_at(w0).is_zero() \
                    or P.derivative_at(w0).is_zero():
                continue
            out = factor_left(a, root_choice=w0)
            assert out.status is OutcomeStatus.FACTORED
            assert out.factor.as_operator() == f.as_operator()
            assert out.cofactor == b
            assert len(out.residuals) == n - 1
            assert all(r.is_zero() for r in out.residuals)
            done += 1
