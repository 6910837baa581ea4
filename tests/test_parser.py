"""Grammar, normalization through compose, and error positions."""

import pytest

from lpdo.expr import RatExpr
from lpdo.operator import LPDO
from lpdo.parser import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    ParseError,
    parse,
    parse_function,
)
from lpdo.printer import operator_str

from conftest import rand_operator

R = RatExpr
X, Y = R.X, R.Y
ONE = R.ONE


class TestGrammar:
    def test_triple_composite(self):
        got = parse("(Dx+1)*(Dx+1)*(Dx+x*Dy)")
        two = R.from_int(2)
        assert got == LPDO({
            (3, 0): ONE, (2, 1): X, (2, 0): two,
            (1, 1): two * X + two, (1, 0): ONE, (0, 1): X + two,
        })

    def test_cross_term_operator_with_parameters(self):
        got = parse("Dx*Dy + (a/(x+y))*Dx + (b/(x+y))*Dy + g/(x+y)^2",
                    {"a", "b", "g"})
        s = X + Y
        a, b, g = R.symbol("a"), R.symbol("b"), R.symbol("g")
        assert got == LPDO({(1, 1): ONE, (1, 0): a / s, (0, 1): b / s,
                            (0, 0): g / (s * s)})

    def test_commutator_collapses(self):
        assert parse("Dx*x - x*Dx") == LPDO.function(ONE)

    def test_y_derivative_commutes_with_x(self):
        assert parse("Dy*x") == parse("x*Dy")

    def test_x_derivative_does_not_commute(self):
        assert parse("Dx*x") == parse("x*Dx + 1")

    def test_powers(self):
        assert parse("Dx^3") == LPDO.monomial(3, 0)
        assert parse("(Dx+1)^2") == parse("Dx^2 + 2*Dx + 1")
        assert parse("x^2*y^3") == LPDO.function(X ** 2 * Y ** 3)

    def test_rationals_and_radicals(self):
        assert parse("1/2") == LPDO.function(R.from_fraction("1/2"))
        assert parse("sqrt(2)*sqrt(2)") == LPDO.function(R.from_int(2))
        assert parse("sqrt(8)") == LPDO.function(R.from_int(2) * R.sqrt_int(2))
        assert parse("i*i") == LPDO.function(-ONE)
        assert parse("sqrt(-1)") == parse("i")

    def test_unary_minus(self):
        assert parse("-Dx + 1") == LPDO({(1, 0): -ONE, (0, 0): ONE})
        assert parse("2 - -3") == LPDO.function(R.from_int(5))

    def test_unicode_aliases(self):
        a = parse("Dx^2−Dy^2")
        b = parse("∂x^2 - ∂y^2")
        assert a == b == parse("Dx^2 - Dy^2")

    def test_division_by_operator_rejected(self):
        with pytest.raises(ParseError):
            parse("Dx / Dy")

    def test_division_by_zero_function(self):
        with pytest.raises(ParseError):
            parse("1 / (x - x)")

    def test_stdin_style_whitespace(self):
        assert parse(" Dx \n + 1 ") == parse("Dx+1")


class TestErrors:
    def test_unknown_symbol_position(self):
        with pytest.raises(ParseError) as err:
            parse("Dx + qq*Dy")
        assert err.value.line == 1
        assert err.value.column == 6

    @pytest.mark.parametrize("text, message, line, column", [
        ("Dx^2\n + 1\n\t+ ∂y·x − qq", "unknown symbol 'qq' (declare parameters with --params)",
         3, 11),
        ("Dx\n\t∂x − 1 )", "unexpected trailing input 'Dx'", 2, 2),
        ("Dx\r\n+\t∂y·x − 1 $", "unexpected character '$'", 2, 12),
    ])
    def test_position_on_a_later_line_counts_a_tab_and_an_alias_as_one(
            self, text, message, line, column):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line, err.value.column) == (
            f"{message} (line {line}, column {column})", line, column)

    def test_declared_parameter_accepted(self):
        assert parse("qq*Dy", {"qq"}) == LPDO({(0, 1): R.symbol("qq")})

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(Dx + 1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("Dx + 1 )")

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse("1.5*Dx")

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse("Dx^y")

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "Dx" + ")" * 3000,
        "-" * 3000 + "x",
        "(-" * 1500 + "x" + ")" * 1500,
    ])
    def test_deep_nesting_rejected(self, text):
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(text)

    def test_nesting_up_to_the_limit(self):
        depth = MAX_NESTING
        assert parse("(" * depth + "Dx" + ")" * depth) == LPDO.dx()
        assert parse("-" * (depth + 1) + "x") == -LPDO.function(X)


    def test_exponent_above_the_limit(self):
        with pytest.raises(ParseError, match="exponent 101 above 100") as e:
            parse(f"Dx + (x + y)^{MAX_EXPONENT + 1}")
        assert e.value.column == 14
        assert parse(f"x^{MAX_EXPONENT}").coeff(0, 0) == X ** MAX_EXPONENT

    @pytest.mark.parametrize("text", [
        "(x^3)^67",           # the power: 3 * 67 = 201
        "(x*y*Dx)^67",        # Dx counts too: 67 * (1 + 1 + 1)
        "x^100 * x^100 * y",  # the product: 200 + 1
        "x^100 * x^100 / y",  # the quotient: 200 + 1
    ])
    def test_degree_above_the_limit(self, text):
        assert MAX_DEGREE == 200
        with pytest.raises(ParseError, match="degree 201 above 200"):
            parse(text)

    def test_term_count_estimate_is_bounded(self):
        # a sum adds term counts and a product multiplies them: x + x + ...
        # is one term once expanded, so only the estimate can be at the bound
        terms = " + ".join(["x"] * MAX_TERMS)
        assert parse(f"({terms}) * y").coeff(0, 0) == R.from_int(MAX_TERMS) * X * Y
        with pytest.raises(ParseError, match=f"about {MAX_TERMS + 1} terms"):
            parse(f"({terms} + x) * y")

    def test_power_of_a_sum_counts_its_monomials(self):
        # (x + y + a + b)^e has C(e + 3, 3) terms: 2024 for e = 21
        assert MAX_TERMS == 2000
        with pytest.raises(ParseError, match="about 2024 terms, above 2000") as e:
            parse("Dx^2 + (x + y + a + b)^21", {"a", "b"})
        assert e.value.column == 24  # the exponent
        with pytest.raises(ParseError, match="about 6545 terms"):
            parse("Dx^2 + (x + y + a + b)^32", {"a", "b"})
        assert len(parse("(x + y + a + b)^5", {"a", "b"}).coeff(0, 0).num.terms) == 56

    def test_degree_up_to_the_limit(self):
        assert parse("x^100 * y^100").coeff(0, 0) == X ** 100 * Y ** 100
        assert parse("(x^2)^100").coeff(0, 0) == X ** 200


class TestUnknownFunctions:
    JETS = {"p", "p_x", "p_y", "p_xy"}

    def test_declared_jets_make_an_unknown_function(self):
        p = parse_function("p", self.JETS)
        assert p.diff("x") == parse_function("p_x", self.JETS)
        assert p.diff("x").diff("y") == parse_function("p_xy", self.JETS)
        # a declared jet differentiates on, like the unknown it belongs to
        p_y = parse_function("p_y", self.JETS)
        assert p_y.diff("x") == parse_function("p_xy", self.JETS)
        assert str(p_y.diff("y").diff("y")) == "p_yyy"

    def test_without_jets_a_parameter_is_constant(self):
        assert parse_function("p", {"p"}).diff("x").is_zero()
        # p_x alone is a parameter of its own, and p is not declared
        assert parse_function("p_x", {"p_x"}).diff("x").is_zero()
        assert parse_function("p", {"p", "p_z"}).diff("x").is_zero()

    def test_the_same_text_gives_the_same_operator_either_way(self):
        text = "(Dx - Dy)*(Dx + Dy + psi)"
        assert parse(text, {"psi"}) == parse("Dx^2 - Dy^2 + psi*Dx - psi*Dy", {"psi"})
        with_jets = {"psi", "psi_x", "psi_y"}
        assert parse(text, with_jets) == parse(
            "Dx^2 - Dy^2 + psi*Dx - psi*Dy + psi_x - psi_y", with_jets)


class TestRoundTrip:
    def test_plain_round_trip_random(self, rng):
        for _ in range(30):
            op = rand_operator(rng, rng.randint(1, 3))
            assert parse(operator_str(op)) == op

    def test_round_trip_with_rational_coefficients(self):
        op = parse("Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2-x^2)/4 + 1")
        assert parse(operator_str(op)) == op

    def test_round_trip_with_radicals(self):
        op = parse("Dx + (sqrt(2)*t/2)*Dy + i*x", {"t"})
        assert parse(operator_str(op), {"t"}) == op


class TestParseFunction:
    def test_plain_function(self):
        assert parse_function("(y - x)/2") == (Y - X) / R.from_int(2)

    def test_rejects_operators(self):
        with pytest.raises(ParseError):
            parse_function("Dx + 1")
