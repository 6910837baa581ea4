"""Command-line behavior: subcommands, exit codes, stdin, formats."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lpdo.cli
from lpdo import factorize, parse
from lpdo.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


A1 = "Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2-x^2)/4 + 1"
A_PARAM = "Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2-x^2)/4 + a"
C4 = ("Dx^2 - Dy^2 + a10*Dx + a01*Dy"
      " + (2*(a10_x + a10_y + a01_x + a01_y) + a10^2 - a01^2)/4")


def test_main_called_again_prints_what_a_fresh_parser_prints(capsys):
    # the parser is built on the first call and reused
    runs = [["factor", A1], ["factor", "--side", "right", A1], ["charpoly", "Dx^2 - Dy^2"],
            ["factor", "--format", "structured", A1], ["verify", "Dx", "Dy", "Dx*Dy"],
            ["factor", "--bogus"], ["transpose", "x*Dx"]]
    fresh = []
    for argv in runs:
        lpdo.cli._parser.cache_clear()
        fresh.append(run(capsys, argv))
    again = [run(capsys, argv) for argv in runs + runs]
    assert again == fresh + fresh
    assert lpdo.cli._parser.cache_info().misses == 1


class TestFactor:
    def test_factored_exit_zero(self, capsys):
        code, out, _ = run(capsys, ["factor", "--side", "left", A1])
        assert code == 0
        assert "status: factored" in out
        assert "factor: Dx + Dy + (-x + y)/2" in out
        assert "cofactor: Dx - Dy + (x + y)/2" in out

    def test_a_large_prime_coefficient_is_proven_and_factored(self, capsys):
        code, out, _ = run(capsys, ["factor", "Dx^2 - 2305843009213693951*Dy^2"])
        assert code == 0
        assert "factor: Dx + sqrt(2305843009213693951)*Dy" in out

    @pytest.mark.parametrize("order", [2, 3])
    def test_an_unfactorable_integer_is_an_error_not_a_hang(self, capsys, order):
        # 10^39 + 7 keeps two prime factors above the trial-division bound
        start = time.perf_counter()
        code, _, err = run(capsys, [
            "factor", f"Dx^{order} - 1000000000000000000000000000000000000007*Dy^{order}"])
        assert code == 1 and err.startswith("error: cannot factor the integer")
        assert time.perf_counter() - start < 2

    def test_conditions_fail_exit_two_with_both_roots(self, capsys):
        code, out, _ = run(capsys, ["factor", "--params", "a", A_PARAM])
        assert code == 2
        assert "residuals: a - 1" in out
        assert "residuals: a + 1" in out

    def test_degenerate_exit_three(self, capsys):
        code, out, _ = run(capsys, ["factor", "Dx^2 + x*Dx"])
        assert code == 3
        assert "riccati" in out

    def test_degenerate_completion(self, capsys):
        code, out, _ = run(capsys, ["factor", "Dx^2 + x*Dx", "--p3", "x"])
        assert code == 0
        assert "factor: Dx + x" in out
        assert "cofactor: Dx" in out

    def test_a_finite_root_without_a_pure_dx_term_is_not_normalized(self, capsys):
        code, out, _ = run(capsys, ["factor", "Dx^2*Dy + x*Dx*Dy", "--root", "0"])
        assert code == 3
        assert "constraint: -x*psi + psi^2 + psi_x - 1 = 0" in out
        assert "normalization:" not in out
        code, out, _ = run(capsys, ["factor", "Dx^2*Dy + x*Dx*Dy", "--root", "0", "--p3", "x"])
        assert code == 0 and "factor: Dx + x" in out

    def test_unsupported_root_exit_four(self, capsys):
        # characteristic polynomial w^2 - x has no supported root
        code, out, _ = run(capsys, ["factor", "Dx^2 - x*Dy^2"])
        assert code == 4
        assert "unresolved" in out

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, ["factor", "Dx +"])
        assert code == 1
        assert "parse error" in err

    def test_deep_nesting_exit_one(self, capsys):
        code, _, err = run(capsys, ["factor", "(" * 3000 + "Dx^2" + ")" * 3000])
        assert code == 1
        assert "parse error" in err

    @pytest.mark.parametrize("text", ["Dx^2 + (x+y)^101", "Dx^2 + (x^3)^67",
                                      "Dx^2 + x^100*x^100*y"])
    def test_oversized_power_exit_one(self, capsys, text):
        code, _, err = run(capsys, ["factor", text])
        assert code == 1
        assert "parse error" in err

    def test_term_count_above_the_bound_exit_one(self, capsys):
        code, _, err = run(capsys, ["factor", "Dx^2 + (x+y+a+b)^32", "--params", "a,b"])
        assert code == 1
        assert "parse error" in err and "6545 terms" in err

    def test_unknown_functions_declared_by_their_jets(self, capsys):
        # criterion 4: a10 and a01 are unknown functions, a00 holds their jets
        params = "a10,a01,a10_x,a10_y,a01_x,a01_y"
        code, out, err = run(capsys, ["factor", C4, "--root", "-1", "--params", params])
        assert code == 0, out + err
        (factor,) = [line.split(": ", 1)[1] for line in out.splitlines()
                     if line.startswith("factor: ")]
        jets = set(params.split(","))
        assert parse(factor, jets) == parse("Dx + Dy + (a10 - a01)/2", jets)

    def test_nested_radical_root_exit_four(self, capsys):
        # the roots are ±sqrt(1+sqrt(2)), which no multiquadratic field holds
        code, out, err = run(capsys, ["factor", "Dx^2 - (1+sqrt(2))*Dy^2 + i*Dx"])
        assert code == 4
        assert "status: unsupported_root" in out
        assert not err

    def test_right_side(self, capsys):
        code, out, _ = run(capsys, ["factor", "--side", "right", A1])
        assert code == 0
        assert "factor: Dx - Dy + (x + y)/2" in out

    def test_explicit_root_expression(self, capsys):
        code, out, _ = run(capsys, ["factor", "--root", "1", "--params", "a",
                                    A_PARAM])
        assert code == 2
        assert "residuals: a + 1" in out

    def test_root_expression_string(self, capsys):
        code, out, _ = run(capsys, ["factor", "--root", "-1", A1])
        # -1 parses as an index is impossible (negative), so it is a root value
        assert code == 0

    def test_recursive(self, capsys):
        code, out, _ = run(capsys, ["factor", "--recursive",
                                    "(Dx+1)*(Dx+1)*(Dx+x*Dy)"])
        assert code == 0
        assert "first-order leaf" in out

    @pytest.mark.parametrize("fmt, tree", [
        ("plain", "operator: Dx^2 + y*Dx + 1\n"
                  "  root 0 (multiplicity 2): degenerate\n"
                  "    riccati constraint: -y*psi + psi^2 + psi_x + 1 = 0\n"),
        ("latex", "operator: \\partial_x^{2} + y\\partial_x + 1\n"
                  "  root 0 (multiplicity 2): degenerate\n"
                  "    riccati constraint: -y psi + psi^2 + psi_x + 1 = 0\n")])
    def test_recursive_prints_the_riccati_constraint_of_a_degenerate_branch(
            self, capsys, fmt, tree):
        code, out, _ = run(capsys, ["factor", "--recursive", "--format", fmt,
                                    "Dx^2 + y*Dx + 1"])
        assert (code, out) == (3, tree)

    @pytest.mark.parametrize("flags, named", [
        (["--side", "right"], "--side right"), (["--root", "0"], "--root"),
        (["--root", "-1"], "--root"), (["--p3", "x"], "--p3"),
        (["--format", "structured"], "--format structured")])
    def test_recursive_refuses_what_it_would_ignore(self, capsys, flags, named):
        code, out, err = run(capsys, ["factor", "--recursive", *flags, "(Dx+1)*(Dx+Dy)"])
        assert (code, out) == (1, "")
        assert err == f"error: --recursive cannot be combined with {named}\n"

    def test_recursive_takes_the_left_side_and_latex(self, capsys):
        code, out, _ = run(capsys, ["factor", "--recursive", "--side", "left",
                                    "--format", "latex", "(Dx+1)*(Dx+Dy)"])
        assert code == 0
        assert out.startswith(r"operator: \partial_x^{2}")

    def test_latex_constraints_are_latex(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "latex", "Dx^2 + x*Dx"])
        assert code == 3
        assert "  constraint: -x psi + psi^2 + psi_x - 1 = 0\n" in out
        assert "  necessary precondition: 0 = 0\n" in out

    @pytest.mark.parametrize("text, constraint", [
        ("Dx^3 + Dx^2 + x^10",
         "-x^{10} + psi^3 - psi^2 + 3 psi psi_x - psi_x + psi_{xx} = 0"),
        ("Dx^2 + Dx + x^12", "x^{12} + psi^2 - psi + psi_x = 0")])
    def test_latex_braces_long_exponents_and_subscripts(self, capsys, text, constraint):
        code, out, _ = run(capsys, ["factor", "--format", "latex", text])
        assert code == 3
        assert f"  constraint: {constraint}\n" in out

    def test_recursive_latex_residuals_are_latex(self, capsys):
        code, out, _ = run(capsys, ["factor", "--recursive", "--format", "latex",
                                    "(Dx+1)*(Dx+1)*(Dx+x*Dy)"])
        assert code == 0
        assert r"    residuals: \frac{-2 x - 6}{x}; \frac{2 x^2 + 12 x + 24}{x^3}" in out
        assert r"        residuals: \frac{x + 2}{x^2}" in out
        assert "*" not in out

    def test_latex_roots_and_extensions_are_latex(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "latex", "Dx^2 - 2*Dy^2"])
        assert code == 0
        assert "root: -\\sqrt{2} (multiplicity 1)\nextensions adjoined: \\sqrt{2}\n" in out
        assert "sqrt(" not in out

    def test_recursive_latex_roots_are_latex(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "latex", "--recursive",
                                    "Dx^2 - 2*Dy^2"])
        assert code == 0
        assert "  root -\\sqrt{2} (multiplicity 1): factored\n" in out
        assert "  root \\sqrt{2} (multiplicity 1): factored\n" in out
        assert "sqrt(" not in out

    def test_latex_unresolved_factor_is_latex(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "latex", "Dx^3 - sqrt(2)*x*Dy^3"])
        assert code == 4
        assert out.endswith("unresolved characteristic factor: 1, 0, 0, -\\sqrt{2} x\n")

    def test_charpoly_latex_roots_are_latex(self, capsys):
        code, out, _ = run(capsys, ["charpoly", "--format", "latex", "Dx^2 - 2*Dy^2"])
        assert code == 0
        assert "root: -\\sqrt{2} (multiplicity 1)\nroot: \\sqrt{2} (multiplicity 1)\n" in out

    def test_a_radical_root_value_reports_its_extension(self, capsys):
        code, out, _ = run(capsys, ["factor", "--root", "sqrt(2)", "Dx^2 - 2*Dy^2"])
        assert code == 0
        assert "root: sqrt(2) (multiplicity 1)\nextensions adjoined: sqrt(2)\n" in out

    @pytest.mark.parametrize("fmt, line", [("plain", "factor: Dx + Dy - x^2 + y"),
                                           ("latex", r"factor: \partial_x + \partial_y - x^2 + y")])
    def test_an_order_zero_sum_with_a_leading_minus_is_spliced_in(self, capsys, fmt, line):
        code, out, _ = run(capsys, ["factor", "--format", fmt, "(Dx + Dy - x^2 + y)*(Dx - Dy)"])
        assert code == 0
        assert line + "\n" in out
        assert "+ -" not in out

    def test_recursive_splices_an_order_zero_sum(self, capsys):
        code, out, _ = run(capsys, ["factor", "--recursive", "(Dx + 1 - x)*(Dx+Dy)"])
        assert code == 0
        assert "    factor: Dx - x + 1\n" in out
        assert "operator: Dx^2 + Dx*Dy + (-x + 1)*Dx + (-x + 1)*Dy\n" in out

    @pytest.mark.parametrize("fmt", ["plain", "latex"])
    def test_the_adjoined_i_prints_as_its_value(self, capsys, fmt):
        code, out, _ = run(capsys, ["factor", "--format", fmt, "Dx^2 + Dy^2"])
        assert code == 0
        assert "root: -i (multiplicity 1)\nextensions adjoined: i\n" in out
        assert "sqrt" not in out

    def test_structured_extensions_stay_ints(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "structured", "Dx^2 + Dy^2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["extensions"] == [-1] and doc["root"]["extensions"] == [-1]
        assert doc["normalization"] is None

    def test_structured_normalization_at_infinity(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "structured", "Dy^2 + y*Dy"])
        assert code == 3
        (doc,) = json.loads(out)
        assert doc["normalization"] == {"matrix": [["0", "1"], ["1", "0"]]}
        code, out, _ = run(capsys, ["factor", "Dy^2 + y*Dy"])
        assert "normalization: [['0', '1'], ['1', '0']]\n" in out

    def test_structured_unsupported_root(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "structured", "Dx^3 - 2*Dy^3"])
        assert code == 4
        doc = json.loads(out)
        assert doc["root"] is None and doc["unresolved"] == ["1", "0", "0", "-2"]

    def test_a_constant_root_beside_a_nonconstant_one(self, capsys):
        # P = (w + 2)^2 (w - x): -2 is degenerate, x fails its conditions
        text = "(Dx + 2*Dy - 1)*(Dx + 2*Dy + 1)*(Dx - x*Dy)"
        code, out, _ = run(capsys, ["factor", text])
        assert code == 3
        assert "root: -2 (multiplicity 2)" in out and "root: x (multiplicity 1)" in out
        code, out, _ = run(capsys, ["factor", "--recursive", text])
        assert code == 0
        assert [line.strip() for line in out.splitlines() if "factor:" in line] == [
            "factor: Dx + 2*Dy - 1", "factor: Dx + 2*Dy + 1"]
        assert "operator: Dx - x*Dy\n" in out

    def test_recursive_keeps_the_roots_the_parent_split(self, capsys):
        text = "(Dx - sqrt(2)*Dy)*(Dx + sqrt(2)*Dy)*(Dx - a*Dy)*(Dx - 1/2*Dy)"
        code, out, _ = run(capsys, ["factor", "--recursive", "--params", "a", text])
        assert code == 0
        assert "unsupported_root" not in out
        assert out.count("(first-order leaf)") == 24

    def test_structured_format(self, capsys):
        code, out, _ = run(capsys, ["factor", "--format", "structured", A1])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "factored"

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(A1))
        code, out, _ = run(capsys, ["factor"])
        assert code == 0

    def test_p3_without_root_reports_the_run_with_p3(self, capsys):
        code, out, _ = run(capsys, ["factor", "Dx^2 + x*Dx", "--p3", "y"])
        assert code == 2
        assert "status: conditions_fail" in out
        assert "status: degenerate" not in out

    def test_every_root_reported_without_a_second_run(self, capsys, monkeypatch):
        calls = []
        for owner in (factorize, lpdo.cli):
            monkeypatch.setattr(owner, "factor_all_roots",
                                lambda *args, **kwargs: calls.append(args),
                                raising=False)
        code, out, _ = run(capsys, ["factor", "--params", "a", A_PARAM])
        assert code == 2
        assert "residuals: a - 1" in out
        assert "residuals: a + 1" in out
        assert calls == []

    def test_nonconstant_root_after_swap(self, capsys):
        code, out, err = run(capsys, ["factor", "Dx*Dy + x*Dy^2"])
        assert code == 0, err
        assert "factor: Dx + x*Dy" in out
        assert "cofactor: Dy" in out


class TestOtherCommands:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, ["compose", "Dx+1", "Dx+1", "Dx+x*Dy"])
        assert code == 0
        assert out.strip() == \
            "Dx^3 + x*Dx^2*Dy + 2*Dx^2 + (2*x + 2)*Dx*Dy + Dx + (x + 2)*Dy"

    def test_transpose(self, capsys):
        code, out, _ = run(capsys, ["transpose", "Dx + 1"])
        assert code == 0
        assert out.strip() == "-Dx + 1"

    def test_transpose_structured(self, capsys):
        code, out, _ = run(capsys, ["transpose", "--format", "structured", "x*Dx + 1"])
        assert code == 0
        assert json.loads(out) == {
            "order": 1, "coeffs": [{"j": 1, "k": 0, "num": "-x", "den": "1"}]}

    def test_verify_ok(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "Dx+Dy+(y-x)/2", "Dx-Dy+(y+x)/2", A1])
        assert code == 0
        assert "ok" in out

    def test_verify_mismatch(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "Dx+Dy", "Dx-Dy+(y+x)/2", A1])
        assert code == 2
        assert "mismatch" in out

    def test_charpoly(self, capsys):
        code, out, _ = run(capsys, ["charpoly", A1])
        assert code == 0
        assert "P(w) = w^2 - 1" in out
        assert "root: -1 (multiplicity 1)" in out

    def test_charpoly_latex_names_one_variable(self, capsys):
        code, out, _ = run(capsys, ["charpoly", "--format", "latex", A1])
        assert code == 0
        assert out.splitlines()[0] == r"P(\omega) = \omega^{2} - 1"

    def test_charpoly_latex_renders_function_coefficients(self, capsys):
        code, out, _ = run(capsys, ["charpoly", "--format", "latex",
                                    "x*Dx^2 + (x+y)*Dx*Dy - Dy^2"])
        assert code == 0
        assert out.splitlines()[0] == \
            r"P(\omega) = x\omega^{2} + \left(x + y\right)\omega - 1"

    @pytest.mark.parametrize("fmt, line", [("plain", "P(w) = w^2 - x + 1"),
                                           ("latex", r"P(\omega) = \omega^{2} - x + 1")])
    def test_charpoly_splices_an_order_zero_sum(self, capsys, fmt, line):
        code, out, _ = run(capsys, ["charpoly", "--format", fmt, "Dx^2 + (1-x)*Dy^2"])
        assert code == 0
        assert out.splitlines()[0] == line

    def test_a_lone_fraction_coefficient_is_not_grouped_in_latex(self, capsys):
        code, out, _ = run(capsys, ["compose", "--format", "latex", "(y - x^2)/(x+1)*Dx + 1/y"])
        assert code == 0
        assert out.strip() == r"\frac{-x^2 + y}{x + 1}\partial_x + \frac{1}{y}"

    def test_charpoly_a_constant_root_beside_a_nonconstant_one(self, capsys):
        code, out, _ = run(capsys, ["charpoly", "(Dx + 2*Dy)*(Dx - x*Dy)*(Dx - 3*Dy)"])
        assert code == 0
        assert out.splitlines()[1:] == [
            "root: -2 (multiplicity 1)", "root: 3 (multiplicity 1)", "root: x (multiplicity 1)"]

    def test_charpoly_structured(self, capsys):
        code, out, _ = run(capsys, ["charpoly", "--format", "structured",
                                    "Dx*Dy"])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert any(r["at_infinity"] for r in doc["roots"])

    def test_usage_error(self, capsys):
        assert main(["factor", "--side", "sideways", "Dx^2"]) == 1

    def test_exit_code_is_function_of_status(self, capsys):
        # same status, different operators -> same exit code
        for op, expected in [
            ("Dx^2 - Dy^2", 0),
            ("Dx^2 + Dy^2", 0),
            ("Dx^2 + x*Dx", 3),
            ("Dx^2", 3),
        ]:
            code, _, _ = run(capsys, ["factor", op])
            assert code == expected


# a numerator that holds symbols the denominator lacks (an unknown's jets,
# a parameter and the Riccati template's constants) against a denominator
# in x and y: the gcd takes the content in those symbols first
UNKNOWN_PRODUCT = ("Dx + x/(y+1)*Dy + sqrt(2)*u", "Dx^2 + sqrt(2)/(x+y)*Dx*Dy + x*u")
FORMER_HANGS = [
    (["factor", "--params", "u,u_x", "(%s)*(%s)" % UNKNOWN_PRODUCT],
     ["factor: Dx + x/(y + 1)*Dy + sqrt(2)*u"]),
    (["factor", "--side", "right", "--params", "u,u_x", "(%s)*(%s)" % UNKNOWN_PRODUCT[::-1]],
     ["side: right", "factor: Dx + x/(y + 1)*Dy + sqrt(2)*u"]),
    (["factor", "--recursive", "--params", "a",
      "(Dy + 1)*(Dx - sqrt(2)*Dy + 1/(x+1))*(Dx - (x+1)*Dy + a)*(Dy - 1)"],
     ["(first-order leaf)"] * 6),
]


@pytest.mark.parametrize("argv, lines", FORMER_HANGS, ids=["left", "right", "riccati"])
def test_a_foreign_symbol_in_a_gcd_is_not_a_hang(argv, lines):
    # each run took more than 10 s before; a fresh process, so a hang fails
    src = str(Path(lpdo.__file__).resolve().parents[1])
    code = "import sys; from lpdo.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=10)
    assert done.returncode == 0, done.stderr
    got = [line.strip() for line in done.stdout.splitlines()]
    assert all(got.count(line) >= lines.count(line) for line in lines)


def test_python_m_lpdo_runs_the_command_line():
    # from a plain checkout: src on PYTHONPATH, no install
    src = str(Path(lpdo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "lpdo", "factor", "Dx^2 - Dy^2"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=30)
    assert done.returncode == 0, done.stderr
    assert "status: factored" in done.stdout
