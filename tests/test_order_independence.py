"""An answer depends only on its input, never on which calls ran before it."""

import os
import subprocess
import sys
from pathlib import Path

import lpdo
from lpdo import OutcomeStatus, char_poly, factor_left, find_roots, parse
from lpdo.printer import operator_str

F3 = "Dx^2 - 2*x^2*Dy^2 - 3/(4*x^2)"
README = "Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2-x^2)/4 + 1"
PSI = "(Dx - Dy)*(Dx + Dy + psi)"


def _factor(text):
    out = factor_left(parse(text))
    return (out.status, str(out.factor), out.cofactor and operator_str(out.cofactor),
            tuple(map(str, out.residuals)), out.root.extensions if out.root else (), out.certified)


def _with_psi(text):
    op = parse(text, {"psi"})
    out = factor_left(op)
    return operator_str(op), str(out.factor), operator_str(out.cofactor)


def _roots(text):
    search = find_roots(char_poly(parse(text)))
    return (tuple((str(r.value), r.multiplicity, r.extensions) for r in search.roots),
            tuple(map(str, search.unresolved)))


SCENARIOS = [
    (_factor, F3),
    (_factor, "Dx^2 - 2*Dy^2"),
    (_factor, "Dx^2 - 2*Dy^2"),
    (_factor, "Dx^2 + Dy^2"),
    (_factor, "Dx^2 - i*Dy^2"),
    (_factor, "Dx^2 - (1+sqrt(2))*Dy^2 + i*Dx"),
    (_roots, "Dx^2 - 2*x^2*Dy^2"),
    (_factor, README),
    (_factor, "Dx^2 + x*Dx"),  # degenerate: its free p3 is named psi
    (_with_psi, PSI),
]


def test_scenarios_agree_forward_and_reversed():
    forward = [run(text) for run, text in SCENARIOS]
    backward = [run(text) for run, text in reversed(SCENARIOS)][::-1]
    assert forward == backward
    f3, first, second, _, _, nested, roots, _, degenerate, psi = forward
    assert f3[0] is OutcomeStatus.FACTORED and f3[-1]
    assert first == second and first[4] == (2,)
    assert nested[0] is OutcomeStatus.UNSUPPORTED_ROOT
    assert roots[0] == (("-sqrt(2)*x", 1, (2,)), ("sqrt(2)*x", 1, (2,)))
    assert degenerate[0] is OutcomeStatus.DEGENERATE
    assert psi == ("Dx^2 - Dy^2 + psi*Dx - psi*Dy", "Dx + Dy + psi", "Dx - Dy")


def test_f3_factors_in_a_fresh_process():
    code = ("from lpdo import factor_left, parse; "
            f"out = factor_left(parse({F3!r})); "
            "print(out.status.value, out.certified)")
    src = str(Path(lpdo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["factored", "True"]
