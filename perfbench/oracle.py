"""An independent check of factorizations with sympy (benchmark checks only;
lpdo itself does not depend on it).

composes_to(A, [F1, F2, ...]) applies F1(F2(...(u))) and A(u) to an
undefined function u(x, y) and requires every coefficient of every
derivative of u in their difference to simplify to zero.
"""

from __future__ import annotations

import sympy

X, Y = sympy.symbols("x y")
U = sympy.Function("u")(X, Y)


def _const(c) -> sympy.Expr:
    # sqrt(d) for d < 0 means i*sqrt(-d), as sympy.sqrt has it
    return sum((sympy.Rational(q.numerator, q.denominator)
                * (1 if d == 1 else sympy.sqrt(d)) for d, q in c.coords.items()),
               sympy.Integer(0))


def _symbol(name: str, jets: dict[str, str]) -> sympy.Expr:
    if name == "x":
        return X
    if name == "y":
        return Y
    base, _, tail = name.partition("_")
    if base in jets:
        f = sympy.Function(jets[base])(X, Y)
        return sympy.diff(f, X, tail.count("x"), Y, tail.count("y")) if tail else f
    return sympy.Symbol(name)


def _poly(p, jets) -> sympy.Expr:
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = _const(c)
        for name, e in mono:
            term *= _symbol(name, jets) ** e
        out += term
    return out


def to_sympy(r, jets=None) -> sympy.Expr:
    jets = jets or {}
    return _poly(r.num, jets) / _poly(r.den, jets)


def apply(op, f, jets) -> sympy.Expr:
    return sum((to_sympy(c, jets) * sympy.diff(f, X, j, Y, k)
                for (j, k), c in op.coeffs.items()), sympy.Integer(0))


def composes_to(operator, factors, jets=None) -> bool:
    jets = jets or {}
    lhs = U
    for f in reversed(factors):
        lhs = apply(f, lhs, jets)
    diff = sympy.expand(lhs - apply(operator, U, jets))
    derivatives = {d for d in diff.atoms(sympy.Derivative) if d.expr == U} | {U}
    for d in derivatives:
        coeff = diff.coeff(d)
        if coeff != 0 and sympy.simplify(sympy.cancel(sympy.together(coeff))) != 0:
            return False
    rest = diff.subs({d: 0 for d in derivatives})
    return sympy.simplify(rest) == 0
