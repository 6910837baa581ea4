"""Linear partial differential operators in two variables.

An LPDO is a finite sum  sum a_jk(x, y) Dx^j Dy^k  kept in normal form:
all coefficients stand to the left of the derivatives and no zero
coefficient is stored.  Composition moves coefficients through derivatives
by the Leibniz rule, so the product of two normal forms is again a normal
form.  The one change of variables is the exchange of x and y, with which
the engine works a root at infinity.  All values are immutable; operations
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .expr import Poly, RatExpr


class LPDO:
    """Normal-form differential operator with RatExpr coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], RatExpr] | None = None):
        self.coeffs = {jk: c for jk, c in (coeffs or {}).items() if not c.is_zero()}

    # -- constructors

    @classmethod
    def zero(cls) -> "LPDO":
        return cls()

    @classmethod
    def function(cls, f: RatExpr) -> "LPDO":
        """The order-0 operator 'multiply by f'."""
        return cls({(0, 0): f})

    @classmethod
    def monomial(cls, j: int, k: int, coeff: RatExpr | None = None) -> "LPDO":
        return cls({(j, k): coeff if coeff is not None else RatExpr.ONE})

    @classmethod
    def dx(cls) -> "LPDO":
        return cls.monomial(1, 0)

    @classmethod
    def dy(cls) -> "LPDO":
        return cls.monomial(0, 1)

    # -- views

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> int:
        return max((j + k for j, k in self.coeffs), default=0)

    def coeff(self, j: int, k: int) -> RatExpr:
        return self.coeffs.get((j, k), RatExpr.ZERO)

    def sorted_coeffs(self) -> list[tuple[tuple[int, int], RatExpr]]:
        """Deterministic term order: total order descending, then x-power
        descending."""
        keys = sorted(self.coeffs, key=lambda jk: (-(jk[0] + jk[1]), -jk[0]))
        return [(jk, self.coeffs[jk]) for jk in keys]

    # -- linear structure

    def __add__(self, other: "LPDO") -> "LPDO":
        out = dict(self.coeffs)
        for jk, c in other.coeffs.items():
            s = out.get(jk)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(jk, None)
            else:
                out[jk] = s
        o = LPDO.__new__(LPDO)
        o.coeffs = out
        return o

    def __neg__(self) -> "LPDO":
        o = LPDO.__new__(LPDO)
        o.coeffs = {jk: -c for jk, c in self.coeffs.items()}
        return o

    def __sub__(self, other: "LPDO") -> "LPDO":
        return self + (-other)

    def scale(self, f: RatExpr) -> "LPDO":
        """Left-multiply by the function f."""
        if f.is_zero():
            return LPDO.zero()
        o = LPDO.__new__(LPDO)
        o.coeffs = {jk: f * c for jk, c in self.coeffs.items()}
        return o

    # -- the noncommutative product

    def compose(self, other: "LPDO") -> "LPDO":
        """Normal form of self applied after other (self o other).

        Dx^j Dy^k moves through a coefficient b by the Leibniz rule:
        Dx^j Dy^k o b = sum C(j,i) C(k,s) (d^i x d^s y b) Dx^(j-i) Dy^(k-s).
        Each derivative of a coefficient of other is taken once, and a rational
        constant coefficient c of self scales it by c*C(j,i)*C(k,s) or passes it through.
        A function self scales other.  A first-order self c1*Dx + c2*Dy + p3, c1
        and c2 rational, writes each b of other in one pass: c1*b and c2*b one
        derivative up, c1*b_x + c2*b_y + p3*b (one Poly.diff_along) in place.
        """
        if len(self.coeffs) == 1 and (0, 0) in self.coeffs:
            return other.scale(self.coeffs[0, 0])
        c1, c2 = self.coeff(1, 0), self.coeff(0, 1)
        if self.order == 1 and c1.is_rational() and c2.is_rational():
            return _first_order(c1.rational_value(), c2.rational_value(), self.coeff(0, 0), other)
        out: dict[tuple[int, int], RatExpr] = {}
        mine = []  # each a of self with c, its value if it is a rational constant, else None
        for jk, a in self.coeffs.items():
            c = a.rational_value() if a.is_rational() else None
            mine.append((jk, a, c.numerator if c is not None and c.denominator == 1 else c))
        for (l, m), b in other.coeffs.items():
            grid = {(0, 0): b}  # d^i/dx^i d^s/dy^s b by (i, s)
            for (j, k), a, c in mine:
                for i in range(j + 1):
                    for s in range(k + 1):
                        d = grid.get((i, s))
                        if d is None:  # the loops have put its predecessor in grid
                            d = grid[i, s] = (grid[i, s - 1].diff("y") if s
                                              else grid[i - 1, 0].diff("x"))
                        if d.is_zero():
                            continue
                        factor = comb(j, i) * comb(k, s)
                        term = _times(factor, a * d) if c is None else _times(factor * c, d)
                        key = (j - i + l, k - s + m)
                        out[key] = out[key] + term if key in out else term
        return LPDO(out)

    def apply(self, f: RatExpr) -> RatExpr:
        """Evaluate the operator on a function."""
        out = RatExpr.ZERO
        for (j, k), a in self.coeffs.items():
            g = f
            for _ in range(j):
                g = g.diff("x")
            for _ in range(k):
                g = g.diff("y")
            if not g.is_zero():
                out = out + a * g
        return out

    def transpose(self) -> "LPDO":
        """Formal transpose sum (-1)^(j+k) Dx^j Dy^k o a_jk, renormalized."""
        out = LPDO.zero()
        for (j, k), a in self.coeffs.items():
            term = LPDO.monomial(j, k).compose(LPDO.function(a))
            if (j + k) % 2:
                term = -term
            out = out + term
        return out

    def change_vars(self) -> "LPDO":
        """The operator with x and y exchanged: a_jk(x, y) Dx^j Dy^k becomes
        a_jk(y, x) Dx^k Dy^j.  The swap is its own inverse."""
        return LPDO({(k, j): a.swap_xy() for (j, k), a in self.coeffs.items()})

    # -- comparison / display

    def __eq__(self, other) -> bool:
        return isinstance(other, LPDO) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        from .printer import operator_str

        return operator_str(self)

    __repr__ = __str__


def _times(c, b: RatExpr) -> RatExpr:
    """c*b for an int or Fraction c, which keeps b reduced and its den monic."""
    if not c:
        return RatExpr.ZERO
    return b if c == 1 else RatExpr(b.num.scale_rational(c), b.den)


def _first_order(c1, c2, p3: RatExpr, other: LPDO) -> LPDO:
    """(c1*Dx + c2*Dy + p3) o other for rational constants c1, c2."""
    c = -c2 / c1 if c1 else None  # c1*Dx + c2*Dy = c1*(Dx - c*Dy)

    def along(p: Poly) -> Poly:  # c1*p_x + c2*p_y
        d, k = (p.diff_along(c), c1) if c1 else (p.diff("y"), c2)
        return d if k == 1 else d.scale_rational(k)

    out: dict[tuple[int, int], RatExpr] = {}
    for (l, m), b in other.coeffs.items():
        for key, term in (((l + 1, m), _times(c1, b)), ((l, m + 1), _times(c2, b)),
                          ((l, m), b.derive(along)), ((l, m), p3 * b)):
            if not term.is_zero():
                out[key] = out[key] + term if key in out else term
    return LPDO(out)


@dataclass(frozen=True)
class FirstOrderFactor:
    """A first-order operator p1 Dx + p2 Dy + p3 with (p1, p2) != (0, 0).

    Normalized factors have p1 = 1, or p1 = 0 with p2 = 1.
    """

    p1: RatExpr
    p2: RatExpr
    p3: RatExpr

    def __post_init__(self):
        if self.p1.is_zero() and self.p2.is_zero():
            raise ValueError("first-order factor needs a nonzero derivative part")

    @classmethod
    def from_root(cls, omega: RatExpr, p3: RatExpr) -> "FirstOrderFactor":
        """The factor Dx - omega*Dy + p3 attached to a symbol root."""
        return cls(RatExpr.ONE, -omega, p3)

    @classmethod
    def from_operator(cls, op: LPDO) -> "FirstOrderFactor":
        if op.order != 1:
            raise ValueError("not a first-order operator")
        return cls(op.coeff(1, 0), op.coeff(0, 1), op.coeff(0, 0))

    def as_operator(self) -> LPDO:
        return LPDO({(1, 0): self.p1, (0, 1): self.p2, (0, 0): self.p3})

    def __str__(self) -> str:
        return str(self.as_operator())
