"""Linear partial differential operators in two variables.

An LPDO is a finite sum  sum a_jk(x, y) Dx^j Dy^k  kept in normal form:
all coefficients stand to the left of the derivatives and no zero
coefficient is stored.  Composition moves coefficients through derivatives
by the Leibniz rule, so the product of two normal forms is again a normal
form.  All values are immutable; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .expr import ConstScalar, Poly, RatExpr, _poly_substitute


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

    def level(self, m: int) -> dict[tuple[int, int], RatExpr]:
        """Coefficients of total derivative order m."""
        return {jk: c for jk, c in self.coeffs.items() if jk[0] + jk[1] == m}

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
        Dx^j Dy^k o b = sum C(j,r) C(k,s) (d^(j-r)x d^(k-s)y b) Dx^r Dy^s.
        """
        out: dict[tuple[int, int], RatExpr] = {}
        for (j, k), a in self.coeffs.items():
            for (l, m), b in other.coeffs.items():
                bx = b  # the x-derivative of b of order j - r
                for r in range(j, -1, -1):
                    if bx.is_zero():
                        break
                    base = bx
                    for s in range(k, -1, -1):
                        if base.is_zero():
                            break
                        term = a * base
                        factor = comb(j, r) * comb(k, s)
                        if factor != 1:  # an int keeps the fraction reduced and monic
                            term = RatExpr(term.num.scale_rational(factor), term.den)
                        key = (r + l, s + m)
                        acc = out.get(key)
                        acc = term if acc is None else acc + term
                        if acc.is_zero():
                            out.pop(key, None)
                        else:
                            out[key] = acc
                        if s:
                            base = base.diff("y")
                    if r:
                        bx = bx.diff("x")
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

    def change_vars(self, matrix) -> "LPDO":
        """Rewrite in coordinates (u, v) = M (x, y) for a constant invertible
        M, renaming (u, v) back to (x, y).

        Derivatives transform as Dx -> M11 Dx + M21 Dy, Dy -> M12 Dx + M22 Dy
        and coefficients pull back through the inverse map, so the result of
        applying M then M^-1 is the original operator.  The new derivatives
        have constant coefficients, so they commute and a_jk Dx^j Dy^k goes
        to a_jk(M^-1 (x, y)) (M11 Dx + M21 Dy)^j (M12 Dx + M22 Dy)^k,
        expanded binomially.
        """
        entries = _matrix_entries(matrix)
        if not all(e.is_const() for e in entries):
            raise ValueError("change of variables must be constant")
        subs, table = _coordinate_substitution(matrix_inverse(matrix)), {}
        m = [e.const_value() for e in entries]
        if all(c.is_rational() for c in m):  # ints or Fractions, else ConstScalars
            m = [q.numerator if q.denominator == 1 else q for q in (c.rational_value() for c in m)]
        m11, m12, m21, m22 = m
        out: dict[tuple[int, int], RatExpr] = {}
        for (j, k), a in self.coeffs.items():
            a = _pull_back(a, subs, table)
            for r, s in product(range(j + 1), range(k + 1)):
                c = comb(j, r) * comb(k, s) * m11 ** r * m21 ** (j - r) * m12 ** s * m22 ** (k - s)
                if c:  # a nonzero constant keeps the fraction reduced and monic
                    num = a.num.scale(c) if isinstance(c, ConstScalar) else a.num.scale_rational(c)
                    key, term = (r + s, j - r + k - s), RatExpr(num, a.den)
                    out[key] = term if key not in out else out[key] + term
        return LPDO(out)

    # -- comparison / display

    def __eq__(self, other) -> bool:
        return isinstance(other, LPDO) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        from .printer import operator_str

        return operator_str(self)

    __repr__ = __str__


def _matrix_entries(matrix) -> tuple[RatExpr, RatExpr, RatExpr, RatExpr]:
    (a, b), (c, d) = matrix
    return tuple(_as_ratexpr(e) for e in (a, b, c, d))


def _as_ratexpr(v) -> RatExpr:
    if isinstance(v, RatExpr):
        return v
    if isinstance(v, ConstScalar):
        return RatExpr.from_const(v)
    if isinstance(v, Poly):
        return RatExpr.from_poly(v)
    return RatExpr.from_fraction(v)


def _pull_back(r: RatExpr, subs: dict[str, RatExpr], table: dict) -> RatExpr:
    """r.substitute(subs) for a linear change of the coordinates subs: an
    invertible linear map is a ring automorphism, so the reduced fraction
    stays reduced and only its denominator is made monic.  table holds the
    powers of the values of subs."""
    return RatExpr._fast(*(_poly_substitute(p, subs, table, {}) for p in (r.num, r.den)))


def _coordinate_substitution(matrix) -> dict[str, RatExpr]:
    """Substitution expressing a function of the new coordinates in the old
    ones: (u, v) = M (x, y)."""
    m11, m12, m21, m22 = _matrix_entries(matrix)
    return {
        "x": m11 * RatExpr.X + m12 * RatExpr.Y,
        "y": m21 * RatExpr.X + m22 * RatExpr.Y,
    }


SWAP_XY = ((0, 1), (1, 0))


def matrix_inverse(matrix):
    m11, m12, m21, m22 = _matrix_entries(matrix)
    det = m11 * m22 - m12 * m21
    if det.is_zero():
        raise ValueError("singular matrix")
    inv = det.inverse()
    return ((m22 * inv, -(m12 * inv)), (-(m21 * inv), m11 * inv))


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
