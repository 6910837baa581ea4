"""Characteristic polynomial of an operator and exact root finding.

The top-order coefficients a_{n,0}, a_{n-1,1}, ..., a_{0,n} of an order-n
operator define P_n(w) = a_{n,0} w^n + ... + a_{0,n}.  Each root w selects
a candidate first-order factor Dx - w*Dy + p3; a degree drop of P below n
corresponds to a root at infinity (a factor led by Dy).  Root finding is
exact over the supported field: linear solves, the quadratic formula when
the discriminant has a square root (which may adjoin a radical), and
candidate rational-function roots for higher degrees.  Roots that cannot
be expressed are returned as an unresolved residual factor, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .expr import _TRIAL_BOUND, RatExpr, _factor, _is_prime
from .operator import LPDO


@dataclass(frozen=True)
class CharPoly:
    """Coefficients [a_n0, a_{n-1,1}, ..., a_0n] in descending powers of w."""

    coeffs: tuple[RatExpr, ...]
    n: int

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError("characteristic polynomial needs n+1 coefficients")

    def eval_at(self, omega: RatExpr) -> RatExpr:
        return _eval_list(self.coeffs, omega)

    def derivative_at(self, omega: RatExpr) -> RatExpr:
        return _eval_list(_derivative_list(self.coeffs), omega)

    def multiplicity_of(self, omega: RatExpr) -> int:
        """Largest m with P(omega) = P'(omega) = ... = P^(m-1)(omega) = 0."""
        coeffs = list(self.coeffs)
        m = 0
        while len(coeffs) > 1 or (coeffs and not coeffs[0].is_zero()):
            if not _eval_list(coeffs, omega).is_zero():
                break
            m += 1
            coeffs = _derivative_list(coeffs)
        return m

    def extensions_of(self, omega: RatExpr) -> tuple[int, ...]:
        """The radicals of omega that no coefficient has, sorted by |d|."""
        ext = omega.radicals()
        if ext:  # a rational omega needs no coefficient read
            ext = ext.difference(*(c.radicals() for c in self.coeffs))
        return tuple(sorted(ext, key=abs))


@dataclass(frozen=True)
class Root:
    """A root of the characteristic polynomial.

    value is None exactly when at_infinity is set; extensions lists the
    radicals in the value that no coefficient of P has, sorted by |d|.
    """

    value: RatExpr | None
    multiplicity: int
    at_infinity: bool = False
    extensions: tuple[int, ...] = ()

    def text(self, show=str) -> str:
        body = "infinity" if self.at_infinity else show(self.value)
        return f"{body} (multiplicity {self.multiplicity})"

    __str__ = text


@dataclass(frozen=True)
class RootSearch:
    """All roots found in the supported field plus any unresolved factor."""

    roots: tuple[Root, ...]
    unresolved: tuple[RatExpr, ...] = ()  # descending coefficients, empty if split

    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def char_poly(op: LPDO) -> CharPoly:
    """Read the characteristic polynomial off the top-order coefficients."""
    n = op.order
    if n < 1:
        raise ValueError("operator must have order at least 1")
    coeffs = tuple(op.coeff(n - k, k) for k in range(n + 1))
    return CharPoly(coeffs, n)


def find_roots(p: CharPoly) -> RootSearch:
    """Split P into roots over the supported field.

    Strategy: strip the degree drop (root at infinity) and trailing zeros
    (roots at 0), then peel linear factors; quadratics go through the
    quadratic formula, whose square root may adjoin radicals that P's
    coefficients lack (a root's extensions); higher degrees try
    candidate rational-function roots built from the trailing/leading
    coefficients.  Multiplicities are certified by derivative tests on the
    full polynomial.  Whatever does not split is reported unresolved.
    """
    if all(c.is_zero() for c in p.coeffs):
        raise ValueError("zero characteristic polynomial")
    work = list(p.coeffs)
    while work and work[0].is_zero():
        work.pop(0)
    degree_drop = p.n - (len(work) - 1)

    values, unresolved = split_roots(work)
    roots = [Root(v, p.multiplicity_of(v), extensions=p.extensions_of(v)) for v in values]
    if degree_drop > 0:
        roots.append(Root(None, degree_drop, at_infinity=True))
    return RootSearch(tuple(roots), unresolved)


def split_roots(work: list[RatExpr]) -> tuple[list[RatExpr], tuple[RatExpr, ...]]:
    """The distinct roots found in the descending coefficients work, the
    first nonzero, sorted by their text, and the factor left unresolved
    (empty if none); work is used up."""
    values: list[RatExpr] = []
    unresolved: tuple[RatExpr, ...] = ()

    while len(work) > 1 and work[-1].is_zero():
        work.pop()
        values.append(RatExpr.ZERO)

    while len(work) > 1:
        deg = len(work) - 1
        if deg == 1:
            values.append(-(work[1] / work[0]))
            break
        if deg == 2:
            roots = _quadratic_roots(work[0], work[1], work[2])
            if roots is None:
                unresolved = tuple(work)
                break
            values.extend(roots)
            break
        found = None
        for cand in _root_candidates(work):
            if _eval_list(work, cand).is_zero():
                found = cand
                break
        if found is None:
            unresolved = tuple(work)
            break
        values.append(found)
        work = _deflate(work, found)
    return sorted(set(values), key=str), unresolved


def _eval_list(coeffs, omega: RatExpr) -> RatExpr:
    """Horner evaluation of descending coefficients at omega."""
    out = RatExpr.ZERO
    for c in coeffs:
        out = out * omega + c
    return out


def _derivative_list(coeffs) -> list[RatExpr]:
    """Descending coefficients of the derivative."""
    deg = len(coeffs) - 1
    return [c * RatExpr.from_int(deg - i) for i, c in enumerate(coeffs[:-1])]


def _deflate(coeffs: list[RatExpr], root: RatExpr) -> list[RatExpr]:
    """Synthetic division by (w - root); the remainder must be zero."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * root + c)
    return out


def _quadratic_roots(a, b, c):
    disc = b * b - RatExpr.from_int(4) * a * c
    if disc.is_zero():
        half = -(b / (a + a))
        return (half, half)
    r = disc.perfect_square_root()
    if r is None:
        return None
    twice_a = a + a
    return ((-b + r) / twice_a, (-b - r) / twice_a)


def _root_candidates(coeffs: list[RatExpr]):
    """Candidate roots for a polynomial of degree >= 3.

    Covers constant rational roots (divisor pairs of the integer trailing
    and leading terms) and simple rational-function roots built from the
    trailing/leading coefficients themselves.
    """
    lead, trail = coeffs[0], coeffs[-1]
    seen: set[RatExpr] = set()

    def emit(v: RatExpr):
        if v not in seen:
            seen.add(v)
            yield v

    for s in (1, -1):
        yield from emit(RatExpr.from_int(s))
    if all(c.is_rational() for c in coeffs):
        nums = [c.rational_value() for c in coeffs]
        common = lcm(*(q.denominator for q in nums))
        ints = [int(q * common) for q in nums]
        for pdiv in _int_divisors(ints[-1]):
            for qdiv in _int_divisors(ints[0]):
                for s in (1, -1):
                    yield from emit(RatExpr.from_fraction(Fraction(s * pdiv, qdiv)))
    else:
        ratio = trail / lead
        for v in (ratio, -ratio, ratio.inverse() if not ratio.is_zero() else None):
            if v is not None:
                yield from emit(v)


def _int_divisors(n: int) -> list[int]:
    """The positive divisors of n (of 1 for n = 0), ascending."""
    out = [1]
    for p, e in _factor(abs(n) or 1):
        if p > _TRIAL_BOUND and not _is_prime(p):  # r of a square cofactor r**2
            raise ValueError(f"cannot list the divisors of the integer {n}")
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)

