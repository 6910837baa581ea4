"""Characteristic polynomial of an operator and exact root finding.

The top-order coefficients a_{n,0}, a_{n-1,1}, ..., a_{0,n} of an order-n
operator define P_n(w) = a_{n,0} w^n + ... + a_{0,n}.  Each root w selects
a candidate first-order factor Dx - w*Dy + p3; a degree drop of P below n
corresponds to a root at infinity (a factor led by Dy).  Root finding is
exact over the supported field: linear solves, the quadratic formula when
the discriminant has a square root (which may adjoin a radical), and
candidate rational-function roots for higher degrees.  One Horner pass
divides P by w - root; each root found is divided out as often as it
divides, which counts its multiplicity.  Roots that cannot be expressed
are returned as an unresolved residual factor, never dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod

from .expr import _TRIAL_BOUND, ConstScalar, Poly, RatExpr, _factor, _is_prime
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
        return _divide(self.coeffs, omega)[1]

    def derivative_at(self, omega: RatExpr) -> RatExpr:
        """P'(omega), the quotient of P by (w - omega) at omega."""
        return _divide(_divide(self.coeffs, omega)[0], omega)[1]

    def multiplicity_of(self, omega: RatExpr) -> int:
        """How many times w - omega divides P."""
        return _strip(self.coeffs, omega)[0]

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

    def after(self, root: Root, p: CharPoly) -> RootSearch:
        """The search of the cofactor once a left factor is split off at
        root, p its characteristic polynomial.  Symbols multiply, so p is
        P / (W - w) (at infinity, P less its leading zero): root's
        multiplicity drops by one, the other roots keep their order and the
        unresolved factor stays.  p's coefficients may gain radicals, so
        extensions are read again."""
        roots = (replace(r, multiplicity=r.multiplicity - (r == root),
                         extensions=r.extensions if r.at_infinity else p.extensions_of(r.value))
                 for r in self.roots)
        return RootSearch(tuple(r for r in roots if r.multiplicity), self.unresolved)


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
    coefficients.  A root's multiplicity is the number of times w - root
    divides P, counted by exact division on canonical forms as the root is
    found.  Whatever does not split is reported unresolved.
    """
    if all(c.is_zero() for c in p.coeffs):
        raise ValueError("zero characteristic polynomial")
    work = list(p.coeffs)
    while work and work[0].is_zero():
        work.pop(0)
    degree_drop = p.n - (len(work) - 1)

    found, unresolved = split_roots(work)
    roots = [Root(v, m, extensions=p.extensions_of(v)) for v, m in found.items()]
    if degree_drop > 0:
        roots.append(Root(None, degree_drop, at_infinity=True))
    return RootSearch(tuple(roots), unresolved)


def split_roots(work: list[RatExpr]) -> tuple[dict[RatExpr, int], tuple[RatExpr, ...]]:
    """The roots found in the descending coefficients work, the first
    nonzero, each with its multiplicity and sorted by their text, and the
    factor left unresolved (empty if none); work is used up.  Each root is
    divided out as often as it divides, so none divides the unresolved
    factor."""
    found: Counter = Counter()
    while len(work) > 1 and work[-1].is_zero():
        work.pop()
        found[RatExpr.ZERO] += 1
    unresolved: tuple[RatExpr, ...] = ()
    while len(work) > 1:
        if len(work) == 2:
            found[-(work[1] / work[0])] = 1
            break
        if len(work) == 3:
            pair = _quadratic_roots(*work)
            if pair is None:
                unresolved = tuple(work)
            else:
                found.update(pair)
            break
        for cand in _root_candidates(work):
            m, rest = _strip(work, cand)
            if m:
                found[cand], work = m, rest
                break
        else:
            unresolved = tuple(work)
            break
    return dict(sorted(found.items(), key=lambda vm: str(vm[0]))), unresolved


def _divide(coeffs, omega: RatExpr) -> tuple[list[RatExpr], RatExpr]:
    """P = (w - omega)*Q + r for the descending coefficients of P: those of
    Q and the remainder r = P(omega), in one Horner pass."""
    acc = list(coeffs[:1])
    for c in coeffs[1:]:
        acc.append(acc[-1] * omega + c)
    return acc[:-1], (acc[-1] if acc else RatExpr.ZERO)


def _strip(coeffs, omega: RatExpr) -> tuple[int, list[RatExpr]]:
    """How many times w - omega divides P, and the quotient left once it is
    divided out that often."""
    m = 0
    while len(coeffs) > 1:
        q, r = _divide(coeffs, omega)
        if not r.is_zero():
            break
        coeffs, m = q, m + 1
    return m, coeffs


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
    trailing/leading coefficients themselves.  When a coefficient is not
    rational, a constant root is a root of every monomial's slice of the
    numerators over a common denominator; the divisor pairs are then read
    off one slice, when it is rational.
    """
    lead, trail = coeffs[0], coeffs[-1]
    seen: set[RatExpr] = set()

    def emit(v: RatExpr):
        if v not in seen:
            seen.add(v)
            yield v

    for s in (1, -1):
        yield from emit(RatExpr.from_int(s))
    values = coeffs
    if not all(c.is_rational() for c in coeffs):
        ratio = trail / lead  # nonzero: the roots at 0 are stripped first
        for v in (ratio, -ratio, ratio.inverse()):
            yield from emit(v)
        den = prod(dict.fromkeys(c.den for c in coeffs), start=Poly.ONE)
        scaled = [c.num * den.exact_div(c.den) for c in coeffs]
        mono = next(iter(scaled[0].leading_term()[0].terms))
        values = [n.terms.get(mono, ConstScalar.ZERO) for n in scaled]
    if all(c.is_rational() for c in values):
        nums = [c.rational_value() for c in values]
        common = lcm(*(q.denominator for q in nums))
        ints = [int(q * common) for q in nums if q]
        for pdiv in _int_divisors(ints[-1]):
            for qdiv in _int_divisors(ints[0]):
                for s in (1, -1):
                    yield from emit(RatExpr.from_fraction(Fraction(s * pdiv, qdiv)))


def _int_divisors(n: int) -> list[int]:
    """The positive divisors of n (of 1 for n = 0), ascending."""
    out = [1]
    for p, e in _factor(abs(n) or 1):
        if p > _TRIAL_BOUND and not _is_prime(p):  # r of a square cofactor r**2
            raise ValueError(f"cannot list the divisors of the integer {n}")
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)

