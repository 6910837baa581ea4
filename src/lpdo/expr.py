"""Exact rational-function arithmetic over multiquadratic constants.

Values live in Q(sqrt(d1), ..., sqrt(dk))(x, y, parameters): rational
functions of the variables x, y and any number of named parameters, with
constants drawn from Q extended by square roots of square-free integers
(including i = sqrt(-1)).  Every value is kept in a unique canonical form,
so equality and zero-testing are plain structural comparisons.  There is
no registry of adjoined radicals: a value carries its own, and a square
root adjoins whatever radical it needs.

Three layers:

  ConstScalar -- an element of Q(sqrt(d1), ..., sqrt(dk)), stored as a map
                 from square-free radical index to int numerator, over
                 one positive integer denominator.
  Poly        -- a sparse multivariate polynomial over ConstScalar: a map
                 from packed int monomial keys on its own symbol tuple to
                 coefficients, under a graded-lexicographic term order.
                 Rational coefficients are stored as int numerators over
                 one positive integer denominator.
  RatExpr     -- a reduced fraction of two Polys with a monic denominator.

Every RatExpr operation is kept reduced through poly_gcd, which returns
the monic gcd (leading coefficient 1 under the graded-lex order): by one
trial division when an input has total degree 1, and so is irreducible,
else along one of two lanes, after splitting off the common monomial part:

  integer lane -- when every coefficient of both inputs is rational.
                  GCDHEU (Char, Geddes and Gonnet 1989) runs on the int
                  numerators, accepting a candidate only when it divides
                  both inputs exactly.
  PRS lane     -- when a coefficient carries a radical, or in the rare case
                  that GCDHEU gives up: content/primitive-part recursion
                  with a subresultant remainder sequence over ConstScalar.

All three give the same monic gcd, so canonical forms do not depend on
which one ran.  Poly.exact_div has the same split: rational coefficients
divide over Z by the primitive part of the divisor (by Gauss's lemma a
divisor with integer content above 1 need not divide over Z even when the
quotient over Q exists), radical ones by the same lexicographic division
over ConstScalar.

Only this module knows the Poly format (see "monomials: packed keys" and
Poly): a bit field per symbol, so a product of monomials is a sum of keys,
and an exponent past 16383 raises OverflowError; the coefficients are
either ints over one denominator or ConstScalars.  Sums, products, exact
division and derivatives of rational Polys run on the ints, which is what
the factorization engine's descent computes with.

Symbols other than x and y are named by strings.  A plain name is a
parameter: it commutes with x and y and differentiates to zero.  A name
of type Unknown (built by RatExpr.unknown) is an unknown function of x and
y instead: its x/y-derivatives are jet symbols, name suffixed with
``_x...y...``, that are unknowns too.  The kind travels with the symbol,
so no registry is kept; this is how the factorization engine's degenerate
path carries its free p3.  Combining a name of both kinds raises ValueError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial, reduce
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import or_
from typing import Callable, NamedTuple


# --------------------------------------------------------------------------
# integer helpers
# --------------------------------------------------------------------------

_TRIAL_BOUND = 1 << 24  # trial division to it takes about 0.4 s on a Xeon core
# Miller-Rabin with the first 13 prime bases is a proof below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is proven prime: below _MR_LIMIT the strong-probable-prime
    test to every base in _MR_BASES decides; above it, False."""
    if n < 2 or n >= _MR_LIMIT or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))
               for a in _MR_BASES)


def _factor(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] with n = prod(p**e) for n > 0, p ascending: trial
    division by 2, 3 and 6k +- 1 up to _TRIAL_BOUND, stopped once the
    cofactor is proven prime.  A cofactor left at the bound must be a perfect
    square r**2, given as (r, 2) with r unsplit; else ValueError names n."""
    out, m, k = [], n, 5
    while m > 1 and not _is_prime(m):
        p = next((p for p in (2, 3) if m % p == 0), None)
        if p is None:
            for k in range(k, min(isqrt(m), _TRIAL_BOUND) + 1, 6):
                if m % k == 0 or m % (k + 2) == 0:
                    break
            else:
                r = isqrt(m)
                if r * r != m:
                    raise ValueError(f"cannot factor the integer {n}: no factor up "
                                     f"to {_TRIAL_BOUND} and no primality proof")
                return out + [(r, 2)]
            p = k if m % k == 0 else k + 2
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        out.append((p, e))
    return out + [(m, 1)] * (m > 1)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = c**2 * d with c > 0 and d square-free (d keeps the sign)."""
    if n == 0:
        raise ValueError("cannot decompose 0")
    c, d = 1, -1 if n < 0 else 1
    for p, e in _factor(abs(n)):
        c, d = c * p ** (e // 2), d * p ** (e % 2)
    return c, d


def _radical_generators(d: int) -> frozenset[int]:
    """Generator set of a square-free index: its primes, plus -1 for the sign."""
    return frozenset([p for p, _ in _factor(abs(d))] + [-1] * (d < 0))


def _mul_radicals(a: int, b: int) -> tuple[int, int]:
    """sqrt(a)*sqrt(b) = factor * sqrt(key) for square-free a, b.

    Convention: sqrt(d) for d < 0 means i*sqrt(-d) with i the principal
    square root of -1, so sqrt(-1)*sqrt(-1) = -1.
    """
    # a = g*a' and b = g*b' with a', b' coprime: the shared primes square out,
    # and i*i = -1 when both are negative
    g = gcd(a, b)
    return (-g if a < 0 and b < 0 else g), (a // g) * (b // g)


def _power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


# --------------------------------------------------------------------------
# unknown functions
# --------------------------------------------------------------------------

class Unknown(str):
    """The name of an unknown function of x and y, or of one of its formal
    derivatives (a jet): base, or base + "_" + "x"*dx + "y"*dy.

    It compares, hashes, orders and prints as that name, so it stands
    wherever a plain symbol name does; only differentiation tells the two
    apart.  A plain name is a parameter and differentiates to zero."""

    def __new__(cls, base: str, dx: int = 0, dy: int = 0) -> "Unknown":
        name = base + "_" + "x" * dx + "y" * dy if dx or dy else base
        self = super().__new__(cls, name)
        self.base, self.orders = str(base), (dx, dy)
        return self

    def diff(self, var: str) -> "Unknown":
        dx, dy = self.orders
        return Unknown(self.base, dx + (var == "x"), dy + (var == "y"))


# --------------------------------------------------------------------------
# ConstScalar
# --------------------------------------------------------------------------

class ConstScalar:
    """An element of Q(sqrt(d1), ..., sqrt(dk)).

    Stored like a rational Poly: _coords maps each square-free index d to an
    int numerator, over one positive int _den with gcd(_den, *numerators)
    == 1; the index 1 holds the rational part.  Distinct square-free
    radicals are linearly independent over Q, so the representation (with
    zero coordinates dropped, and _den 1 for zero) is unique and
    zero-testing is `not _coords`.  No field is fixed in advance: the
    radicals a value uses are the keys of its map.
    """

    __slots__ = ("_coords", "_den", "_hash")

    def __init__(self, coords: dict[int, Fraction | int] | None = None):
        coords = {d: q for d, q in (coords or {}).items() if q}
        den = lcm(*(q.denominator for q in coords.values()))
        self._coords = {d: q.numerator * (den // q.denominator) for d, q in coords.items()}
        self._den, self._hash = den, None

    # -- constructors

    @classmethod
    def from_rational(cls, q) -> "ConstScalar":
        q = q if isinstance(q, (int, Fraction)) else Fraction(q)
        return _scalar({1: q.numerator} if q else {}, q.denominator)

    @classmethod
    def radical(cls, d: int) -> "ConstScalar":
        """sqrt(d) for an integer d, as c*sqrt(d') with d' square-free."""
        if d == 0:
            return cls()
        c, d = squarefree_decompose(d)
        return _scalar({d: c}, 1)

    ZERO: "ConstScalar"
    ONE: "ConstScalar"

    # -- predicates and views

    def is_zero(self) -> bool:
        return not self._coords

    def __bool__(self) -> bool:
        return bool(self._coords)

    def is_rational(self) -> bool:
        c = self._coords
        return not c or (len(c) == 1 and 1 in c)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._coords.get(1, 0), self._den)

    @property
    def coords(self) -> dict[int, Fraction]:
        return {d: Fraction(n, self._den) for d, n in self._coords.items()}

    def radicals(self) -> set[int]:
        return {d for d in self._coords if d != 1}

    # -- ring operations

    def _plus(self, other: "ConstScalar", sign: int) -> "ConstScalar":
        """self + sign * other, over the lcm of the denominators."""
        d1, d2 = self._den, other._den
        d = d1 if d1 == d2 else lcm(d1, d2)
        f1, f2 = d // d1, sign * (d // d2)
        out = dict(self._coords) if f1 == 1 else {k: n * f1 for k, n in self._coords.items()}
        get = out.get
        for k, n in other._coords.items():
            s = get(k, 0) + n * f2
            if s:
                out[k] = s
            else:
                del out[k]
        return _scalar(out, d)

    def __add__(self, other: "ConstScalar") -> "ConstScalar":
        return self._plus(other, 1)

    def __sub__(self, other: "ConstScalar") -> "ConstScalar":
        return self._plus(other, -1)

    def __neg__(self) -> "ConstScalar":
        return _scalar({d: -n for d, n in self._coords.items()}, self._den)

    def __mul__(self, other: "ConstScalar") -> "ConstScalar":
        a, b = self._coords, other._coords
        den = self._den * other._den
        if len(a) == 1 == len(b) and 1 in a and 1 in b:
            return _scalar({1: a[1] * b[1]}, den)
        out: dict[int, int] = {}
        get = out.get
        for d1, n1 in a.items():
            for d2, n2 in b.items():
                f, key = _mul_radicals(d1, d2)
                s = get(key, 0) + n1 * n2 * f
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _scalar(out, den)

    def scale(self, q) -> "ConstScalar":
        """self times the int or Fraction q."""
        n = q.numerator
        if not n:
            return ConstScalar.ZERO
        return _scalar({d: c * n for d, c in self._coords.items()}, self._den * q.denominator)

    __rmul__ = scale  # an int or Fraction times self

    def inverse(self) -> "ConstScalar":
        """Field inverse by conjugation over one generator at a time."""
        a = self._coords
        if len(a) == 1 and 1 in a:
            n = a[1]
            return _scalar({1: self._den if n > 0 else -self._den}, abs(n))
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero constant")
        g = self._split_generator()
        u, v = self._split_by(g)
        # self = u + sqrt(g)*v with u, v free of the generator g
        norm = u * u - v * v.scale(g)
        conj = u - _radical_term(g) * v
        return conj * norm.inverse()

    def __truediv__(self, other: "ConstScalar") -> "ConstScalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "ConstScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, ConstScalar.ONE)

    def _split_generator(self) -> int:
        gens: set[int] = set()
        for d in self._coords:
            if d != 1:
                gens |= _radical_generators(d)
        return max(gens, key=abs)

    def _split_by(self, g: int) -> tuple["ConstScalar", "ConstScalar"]:
        """self = u + sqrt(g) * v, with u and v not involving generator g."""
        u: dict[int, int] = {}
        v: dict[int, int] = {}
        for d, n in self._coords.items():
            if g in _radical_generators(d):
                v[d // g] = n
            else:
                u[d] = n
        return _scalar(u, self._den), _scalar(v, self._den)

    # -- square roots

    def sqrt(self) -> "ConstScalar | None":
        """A square root, or None when no multiquadratic field holds one.

        A rational q = c^2 d gives c*sqrt(d), adjoining sqrt(d) if it is
        new; other values are denested by _sqrt_avoiding.
        """
        return self._sqrt_avoiding(frozenset())

    def _sqrt_avoiding(self, excluded: frozenset[int]) -> "ConstScalar | None":
        """A square root whose radicals involve no generator in excluded.

        Write self = u + sqrt(g)*v on its largest generator g.  A root
        s + sqrt(g)*t with s, t free of g has s^2 = (u + w)/2 and
        t = v/(2s), where w = s^2 - g*t^2 squares to u^2 - g*v^2.  Both
        square roots taken here avoid g as well, so each nested call
        excludes one more generator of its input.
        """
        if self.is_zero():
            return ConstScalar.ZERO
        if self.is_rational():
            cn, dn = squarefree_decompose(self._coords[1])
            cd, dd = squarefree_decompose(self._den)
            f, key = _mul_radicals(dn, dd)
            if _radical_generators(key) & excluded:
                return None
            return _scalar({key: cn * f}, cd * dd)
        g = self._split_generator()
        u, v = self._split_by(g)
        excluded = excluded | {g}
        w = (u * u - v * v.scale(g))._sqrt_avoiding(excluded)
        if w is None:
            return None
        half = ConstScalar.from_rational(Fraction(1, 2))
        for wc in (w, -w):
            s = ((u + wc) * half)._sqrt_avoiding(excluded)
            if s is None or s.is_zero():
                continue
            t = v * (s + s).inverse()
            r = s + _radical_term(g) * t
            if r * r == self:
                return r
        return None

    # -- comparison / hashing / display

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConstScalar) and self._den == other._den
                and self._coords == other._coords)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._coords.items())))
        return self._hash

    def __str__(self) -> str:
        return signed_sum(scalar_pieces(self))

    __repr__ = __str__


def _scalar(coords: dict[int, int], den: int) -> ConstScalar:
    """The constant of the nonzero int numerators coords over den > 0,
    reduced by their common factor with den."""
    if den != 1:
        g = gcd(den, *coords.values())
        if g != 1:
            den //= g
            coords = {d: n // g for d, n in coords.items()}
    c = ConstScalar.__new__(ConstScalar)
    c._coords, c._den, c._hash = coords, den, None
    return c


def _radical_term(d: int) -> ConstScalar:
    return _scalar({d: 1}, 1)


ConstScalar.ZERO = ConstScalar()
ConstScalar.ONE = ConstScalar.from_rational(1)



# --------------------------------------------------------------------------
# monomials: packed keys
# --------------------------------------------------------------------------
#
# A Poly keys each term by one int on its own symbol tuple: x and y are the
# fields 0 and 1, then come exactly the other symbols it uses, alphabetically.
# Field i is the bits [_W*i, _W*i + _W) of the key: an exponent of at most
# _EXP_MAX below a guard bit.  So a product of monomials is a sum of keys, in
# which an exponent past _EXP_MAX sets a guard bit (OverflowError), a quotient
# is a difference, in which a monomial that does not divide borrows from a
# guard bit, and d/dv lowers one field.  The term order is graded-lex: total
# degree, then the fields read from x upward; int order is lexicographic with
# the last field most significant.  Two Polys on equal tuples share keys, and
# adding a symbol after the last field leaves the keys as they are.

_W = 15  # the keys of x and y alone stay one-digit CPython ints
_EXP_MAX = (1 << _W - 1) - 1
_MASK = (1 << _W) - 1
_Y = 1 << _W  # the key of y
_XY = ("x", "y")


def _guard(n: int) -> int:
    """The guard bits of the fields 0 to n - 1."""
    return ((1 << _W * n) - 1) // _MASK << _W - 1


def _fields(e: int, syms) -> list[tuple[str, int]]:
    """The (symbol, exponent) pairs of key e on syms, exponents above 0."""
    out = []
    for s in syms:
        if not e:
            break
        if e & _MASK:
            out.append((s, e & _MASK))
        e >>= _W
    return out


def _ranker(n: int):
    """The sort key of the term order on n fields: the total degree above
    the fields read from x upward."""
    def rank(e: int) -> int:
        d = r = 0
        for _ in range(n):
            f = e & _MASK
            d, r, e = d + f, r << _W | f, e >> _W
        return d << _W * n | r
    return rank


def _merge(s: tuple, t: tuple) -> tuple:
    """The symbol tuple of two Polys together.  A name that is a parameter
    in one and an unknown function in the other raises ValueError."""
    if s is t or len(t) == 2:
        return s
    if len(s) == 2:
        return t
    if s == t and tuple(map(type, s)) == tuple(map(type, t)):  # the same kinds too
        return s
    names = {p: p for p in s[2:]}
    for q in t[2:]:
        if isinstance(names.setdefault(q, q), Unknown) != isinstance(q, Unknown):
            raise ValueError(f"{q} is both a parameter and an unknown function")
    return s if len(names) == len(s) - 2 else _XY + tuple(sorted(names))


def _rekey(packed: dict, old: tuple, new: tuple) -> dict:
    """The terms packed, keyed on the symbols old, keyed on new instead; new
    holds every symbol that a key uses."""
    if old is new or len(old) == 2 or old == new:
        return packed
    moves = [(_W * i, _W * new.index(s)) for i, s in enumerate(old) if i > 1 and s in new]
    if all(a == b for a, b in moves):
        return packed
    out = {}
    for e, c in packed.items():
        k = e & (1 << 2 * _W) - 1
        for a, b in moves:
            k |= (e >> a & _MASK) << b
        out[k] = c
    return out


def _canon(syms: tuple, packed: dict, den: int | None, scan: bool = True) -> "Poly":
    """The canonical Poly of packed over den on syms: ConstScalars (den None)
    become ints over the lcm of their denominators when all are rational,
    and ints lose their common factor with den.  scan drops the symbols after
    y that packed does not use; a product of nonzero Polys uses them all."""
    if den is None:
        if all(c.is_rational() for c in packed.values()):
            den = lcm(*(c._den for c in packed.values()))
            packed = {e: c._coords[1] * (den // c._den) for e, c in packed.items()}
    elif den != 1:
        g = gcd(den, *packed.values())
        if g != 1:
            den //= g
            packed = {e: c // g for e, c in packed.items()}
    if scan and len(syms) > 2:
        o = reduce(or_, packed, 0)
        used = tuple(s for i, s in enumerate(syms) if i < 2 or o >> _W * i & _MASK)
        if len(used) < len(syms):
            packed, syms = _rekey(packed, syms, used), (_XY if len(used) == 2 else used)
    p = Poly.__new__(Poly)
    p.syms, p.packed, p.den = syms, packed, den
    return p


def _scalars(p: "Poly") -> dict[int, ConstScalar]:
    """The terms of p with ConstScalar coefficients."""
    if p.den is None:
        return p.packed
    return {e: _scalar({1: c}, p.den) for e, c in p.packed.items()}


def _joint(a: "Poly", b: "Poly") -> tuple[tuple, dict, dict]:
    """The symbol tuple of a and b together and the terms of each on it:
    the int numerators when both are rational, else the ConstScalar
    coefficients of both."""
    s, t = a.syms, b.syms
    fa, fb = a.packed, b.packed
    if (a.den is None) != (b.den is None):
        fa, fb = _scalars(a), _scalars(b)
    if s is t:
        return s, fa, fb
    u = _merge(s, t)
    return u, _rekey(fa, s, u), _rekey(fb, t, u)


def _lead(p: "Poly") -> int:
    """The key of the leading term under the graded-lex order."""
    return max(p.packed, key=_ranker(len(p.syms))) if len(p.packed) > 1 else next(iter(p.packed))


def _lc(p: "Poly") -> ConstScalar:
    """The coefficient of the leading term."""
    c = p.packed[_lead(p)]
    return c if p.den is None else _scalar({1: c}, p.den)


def _mono_gcd(keys, n: int) -> int:
    """The key of the largest monomial dividing every one of keys, on n
    fields: the least of each field."""
    if 0 in keys:
        return 0
    out = 0
    for s in range(0, _W * n, _W):
        out |= min(e >> s & _MASK for e in keys) << s
    return out


def _groups(p: "Poly", names) -> dict[int, dict]:
    """The terms of p by their monomial in the symbols names: the key of each
    such monomial to the terms that carry it, with it divided out."""
    inside = sum(_MASK << _W * i for i, s in enumerate(p.syms) if s in names)
    groups: dict[int, dict] = {}
    for e, c in p.packed.items():
        groups.setdefault(e & inside, {})[e & ~inside] = c
    return groups


# --------------------------------------------------------------------------
# Poly
# --------------------------------------------------------------------------

class Poly:
    """Sparse multivariate polynomial over ConstScalar: packed maps the key
    of each monomial on the symbol tuple syms to its nonzero coefficient.

    The coefficients come in one of two kinds.  When all are rational,
    packed holds int numerators over the integer den > 0, with
    gcd(den, *numerators) == 1; when one carries a radical, packed holds
    ConstScalars and den is None.  Either way the form is canonical, so
    equality and hashing are structural.

    terms is the same polynomial keyed by ((symbol, exponent), ...) tuples
    with ConstScalar coefficients, a view for readers outside the package."""

    __slots__ = ("syms", "packed", "den")

    def __init__(self, syms: tuple[str, ...] = _XY,
                 packed: dict[int, ConstScalar] | None = None):
        """The ConstScalar terms packed, keyed on syms (x, y, then other
        symbols in alphabetical order); zero terms and unused symbols are
        dropped, and an exponent past _EXP_MAX raises OverflowError."""
        packed = {e: c for e, c in (packed or {}).items() if not c.is_zero()}
        if packed and (reduce(or_, packed) & _guard(len(syms)) or max(packed) >> _W * len(syms)):
            raise OverflowError(f"an exponent passes {_EXP_MAX} or a key has fields past {syms}")
        p = _canon(tuple(syms), packed, None)
        self.syms, self.packed, self.den = p.syms, p.packed, p.den

    # -- constructors

    @classmethod
    def const(cls, c: ConstScalar) -> "Poly":
        return cls.rational(c.rational_value()) if c.is_rational() else _canon(_XY, {0: c}, None)

    @classmethod
    def rational(cls, q) -> "Poly":
        q = q if isinstance(q, (int, Fraction)) else Fraction(q)
        return _canon(_XY, {0: q.numerator}, q.denominator, False) if q else Poly.ZERO

    @classmethod
    def symbol(cls, name: str, exp: int = 1) -> "Poly":
        """name^exp; an Unknown name keeps its kind."""
        if exp > _EXP_MAX:
            raise OverflowError(f"the exponent {exp} passes {_EXP_MAX}")
        if not exp:
            return Poly.ONE
        if name in _XY:
            return _canon(_XY, {exp << _W * (name == "y"): 1}, 1)
        return _canon(_XY + (name,), {exp << 2 * _W: 1}, 1)

    ZERO: "Poly"
    ONE: "Poly"

    # -- views

    def is_zero(self) -> bool:
        return not self.packed

    def is_const(self) -> bool:
        return not self.packed or (len(self.packed) == 1 and 0 in self.packed)

    def const_value(self) -> ConstScalar:
        if not self.packed:
            return ConstScalar.ZERO
        if self.is_const():
            return _lc(self)
        raise ValueError(f"{self} is not constant")

    @property
    def terms(self) -> dict[tuple[tuple[str, int], ...], ConstScalar]:
        return {tuple(_fields(e, self.syms)): c for e, c in _scalars(self).items()}

    def symbols(self) -> set[str]:
        o = reduce(or_, self.packed, 0)
        return {s for i, s in enumerate(self.syms) if o >> _W * i & _MASK}

    def leading_term(self) -> tuple["Poly", ConstScalar]:
        """The leading monomial under the graded-lex order, and its coefficient."""
        if not self.packed:
            raise ValueError("leading term of zero polynomial")
        return _canon(self.syms, {_lead(self): 1}, 1), _lc(self)

    def is_linear(self) -> bool:
        """Total degree 1 (irreducible): every key 0 or one field at 1."""
        return not self.is_const() and all(
            not e or not e & e - 1 and (e.bit_length() - 1) % _W == 0 for e in self.packed)

    def radicals(self) -> set[int]:
        out: set[int] = set()
        for c in _scalars(self).values():
            out |= c.radicals()
        return out

    def denominator(self) -> int:
        """The least positive integer whose multiple of self has integer
        coefficients."""
        if self.den is not None:
            return self.den
        return lcm(*(c._den for c in self.packed.values()))

    # -- ring operations

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other."""
        syms, a, b = _joint(self, other)
        d1, d2 = self.den, other.den
        if d1 is None or d2 is None:
            out = dict(a)
            for e, c in b.items():
                s = out.get(e, ConstScalar.ZERO) + (c if sign > 0 else -c)
                if s:
                    out[e] = s
                else:
                    del out[e]
            return _canon(syms, out, None)
        d = d1 if d1 == d2 else lcm(d1, d2)  # over the lcm of the denominators
        f1, f2 = d // d1, sign * (d // d2)
        out = dict(a) if f1 == 1 else {e: c * f1 for e, c in a.items()}
        get = out.get
        for e, c in b.items():
            s = get(e, 0) + c * f2
            if s:
                out[e] = s
            else:
                del out[e]
        return _canon(syms, out, d)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return _canon(self.syms, {e: -c for e, c in self.packed.items()}, self.den, False)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.packed or not other.packed:
            return Poly.ZERO
        syms, a, b = _joint(self, other)
        rational = self.den is not None and other.den is not None
        den = self.den * other.den if rational else None
        if len(a) == 1 and 0 in a:
            a, b = b, a
        if len(b) == 1 and 0 in b:  # a constant factor scales
            k = b[0]
            return _canon(syms, {e: c * k for e, c in a.items()}, den, False)
        out = {}
        get, zero = out.get, 0 if rational else ConstScalar.ZERO
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = get(e, zero) + c1 * c2
        out = {e: c for e, c in out.items() if c}
        if out and reduce(or_, out) & _guard(len(syms)):
            raise OverflowError(f"an exponent of a product passes {_EXP_MAX}")
        return _canon(syms, out, den, False)

    @staticmethod
    def dot(terms) -> "Poly":
        """The sum of s*b*c over the triples (b, c, s), s an int, in one pass
        over the products, with an exponent guard and one canonical form: on
        the joint symbol tuple, over the lcm of the denominators, or on
        ConstScalars once a radical enters.  A constant c scales b, with no
        inner loop."""
        syms, d = _XY, 1  # d None once a radical enters
        for b, c, _ in terms:
            if b.syms is not _XY or c.syms is not _XY:
                syms = _merge(_merge(syms, b.syms), c.syms)
            if b.den != 1 or c.den != 1:
                d = None if d is None or b.den is None or c.den is None else lcm(d, b.den * c.den)
        out, zero, grown = {}, 0 if d is not None else ConstScalar.ZERO, False
        get = out.get
        for b, c, s in terms:
            bp, cp = b.packed, c.packed
            const = len(cp) == 1 and 0 in cp
            if d != 1:
                if d is not None:
                    s *= d // (b.den * c.den)
                else:  # ConstScalars, but an int constant c stays an int
                    bp = _scalars(b)
                    if not const or c.den != 1:
                        cp = _scalars(c)
            if syms is not _XY:  # keys on x and y alone stand on any tuple
                bp, cp = _rekey(bp, b.syms, syms), _rekey(cp, c.syms, syms)
            if const:
                k = s * cp[0]
                if out:
                    for e, v in bp.items():
                        out[e] = get(e, zero) + k * v
                else:
                    out = dict(bp) if k == 1 else {e: k * v for e, v in bp.items()}
                    get = out.get
                continue
            grown, items = True, cp.items()
            for e1, v1 in bp.items():
                v1 = s * v1
                for e2, v2 in items:
                    e = e1 + e2
                    out[e] = get(e, zero) + v1 * v2
        if d is None or 0 in out.values():
            out = {e: v for e, v in out.items() if v}
        if grown and out and reduce(or_, out) & _guard(len(syms)):  # no operand's key has one
            raise OverflowError(f"an exponent of a product passes {_EXP_MAX}")
        return _canon(syms, out, d, syms is not _XY)

    def scale(self, c: ConstScalar) -> "Poly":
        if c.is_zero():
            return Poly.ZERO
        if self.den is not None and c.is_rational():
            return self.scale_rational(c.rational_value())
        return _canon(self.syms, {e: q * c for e, q in _scalars(self).items()}, None, False)

    def scale_rational(self, q) -> "Poly":
        """self times the int or Fraction q."""
        if not q:
            return Poly.ZERO
        if self.den is None:
            return self.scale(ConstScalar.from_rational(q))
        n = q.numerator
        return _canon(self.syms, {e: c * n for e, c in self.packed.items()},
                      self.den * q.denominator, False)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Poly.ONE)

    def swap_xy(self) -> "Poly":
        """self with x and y exchanged: the fields 0 and 1 of each key."""
        low = (1 << 2 * _W) - 1
        return _canon(self.syms, {e & ~low | (e & _MASK) << _W | e >> _W & _MASK: c
                                  for e, c in self.packed.items()}, self.den, False)

    def at(self, v: str, c: ConstScalar) -> "Poly":
        """self with the constant c put in for the symbol v, in one pass over
        the terms: a rational c = n/d over den * d^top, top the degree in v."""
        if not self.packed or v not in self.syms:
            return self
        shift = _W * self.syms.index(v)
        if not c:
            return _canon(self.syms, {e: t for e, t in self.packed.items()
                                      if not e >> shift & _MASK}, self.den)
        top = max(e >> shift & _MASK for e in self.packed)
        if self.den is not None and c.is_rational():
            q = c.rational_value()
            pw = [q.numerator ** k * q.denominator ** (top - k) for k in range(top + 1)]
            terms, den, zero = self.packed.items(), self.den * q.denominator ** top, 0
        else:
            pw = [c ** k for k in range(top + 1)]
            terms, den, zero = _scalars(self).items(), None, ConstScalar.ZERO
        rest, out = ~(_MASK << shift), {}
        get = out.get
        for e, t in terms:
            k = e & rest
            out[k] = get(k, zero) + t * pw[e >> shift & _MASK]
        return _canon(self.syms, {e: t for e, t in out.items() if t}, den)

    # -- calculus

    def partial(self, v: str) -> "Poly":
        """dp/dv, the algebraic partial derivative in the symbol v (an
        unknown's jets are independent symbols here)."""
        if v not in self.syms:
            return Poly.ZERO
        shift = _W * self.syms.index(v)
        one, rational = 1 << shift, self.den is not None
        out = {}
        for e, c in self.packed.items():
            k = e >> shift & _MASK
            if k:
                out[e - one] = c * k if rational else c.scale(k)
        return _canon(self.syms, out, self.den)

    def diff(self, var: str) -> "Poly":
        """d/dvar for var x or y: the partial in var, plus, for each unknown
        function u, the partial in u times u's next jet."""
        out = self.partial(var)
        for u in self.syms[2:]:
            if isinstance(u, Unknown):
                out = out + self.partial(u) * Poly.symbol(u.diff(var))
        return out

    def diff_along(self, c) -> "Poly":
        """self.diff("x") - c*self.diff("y") for an int or Fraction c, in one
        pass over the terms when no unknown function adds chain-rule terms."""
        if any(isinstance(u, Unknown) for u in self.syms[2:]):
            return self.diff("x") - self.diff("y").scale_rational(c)
        rational, out = self.den is not None, {}
        fx, fy = (c.denominator, c.numerator) if rational else (1, c)  # over den * fx
        get, zero = out.get, 0 if rational else ConstScalar.ZERO
        for e, v in self.packed.items():
            kx, ky = e & _MASK, e >> _W & _MASK
            if kx:
                out[e - 1] = get(e - 1, zero) + kx * fx * v
            if ky and fy:
                out[e - _Y] = get(e - _Y, zero) - ky * fy * v
        return _canon(self.syms, {e: v for e, v in out.items() if v},
                      self.den * fx if rational else None)

    # -- division and gcd

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact quotient; raises ValueError when the division is not exact."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_const():
            return self.scale(other.const_value().inverse())
        syms, f, g = _joint(self, other)
        den = None
        if self.den is not None and other.den is not None:
            # over Z by the primitive part of other: (F/d1) / (cg*G'/d2) = (F/G')*d2 / (d1*cg)
            cg = gcd(*g.values())
            if cg != 1:
                g = {e: c // cg for e, c in g.items()}
            den = self.den * cg
        q = _zp_quo(f, g)
        if q is None:
            raise ValueError("inexact polynomial division")
        if den is not None and other.den != 1:
            q = {e: c * other.den for e, c in q.items()}
        return _canon(syms, q, den)

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.packed:
            return self
        c = self.packed[_lead(self)]
        if self.den is None:
            return self.scale(c.inverse())
        if c < 0:  # (F/d) / (c/d) = F/c over the positive -c
            return _canon(self.syms, {e: -v for e, v in self.packed.items()}, -c, False)
        return _canon(self.syms, self.packed, c, False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.den == other.den
                and self.packed == other.packed and self.syms == other.syms)

    def __hash__(self) -> int:
        return hash((self.syms, self.den, frozenset(self.packed.items())))

    def __str__(self) -> str:
        return poly_str(self)

    __repr__ = __str__


Poly.ZERO = Poly()
Poly.ONE = Poly.rational(1)


# -- univariate views (used by the gcd machinery) ---------------------------

def _univar(p: Poly, v: str) -> list[Poly]:
    """Coefficients of p as a polynomial in v, ascending, as Polys without v."""
    if v not in p.syms:
        return [p]
    shift = _W * p.syms.index(v)
    keep = ~(_MASK << shift)
    coeffs: list[dict] = [{} for _ in range(max(e >> shift & _MASK for e in p.packed) + 1)]
    for e, c in p.packed.items():
        coeffs[e >> shift & _MASK][e & keep] = c
    return [_canon(p.syms, t, p.den) for t in coeffs]


def _from_univar(coeffs: list[Poly], v: str) -> Poly:
    return Poly.dot([(c, Poly.symbol(v, e), 1) for e, c in enumerate(coeffs)])


def _trim(coeffs: list[Poly]) -> list[Poly]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _prem(f: list[Poly], g: list[Poly]) -> list[Poly]:
    """prem(f, g) = lc(g)^(deg f - deg g + 1) * f  mod g, computed stably."""
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return list(f)
    lg = g[-1]
    r = list(f)
    e = df - dg + 1
    while r and len(r) - 1 >= dg:
        lead = r[-1]
        shift = len(r) - 1 - dg
        r = [c * lg for c in r[:-1]]
        for i in range(dg):
            r[shift + i] = r[shift + i] - lead * g[i]
        r = _trim(r)
        e -= 1
    if e > 0:
        m = lg ** e
        r = [c * m for c in r]
    return r


def _content_pp(p: Poly, v: str) -> tuple[Poly, list[Poly]]:
    """Content (gcd of v-coefficients) and primitive part of p in v."""
    coeffs = _univar(p, v)
    cont = Poly.ZERO
    for c in coeffs:
        if not c.is_zero():
            cont = poly_gcd(cont, c)
            if cont.is_const():  # a monic constant: 1
                break
    if cont.is_zero():
        return Poly.ZERO, []
    pp = [c.exact_div(cont) if not c.is_zero() else c for c in coeffs]
    return cont, _trim(pp)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd.  An input of total degree 1 is irreducible: the gcd is
    that input when it divides the other, else 1.  A symbol one input lacks
    leaves the gcd of that input and the other's coefficients in it.  Then,
    past the common monomial part, rational inputs take the integer heuristic
    gcd and the rest (or a case it gives up on) the subresultant PRS."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_const() or b.is_const():
        return Poly.ONE
    syms, fa, fb = _joint(a, b)
    if fa == fb:
        return a.monic()
    for lin, other in ((b, a), (a, b)):
        if lin.is_linear():
            try:
                other.exact_div(lin)
            except ValueError:
                return Poly.ONE
            return lin.monic()
    if a.syms != b.syms:  # beyond x and y, syms holds exactly the symbols in use
        for p, q in ((a, b), (b, a)):
            only = set(p.syms).difference(q.syms)
            if only:  # a common factor is free of them, so it divides each coefficient
                for t in _groups(p, only).values():
                    q = poly_gcd(q, _canon(p.syms, t, p.den))
                    if q.is_const():
                        return Poly.ONE
                return q
    # strip the common monomial part first; it is the whole answer when
    # either argument is a single term
    n = len(syms)
    ma, mb = _mono_gcd(fa, n), _mono_gcd(fb, n)
    mg = _mono_gcd((ma, mb), n)
    if len(fa) == 1 or len(fb) == 1:
        return _canon(syms, {mg: 1}, 1)
    da, db = (a.den, b.den) if (a.den is None) == (b.den is None) else (None, None)
    if ma:
        a = _canon(syms, {e - ma: c for e, c in fa.items()}, da)
    if mb:
        b = _canon(syms, {e - mb: c for e, c in fb.items()}, db)
    g = _int_gcd(a, b) or _prs_gcd(a, b)
    return g * _canon(syms, {mg: 1}, 1) if mg else g


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of non-constant a and b via content/primitive-part
    recursion with a subresultant remainder sequence in one variable."""
    syms, pa, pb = _joint(a, b)
    o = reduce(or_, pa) | reduce(or_, pb)
    v = syms[((o & -o).bit_length() - 1) // _W]  # the first symbol in use
    ca, fa = _content_pp(a, v)
    cb, fb = _content_pp(b, v)
    cont = poly_gcd(ca, cb)
    if len(fa) - 1 == 0 or len(fb) - 1 == 0:
        return cont.monic()
    if len(fa) < len(fb):
        fa, fb = fb, fa
    # subresultant PRS
    g = Poly.ONE
    h = Poly.ONE
    F, G = fa, fb
    while True:
        delta = (len(F) - 1) - (len(G) - 1)
        R = _prem(F, G)
        if not R:
            break
        if len(R) - 1 == 0:
            G = [Poly.ONE]
            break
        divisor = g * (h ** delta)
        F, G = G, [c.exact_div(divisor) for c in R]
        g = F[-1]
        if delta:
            h = (g ** delta).exact_div(h ** (delta - 1))
    if len(G) - 1 == 0:
        return cont.monic()
    gp = _from_univar(G, v)
    _, gpp = _content_pp(gp, v)
    return (cont * _from_univar(gpp, v)).monic()


# -- integer heuristic gcd ----------------------------------------------------

ZPoly = dict[int, int]  # an integer polynomial: a rational Poly's packed numerators

# evaluation points tried per level before the heuristic gives up
_HEU_TRIES = 6


def _int_gcd(a: Poly, b: Poly) -> Poly | None:
    """Monic gcd of rational a and b by GCDHEU over Z; None when a
    coefficient carries a radical or the heuristic gives up."""
    if a.den is None or b.den is None:
        return None
    syms, f, g = _joint(a, b)
    h = _heu_gcd(f, g)
    return None if h is None else _canon(syms, h, 1).monic()


def _heu_gcd(f: ZPoly, g: ZPoly) -> ZPoly | None:
    """gcd over Z of nonzero f and g (Char, Geddes and Gonnet 1989), or None
    when no evaluation point succeeds.

    The last variable is evaluated at an integer xi, the gcd of the images
    is found recursively, and the candidate is rebuilt xi-adically from it.
    With xi >= 2*min(|f|, |g|) + 2 for primitive f and g, a primitive
    candidate that divides both is their gcd (Geddes, Czapor and Labahn,
    Algorithms for Computer Algebra, 1992, section 7.7), so a candidate is
    accepted only after exact division."""
    n = (max(max(f), max(g)).bit_length() + _W - 1) // _W  # the fields in use
    if n == 0:
        return {0: gcd(f[0], g[0])}
    cf, cg = gcd(*f.values()), gcd(*g.values())
    if cf != 1:
        f = {e: c // cf for e, c in f.items()}
    if cg != 1:
        g = {e: c // cg for e, c in g.items()}
    content = gcd(cf, cg)
    shift = _W * (n - 1)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        ff, gg = _zp_eval_last(f, xi, shift), _zp_eval_last(g, xi, shift)
        if ff and gg:
            hh = _heu_gcd(ff, gg)
            h = None if hh is None else _zp_interpolate(hh, xi, shift)
            if h is None:
                return None
            ch = gcd(*h.values())
            if ch != 1:
                h = {e: c // ch for e, c in h.items()}
            if _zp_quo(f, h) is not None and _zp_quo(g, h) is not None:
                if content != 1:
                    h = {e: c * content for e, c in h.items()}
                return h
        xi = xi * 73794 // 27011
    return None


def _zp_eval_last(f: ZPoly, xi: int, shift: int) -> ZPoly:
    """f with its last variable, the field at shift, set to xi."""
    low = (1 << shift) - 1
    powers = [1]
    out: ZPoly = {}
    for e, c in f.items():
        k = e >> shift
        while len(powers) <= k:
            powers.append(powers[-1] * xi)
        rest = e & low
        out[rest] = out.get(rest, 0) + c * powers[k]
    return {e: c for e, c in out.items() if c}


def _zp_interpolate(h: ZPoly, xi: int, shift: int) -> ZPoly | None:
    """The polynomial in one more (last) variable, the field at shift, whose
    coefficients are the symmetric base-xi digits of h's; None past _EXP_MAX."""
    half = xi // 2
    out: ZPoly = {}
    k = 0
    while h:
        if k > _EXP_MAX:
            return None
        rest: ZPoly = {}
        for e, c in h.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e | k << shift] = r
            c = (c - r) // xi
            if c:
                rest[e] = c
        h = rest
        k += 1
    return out


def _zp_quo(f: dict, h: dict) -> dict | None:
    """f / h when h divides f exactly (lexicographic division), else None:
    over Z for int coefficients, over their field for ConstScalar ones."""
    lh = max(h)
    lc = h[lh]
    field = isinstance(lc, ConstScalar)
    if not lh and not field:  # a constant divides coefficient by coefficient
        return None if any(c % lc for c in f.values()) else {e: c // lc for e, c in f.items()}
    inv = lc.inverse() if field else None
    quo = {}
    # the guard bits of the fields up to lh's last; a key of f has none set,
    # and one set in the remainder means an exponent above f's, so no quotient
    guard = _guard((lh.bit_length() + _W - 1) // _W)
    rest = [(e, c) for e, c in h.items() if e != lh]
    rem = dict(f)
    # min-heap on negated keys: pops the lexicographically largest
    heap = [-e for e in rem]
    heapify(heap)
    while heap:
        e = -heappop(heap)
        c = rem.pop(e, None)
        if c is None:
            continue
        if e & guard or (e + guard - lh) & guard != guard:
            return None
        if field:
            qc = c * inv
        else:
            qc, r = divmod(c, lc)
            if r:
                return None
        q = e - lh
        quo[q] = qc
        for he, hc in rest:
            m, t = q + he, qc * hc
            v = rem.get(m)
            if v is None:
                heappush(heap, -m)
                rem[m] = -t
            elif v == t:
                del rem[m]
            else:
                rem[m] = v - t
    return quo


# -- polynomial square root -------------------------------------------------

def poly_sqrt(p: Poly) -> Poly | None:
    """Exact square root of a polynomial, or None when p is not a square.

    The leading coefficient's square root may adjoin a radical.
    """
    if p.is_zero():
        return Poly.ZERO
    syms = p.syms
    rank, guard = _ranker(len(syms)), _guard(len(syms))
    lm = _lead(p)
    if lm & guard >> _W - 1:  # an odd exponent
        return None
    half = lm >> 1
    c = _lc(p).sqrt()
    if c is None:
        return None
    root = _canon(syms, {half: c}, None)
    twice_inv = (c + c).inverse()
    last = rank(lm)
    try:  # the partial roots of a square square within the exponent bound
        rem = p - root * root
        while not rem.is_zero():
            terms = _rekey(_scalars(rem), rem.syms, syms)
            rm = max(terms, key=rank)
            if rank(rm) >= last or (rm + guard - half) & guard != guard:
                return None
            last = rank(rm)
            root = root + _canon(syms, {rm - half: terms[rm] * twice_inv}, None)
            rem = p - root * root
    except OverflowError:
        return None
    return root


# --------------------------------------------------------------------------
# RatExpr
# --------------------------------------------------------------------------

class RatExpr:
    """A rational function in canonical form.

    The fraction num/den is reduced (gcd is a unit) and den is monic under
    the graded-lex term order, so equal values always have identical
    representations and equality is structural.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den
        self._hash: int | None = None

    @classmethod
    def _reduce(cls, num: Poly, den: Poly) -> "RatExpr":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero() and not den.is_const():
            g = poly_gcd(num, den)
            if not g.is_const():
                num, den = num.exact_div(g), den.exact_div(g)
        return cls._fast(num, den)

    # -- constructors

    @classmethod
    def from_poly(cls, p: Poly) -> "RatExpr":
        return cls(p, Poly.ONE)

    @classmethod
    def from_int(cls, n: int) -> "RatExpr":
        return cls.from_poly(Poly.rational(n))

    @classmethod
    def from_fraction(cls, q) -> "RatExpr":
        return cls.from_poly(Poly.rational(Fraction(q)))

    @classmethod
    def from_const(cls, c: ConstScalar) -> "RatExpr":
        return cls.from_poly(Poly.const(c))

    @classmethod
    def symbol(cls, name: str) -> "RatExpr":
        return cls.from_poly(Poly.symbol(name))

    @classmethod
    def unknown(cls, name: str) -> "RatExpr":
        """The unknown function name(x, y), which differentiates into its
        jets name_x, name_y, name_xy, ..."""
        return cls.symbol(Unknown(name))

    @classmethod
    def sqrt_int(cls, d: int) -> "RatExpr":
        return cls.from_const(ConstScalar.radical(d))

    ZERO: "RatExpr"
    ONE: "RatExpr"
    X: "RatExpr"
    Y: "RatExpr"

    # -- views

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self == RatExpr.ONE

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> ConstScalar:
        if not self.is_const():
            raise ValueError(f"{self} is not constant")
        return self.num.const_value()

    def is_rational(self) -> bool:
        return self.is_const() and self.num.den is not None  # the rational kind of Poly

    def rational_value(self) -> Fraction:
        return (Fraction(self.num.packed.get(0, 0), self.num.den) if self.is_rational()
                else self.const_value().rational_value())  # raises: not a rational constant

    def symbols(self) -> set[str]:
        return self.num.symbols() | self.den.symbols()

    def radicals(self) -> set[int]:
        return self.num.radicals() | self.den.radicals()

    # -- field operations

    def __add__(self, other: "RatExpr") -> "RatExpr":
        d1, d2 = self.den, other.den
        if d1.is_const():
            if d2.is_const():
                return RatExpr(self.num + other.num, Poly.ONE)
            return RatExpr._fast(self.num * d2 + other.num, d2)
        if d2.is_const():
            return RatExpr._fast(self.num + other.num * d1, d1)
        if d1 == d2:
            num = self.num + other.num
            if num.is_zero():
                return RatExpr.ZERO
            g = poly_gcd(num, d1)
            if g.is_const():
                return RatExpr(num, d1)
            return RatExpr._fast(num.exact_div(g), d1.exact_div(g))
        # reduced fractions: only gcd(den, den) can survive into the sum
        g = poly_gcd(d1, d2)
        if g.is_const():
            return RatExpr._fast(self.num * d2 + other.num * d1, d1 * d2)
        d2r = d2.exact_div(g)
        t = self.num * d2r + other.num * d1.exact_div(g)
        g2 = poly_gcd(t, g)
        if g2.is_const():
            return RatExpr._fast(t, d1 * d2r)
        return RatExpr._fast(t.exact_div(g2), d1.exact_div(g2) * d2r)

    def __neg__(self) -> "RatExpr":
        return RatExpr(-self.num, self.den)

    def __sub__(self, other: "RatExpr") -> "RatExpr":
        return self + (-other)

    def __mul__(self, other: "RatExpr") -> "RatExpr":
        if self.num.is_zero() or other.num.is_zero():
            return RatExpr.ZERO
        d1, d2 = self.den, other.den
        n1, n2 = self.num, other.num
        if d1.is_const():
            if d2.is_const():
                return RatExpr(n1 * n2, Poly.ONE)
            if n1.is_const():  # a constant keeps the fraction reduced and monic
                return RatExpr(n1 * n2, d2)
        elif d2.is_const() and n2.is_const():
            return RatExpr(n1 * n2, d1)
        # cross-reduce: each fraction is already reduced
        g1 = poly_gcd(n1, d2)
        if not g1.is_const():
            n1 = n1.exact_div(g1)
            d2 = d2.exact_div(g1)
        g2 = poly_gcd(n2, d1)
        if not g2.is_const():
            n2 = n2.exact_div(g2)
            d1 = d1.exact_div(g2)
        return RatExpr._fast(n1 * n2, d1 * d2)

    def __truediv__(self, other: "RatExpr") -> "RatExpr":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return self * other.inverse()

    def inverse(self) -> "RatExpr":
        if self.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatExpr._fast(self.den, self.num)

    @classmethod
    def _fast(cls, num: Poly, den: Poly) -> "RatExpr":
        """Assemble a fraction already known to be reduced, normalizing the
        denominator to be monic (or constant 1)."""
        if num.is_zero():
            return cls.ZERO
        if den.is_const():
            return cls(num.scale(den.const_value().inverse()), Poly.ONE)
        lc = _lc(den)
        if not (lc == ConstScalar.ONE):
            inv = lc.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        return cls(num, den)

    def __pow__(self, n: int) -> "RatExpr":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, RatExpr.ONE)

    # -- calculus

    def diff(self, var: str) -> "RatExpr":
        """Partial derivative: parameters are constant, unknowns give their jets."""
        return self.derive(lambda p: p.diff(var))

    def derive(self, d) -> "RatExpr":
        """The image under d, a derivation of Polys, by the quotient rule."""
        dn = d(self.num)
        if self.den is Poly.ONE or self.den.is_const():
            return RatExpr(dn, Poly.ONE) if self.den is Poly.ONE \
                else RatExpr._reduce(dn, self.den)
        dd = d(self.den)
        if dd.is_zero():
            return RatExpr._reduce(dn, self.den)
        # for den = g*e with g = gcd(den, den'), the derivative reduces to
        # (num' e - num den'/g) / (den e), avoiding the blind den^2 gcd
        g = poly_gcd(self.den, dd)
        if g.is_const():
            return RatExpr._reduce(dn * self.den - self.num * dd,
                                   self.den * self.den)
        e = self.den.exact_div(g)
        h = dd.exact_div(g)
        return RatExpr._reduce(dn * e - self.num * h, self.den * e)

    def substitute(self, assignments: dict[str, "RatExpr"]) -> "RatExpr":
        """Simultaneous substitution of expressions for symbols: num and den
        on the Poly layer, both times the same power of each value's
        denominator, then one reduction."""
        table, ks = {}, {s: max(_degree_in(self.num, s), _degree_in(self.den, s))
                         for s, v in assignments.items() if not v.den.is_const()}
        num, den = (_poly_substitute(p, assignments, table, ks) for p in (self.num, self.den))
        if den.is_zero():
            raise ZeroDivisionError("denominator vanishes under substitution")
        return RatExpr._reduce(num, den)

    def swap_xy(self) -> "RatExpr":
        """self with x and y exchanged.  The swap is a ring automorphism, so
        the fraction stays reduced; only the leading term of its denominator
        can move, and _fast makes it monic again."""
        return RatExpr._fast(self.num.swap_xy(), self.den.swap_xy())

    def perfect_square_root(self) -> "RatExpr | None":
        """r with r*r == self when num and den are perfect squares.

        The root may carry radicals that self does not, such as sqrt(2)*x
        for 2*x^2.  Returns None when no such root is found (not an error).
        """
        if self.is_zero():
            return RatExpr.ZERO
        rn = poly_sqrt(self.num)
        if rn is None:
            return None
        rd = poly_sqrt(self.den)
        if rd is None:
            return None
        r = RatExpr._reduce(rn, rd)
        return r if r * r == self else None

    # -- structure helpers

    def as_poly_in(self, names: set[str]) -> dict[Poly, "RatExpr"]:
        """View as a polynomial in the given symbols with RatExpr coefficients,
        keyed by monomial (a Poly with coefficient 1) in the order of first
        appearance.

        Raises ValueError when any of the symbols occurs in the denominator.
        """
        if self.den.symbols() & names:
            raise ValueError("denominator involves the grouping symbols")
        syms = self.num.syms
        return {_canon(syms, {m: 1}, 1): RatExpr._reduce(_canon(syms, t, self.num.den), self.den)
                for m, t in _groups(self.num, names).items()}

    # -- comparison / hashing / display

    def __eq__(self, other) -> bool:
        return isinstance(other, RatExpr) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __str__(self) -> str:
        return fraction_str(self.num, self.den)

    __repr__ = __str__


def _poly_substitute(p: Poly, assignments: dict[str, RatExpr], table: dict,
                     ks: dict[str, int]) -> Poly:
    """p at the values assignments, times prod den_s^ks[s], where ks[s] is at
    least the degree of p in s for each s whose value has a nonconstant
    denominator.  The terms are grouped by their monomial in the assigned
    symbols, and table[s] holds the powers (num^k, den^k) of the value of s,
    taken once per substitution."""
    fields = [(_W * i, s) for i, s in enumerate(p.syms) if s in assignments]
    out = Poly.ZERO
    for m, rest in _groups(p, assignments).items():
        term = _canon(p.syms, rest, p.den)
        exps = {s: m >> w & _MASK for w, s in fields}
        for s, k in exps.items():
            if k:
                term = term * _value_power(table, s, assignments[s], k)[0]
        for s, k in ks.items():
            if k > exps.get(s, 0):
                term = term * _value_power(table, s, assignments[s], k - exps.get(s, 0))[1]
        out = out + term
    return out


def _value_power(table: dict, s: str, value: RatExpr, k: int) -> tuple[Poly, Poly]:
    """(num^k, den^k) of value, the value of s, kept in table[s]."""
    pw = table.setdefault(s, [(Poly.ONE, Poly.ONE)])
    while len(pw) <= k:
        pw.append((pw[-1][0] * value.num, pw[-1][1] * value.den))
    return pw[k]


def _degree_in(p: Poly, s: str) -> int:
    """The degree of p in the symbol s."""
    if s not in p.syms:
        return 0
    w = _W * p.syms.index(s)
    return max((e >> w & _MASK for e in p.packed), default=0)


def jet_assignments(base: str, candidate: RatExpr, symbols: set[str]) -> dict[str, RatExpr]:
    """Assignments replacing every jet of `base` occurring in `symbols` by the
    corresponding true derivative of `candidate`."""
    out: dict[str, RatExpr] = {}
    for s in symbols:
        if isinstance(s, Unknown) and s.base == base:
            val = candidate
            for var in "x" * s.orders[0] + "y" * s.orders[1]:
                val = val.diff(var)
            out[s] = val
    return out


RatExpr.ZERO = RatExpr(Poly.ZERO, Poly.ONE)
RatExpr.ONE = RatExpr(Poly.ONE, Poly.ONE)
RatExpr.X = RatExpr.symbol("x")
RatExpr.Y = RatExpr.symbol("y")


# --------------------------------------------------------------------------
# text forms: one joiner for every signed sum.  The plain forms are canonical
# (roots are ordered by them) and parse back to the value.
# --------------------------------------------------------------------------

class Spelling(NamedTuple):
    """How one output format writes the parts of a value."""

    times: str  # between the number, the radical and the symbols of a term
    radical: str  # sqrt(d) as a %-format of the square-free d (sqrt(-1) is i)
    frac: str | None  # num over den as a %-format of the two; None: num/den
    token: Callable[[str], str]  # a symbol or a symbol power, as written
    group: str  # a sum as a %-format: before a word, or of radical terms


PLAIN = Spelling("*", "sqrt(%d)", None, str, "(%s)")
# a subscript or exponent of two or more characters is braced: x^{10}, psi_{xx}
LATEX = Spelling(" ", r"\sqrt{%d}", r"\frac{%s}{%s}",
                 partial(re.sub, r"([_^])(\w{2,})", r"\1{\2}"), r"\left(%s\right)")


def signed_sum(pieces) -> str:
    """The pieces (negated, body) joined with + and -; 0 when there are none."""
    out = ""
    for neg, body in pieces:
        out += (" - " if neg else " + ") + body if out else ("-" if neg else "") + body
    return out or "0"


def term_pieces(pieces: list, word: str, times: str = "*", group: str = "(%s)") -> list:
    """The pieces of coefficient*word, the coefficient given by its own
    pieces.  A sum (two or more pieces) is grouped before a word and spliced
    in as it is where there is none; a lone piece keeps its sign in front,
    and a coefficient 1 is left out before a word."""
    if not word:
        return pieces
    if len(pieces) > 1:
        return [(False, group % signed_sum(pieces) + times + word)]
    (neg, body), = pieces
    return [(neg, word if body == "1" else body + times + word)]


def scalar_pieces(c: ConstScalar, sp: Spelling = PLAIN) -> list:
    """c term by term, each a rational times a radical, by ascending |d|."""
    out = []
    for d in sorted(c._coords, key=abs):
        q = Fraction(c._coords[d], c._den)
        rad = "" if d == 1 else "i" if d == -1 else sp.radical % d
        out += term_pieces([(q < 0, str(abs(q)))], rad, sp.times)
    return out


def poly_pieces(p: Poly, sp: Spelling = PLAIN) -> list:
    """p term by term in the term order, highest first.  A coefficient with
    two or more radical terms is grouped, also where it stands alone."""
    coeffs = _scalars(p)
    out = []
    for e in sorted(coeffs, key=_ranker(len(p.syms)), reverse=True):
        c = scalar_pieces(coeffs[e], sp)
        if len(c) > 1:
            c = [(False, sp.group % signed_sum(c))]
        mono = sp.times.join(sp.token(s if k == 1 else f"{s}^{k}") for s, k in _fields(e, p.syms))
        out += term_pieces(c, mono, sp.times)
    return out


def fraction_pieces(num: Poly, den: Poly, sp: Spelling = PLAIN) -> list:
    """num/den: the terms of num over 1, else one piece.  As num/den a
    numerator sum is parenthesized, and so is a denominator that is a sum or
    a product, so that the text parses back; the sign of a lone numerator
    term stands in front, also of a LaTeX fraction, whose numerator is
    never a lone group."""
    pieces = poly_pieces(num, sp)
    if den == Poly.ONE:
        return pieces
    den_s = signed_sum(poly_pieces(den, sp))
    if sp.frac and num.is_const():
        pieces = scalar_pieces(num.const_value(), sp)
    neg, body = pieces[0] if len(pieces) == 1 else (False, signed_sum(pieces))
    if sp.frac:
        return [(neg, sp.frac % (body, den_s))]
    if len(pieces) > 1:
        body = f"({body})"
    if len(den.packed) > 1 or _is_product(den):
        den_s = f"({den_s})"
    return [(neg, f"{body}/{den_s}")]


def _is_product(p: Poly) -> bool:
    """Whether the one term of p has two or more factors: its symbols, a
    rational other than 1 and -1, a radical, or a group of radical terms."""
    (e, c), = _scalars(p).items()
    n = len(_fields(e, p.syms))
    if len(c._coords) > 1:
        return n > 0
    (d, k), = c._coords.items()
    return n + (d != 1) + (abs(k) != c._den) > 1


def poly_str(p: Poly) -> str:
    return signed_sum(poly_pieces(p))


def fraction_str(num: Poly, den: Poly) -> str:
    return signed_sum(fraction_pieces(num, den))
