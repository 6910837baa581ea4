"""Order-reduction factorization of an operator into first-order * cofactor.

Writing an order-n operator as (Dx - w*Dy + p3) o B for a root w of the
characteristic polynomial, the coefficient equations split into levels.
The top level determines B's order-(n-1) coefficients by forward
substitution; the next level determines p3 (dividing by P'(w), whence the
simple-root hypothesis) together with B's next coefficients; every level
below contributes one more batch of coefficients plus exactly one surplus
equation, whose residual is a necessary condition of factorization.  An
order-n operator therefore carries n-1 condition residuals, and the
factorization exists iff they all vanish.

When the chosen root is multiple (P'(w) = 0 identically) the division is
impossible: one necessary precondition must vanish, p3 becomes a free
unknown function, and the leftover residuals are differential-polynomial
constraints on p3 -- generalized Riccati equations.  This module emits that
problem and can verify or complete a supplied candidate, but does not
solve differential equations beyond a small candidate search (zero,
constants, linear forms) used by the recursive factorizer: it substitutes
c1*x + c2*y + c3 once and puts constants in for the c's after that.

Nothing in the levels needs the pure-Dx coefficient a_{n,0} to be nonzero,
so every finite root is worked on the operator as given.  Only the root at
infinity, a factor led by Dy, changes variables: it is the root 0 of the
operator with x and y exchanged, and the swap is its own inverse, so one
renaming moves p3 there and the results back.  Each root goes through one
pipeline on one lane, `_attempt`: solve the top level, take p3 as given,
from the division by P'(w), or leave it free on the Riccati path, run the
descent and certify the result.  `factor_left`, `factor_all_roots`,
`factor_fully` and the command line share one walk over the roots, which
`factor_fully` searches once and hands down.  The top level's Horner sums
are the coefficients of P(W) / (W - w), one more step is the remainder
P(w) and the sums at w give P'(w), so P_n is read only by the root search
and for a caller's root that is multiple.

The lane, a LevelState, holds values N / Q^k over one common denominator,
as in Bareiss's fraction-free elimination, with Q the squarefree part of the
lcm of the denominators of w, p3 and op's coefficients: sums, products and
derivatives need no gcd, and a value is zero exactly when N is.  N is a
Poly, whose rational coefficients are ints over one integer denominator;
each value is one Poly.fma pass, its alignment by Q^d included, and below
level n-1 (L + p3)(p) in a - (L + p3)(p) is one product and one more pass.
The b's, a - L(p) over the top level's p, are taken once, for solve_p3 and
level n-1.  solve_p3 divides their sum weighed by w by P'(w) exactly when
the numerators allow, else reduces p3 (with no gcd when a numerator of
total degree 1 failed to divide) and widens Q to cover its denominator.
A value is read out once per output; Q is squarefree, so N / Q^k is reduced
when gcd(N, Q) is a unit, and then only its denominator is made monic; else
the common factor is divided out one gcd with a factor of Q at a time, one
trial division each when Q has total degree 1, as P'(w) at a constant w has
on linear coefficients.
The certificate, verify, is independent of the lane: LPDO.compose builds
factor o cofactor from the printed values, in one pass per cofactor
coefficient at a rational constant root or at infinity, and canonical forms
make its comparison with op exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum

from .expr import (
    ConstScalar,
    Poly,
    RatExpr,
    Unknown,
    _canon,
    _groups,
    _univar,
    jet_assignments,
    poly_gcd,
)
from .operator import LPDO, FirstOrderFactor
from .charpoly import (
    Root,
    RootSearch,
    char_poly,
    find_roots,
    split_roots,
)


class OutcomeStatus(Enum):
    FACTORED = "factored"
    CONDITIONS_FAIL = "conditions_fail"
    DEGENERATE = "degenerate"
    UNSUPPORTED_ROOT = "unsupported_root"


@dataclass(frozen=True)
class RiccatiProblem:
    """The degenerate-path reduction: constraints the free p3 must satisfy.

    Each constraint is a differential polynomial in the unknown and its
    formal derivatives (jet symbols of `unknown`), normalized so the
    leading jet monomial has coefficient 1; a candidate solves the problem
    exactly when every constraint vanishes under substitution.
    """

    unknown: str
    constraints: tuple[RatExpr, ...]
    necessary_precondition: RatExpr

    def check(self, candidate: RatExpr) -> tuple[RatExpr, ...]:
        """Residuals of the constraints at a concrete candidate."""
        out = []
        for c in self.constraints:
            subs = jet_assignments(self.unknown, candidate, c.symbols())
            out.append(c.substitute(subs))
        return tuple(out)


@dataclass(frozen=True)
class FactorizationOutcome:
    status: OutcomeStatus
    side: str = "left"
    root: Root | None = None
    factor: FirstOrderFactor | None = None
    cofactor: LPDO | None = None
    residuals: tuple[RatExpr, ...] = ()
    riccati: RiccatiProblem | None = None
    unresolved: tuple[RatExpr, ...] = ()
    certified: bool = False  # set once verify has found the product exact

    def nonzero_residuals(self) -> tuple[RatExpr, ...]:
        return tuple(r for r in self.residuals if not r.is_zero())


class DegenerateRoot(Exception):
    """Raised when p3 cannot be isolated because P'(w) vanishes."""


class CertificateError(ArithmeticError):
    """Raised when a FACTORED result fails its exact check, or when a lane
    is asked to hold a value whose denominator its Q does not cover: an
    engine fault, never a property of the input."""


# --------------------------------------------------------------------------
# the level solves
# --------------------------------------------------------------------------

def solve_top(op: LPDO, omega: RatExpr) -> dict[tuple[int, int], RatExpr]:
    """Top-level forward substitution: the order-(n-1) cofactor coefficients
    p_{n-1-k,k} = a_{n,0} w^k + a_{n-1,1} w^(k-1) + ... + a_{n-k,k}, as the
    LevelState of (op, omega) solves them, reduced."""
    state = LevelState(op, omega, None)
    if not state.at_root:
        raise ValueError("omega is not a root of P_n")
    return {jk: state.reduce(v) for jk, v in state.solved.items()}


def solve_p3(op: LPDO, omega: RatExpr, state: "LevelState | None" = None) -> RatExpr:
    """p3 = (b_{n-1,0} w^(n-1) + ... + b_{0,n-1}) / P'(w) for a simple root,
    where b_{n-1-k,k} = a_{n-1-k,k} - L(p_{n-1-k,k}) over the top level p.

    The sums run on state, the LevelState of (op, omega), built here when
    not given; it solves the top level itself.  The state keeps p3 for the
    descent."""
    s = state or LevelState(op, omega, None)
    if s.dp[0].is_zero():
        raise DegenerateRoot(
            "multiple root: p3 is not determined, switch to the Riccati path")
    acc = _ZERO
    for b in s.top_sums():
        acc = s.addmul(b, s.omega, acc)
    return s.divide_p3(acc, s.dp)


def _squarefree_lcm(dens) -> Poly:
    """Each irreducible factor of the lcm of the polynomials dens, once."""
    q = Poly.ONE
    for d in dens:
        if not d.is_const():
            q = d if q.is_const() else q * d.exact_div(poly_gcd(q, d))
    g = q
    for v in sorted(q.symbols()):  # q over gcd(q, dq/dv for every symbol v)
        g = poly_gcd(g, q.partial(v))
        if g.is_const():
            break
    return q if g.is_const() else q.exact_div(g)  # no division when every d is constant


_ZERO = (Poly.ZERO, 0)  # every operation tests is_zero first


class Lane:
    """Exact values over one common denominator Q.

    A value (N, k) stands for N / Q^k, with Q the squarefree part of the
    lcm of the denominators of the values the lane is built for; every
    denominator of their sums, products and derivatives divides a power of
    Q.  So a value is zero exactly when its numerator is, and only values
    read out are reduced, against Q rather than Q^k.  The numerators are
    Polys, with int numerators for rational values and the jets of an
    unknown function as symbols; a sum aligns the powers of Q inside its one
    Poly.fma pass."""

    def __init__(self, values: list[RatExpr]):
        self._set_q(_squarefree_lcm(
            dict.fromkeys(r.den for r in values if not r.den.is_const())))

    def _set_q(self, q: Poly) -> None:
        self.q = q
        self._powers = [Poly.ONE, q]
        self._qb = None  # (Q*B, D(Q)*B) for LevelState.L, computed once per Q

    def power(self, k: int) -> Poly:
        """Q^k."""
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] * self._powers[1])
        return self._powers[k]

    def _lift_den(self, d: Poly) -> tuple[Poly | None, int]:
        """(Q^k / d, k) for the least k with d | Q^k, the cofactor None
        when it is 1.

        Each pass divides d by its gcd with the squarefree Q, which takes
        one copy of every irreducible factor the two share, so k is the
        largest multiplicity in d, never more than deg d."""
        if d.is_const():  # canonical: the denominator is 1
            return None, 0
        if d == self.q:
            return None, 1
        k, rest = 0, d
        while not rest.is_const():
            g = poly_gcd(rest, self.q)
            if g.is_const():  # a factor of d outside Q, which no pass can peel off
                raise CertificateError(f"denominator {d} does not divide a power of {self.q}")
            rest = rest.exact_div(g)
            k += 1
        return self.power(k).exact_div(d), k

    def lift(self, r: RatExpr) -> tuple[Poly, int]:
        co, k = self._lift_den(r.den)
        return (r.num if co is None else r.num * co), k

    def reduce(self, u: tuple[Poly, int]) -> RatExpr:
        """N / Q^k in canonical form: with Q squarefree it is reduced when
        gcd(N, Q) is a unit, and then only its denominator is made monic.
        Else the common factor is g1*...*gm, m <= k, with g1 = gcd(N, Q)
        and g(i+1) = gcd(N / (g1*...*gi), gi), each a gcd with a factor of
        Q, and the denominator is Q^(k-m) times the Q / gi.  When Q has
        total degree 1, poly_gcd settles each gcd by one trial division."""
        n, k = u
        if n.is_zero():
            return RatExpr.ZERO
        if not k:
            return RatExpr(n, Poly.ONE)
        g, den = poly_gcd(n, self.q), Poly.ONE
        if g.is_const():
            return RatExpr._fast(n, self.power(k))
        while k and not g.is_const():
            n, den, k = n.exact_div(g), den * self.q.exact_div(g), k - 1
            g = poly_gcd(n, g)
        return RatExpr._fast(n, den * self.power(k))

    def add(self, u, v, sign: int = 1):
        """u + sign*v, over the larger power of Q."""
        (n1, k1), (n2, k2) = u, v
        if n2.is_zero():
            return u
        if n1.is_zero():
            return v if sign > 0 else (-n2, k2)
        if k1 < k2:  # n1*Q^d + sign*n2
            return n2.fma(n1, self.power(k2 - k1), 1, sign < 0), k2
        if k2 < k1:
            return n1.fma(n2, self.power(k1 - k2), sign), k1
        return (n1 + n2 if sign > 0 else n1 - n2), k1

    def addmul(self, u, v, w, sign: int = 1):
        """u + sign*v*w, in one pass when u and v*w sit over one power of Q."""
        (n, k), (nv, kv), (nw, kw) = u, v, w
        if nv.is_zero() or nw.is_zero():
            return u
        if k != kv + kw:
            return self.add(u, (nv * nw, kv + kw), sign)
        return n.fma(nv, nw, sign), k


class LevelState(Lane):
    """One attempt on one lane: omega, p3 (None for solve_p3 to fill in),
    all of op's coefficients and the cofactor coefficients solved so far,
    with the derivation L along the factor.  The top level is solved here:
    the Horner sums of the a_{n-k,k} at w are B's order-(n-1) coefficients,
    those of P(W) / (W - w); one more step gives the remainder P(w), the
    root check (at_root), and the sums at w give P'(w) (dp)."""

    def __init__(self, op: LPDO, omega: RatExpr, p3: RatExpr | None):
        super().__init__([omega, *([] if p3 is None else [p3]), *op.coeffs.values()])
        self._c = omega.rational_value() if omega.is_rational() else None
        self._a, self._b = omega.num, (None if omega.den.is_const() else omega.den)
        self._b_inv = self._lift_den(omega.den)  # 1/b as (Q^j / b, j)
        self.omega = self.lift(omega)
        self.p3 = None if p3 is None else self.lift(p3)
        self.coeffs = {jk: self.lift(c) for jk, c in op.coeffs.items()}
        n = self.n = op.order
        self.solved, acc, self.dp, self._sums = {}, _ZERO, _ZERO, None
        for k in range(n):
            acc = self.addmul(self.coeffs.get((n - k, k), _ZERO), self.omega, acc)
            if not acc[0].is_zero():
                self.solved[(n - 1 - k, k)] = acc
            self.dp = self.addmul(acc, self.omega, self.dp)
        rem = self.addmul(self.coeffs.get((0, n), _ZERO), self.omega, acc)
        self.at_root = rem[0].is_zero()

    def top_sums(self) -> list:
        """b_k = a_{n-1-k,k} - L(p_{n-1-k,k}) for k < n, taken once."""
        if self._sums is None:
            self._sums = [self.add(self.coeffs.get(jk, _ZERO), self.L(self.solved.get(jk, _ZERO)),
                                   -1) for jk in ((self.n - 1 - k, k) for k in range(self.n))]
        return self._sums

    def _d(self, n):
        """D = b*Dx - a*Dy for omega = a/b, so that L = D/b; for a rational
        constant omega = c, D = Dx - c*Dy in one pass over N's terms."""
        if self._c is not None:
            return n.diff_along(self._c)
        dx = n.diff("x") if self._b is None else self._b * n.diff("x")
        return dx.fma(self._a, n.diff("y"), -1)

    def L(self, u, n3: Poly | None = None):
        """The derivation f -> f_x - omega*f_y, or L + p3 for p3 = N3/Q^(1+j):
        with 1/b = B/Q^j, L(N) = D(N)*B / Q^j and (L + p3)(N/Q^k) =
        (D(N)*Q*B + N*(N3 - k*D(Q)*B)) / Q^(k+1+j), N3 = 0 for L."""
        n, k = u
        if n.is_zero():
            return _ZERO
        b, j = self._b_inv
        dn = self._d(n)
        if not k and n3 is None:
            return (dn if b is None else dn * b), j
        if self._qb is None:
            self._qb = tuple(f if b is None else f * b for f in (self.q, self._d(self.q)))
        qb, dqb = self._qb
        x, c = (dqb, -k) if n3 is None else (n3.fma(dqb, Poly.ONE, -k) if k else n3, 1)
        return (dn * qb).fma(n, x, c), k + 1 + j

    def step(self, u):
        """(L + p3)(u), in L's pass when p3 sits over Q^(1+j)."""
        if self.p3[1] == 1 + self._b_inv[1]:
            return self.L(u, self.p3[0])
        return self.addmul(self.L(u), self.p3, u)

    def divide_p3(self, u, v) -> RatExpr:
        """Take p3 = u / v and return it reduced.  When the numerator of v
        divides that of u, the quotient is p3 on the lane.  Otherwise p3 is
        reduced once and Q widened to Q' = Q*E to cover its denominator: E
        is prime to the squarefree Q, so a value N / Q^k reads N*E^k / Q'^k."""
        (n, ku), (d, kv) = u, v
        if n.is_zero():
            self.p3 = _ZERO
            return RatExpr.ZERO
        try:
            q = n.exact_div(d)
        except ValueError:
            pass
        else:
            self.p3 = (q, ku - kv) if ku >= kv else (q * self.power(kv - ku), 0)
            return self.reduce(self.p3)
        if kv > ku:
            n = n * self.power(kv - ku)
        elif ku > kv:
            d = d * self.power(ku - kv)
        # a d of total degree 1 is irreducible, and did not divide n
        p3 = RatExpr._fast(n, d) if ku == kv and d.is_linear() else RatExpr._reduce(n, d)
        q = _squarefree_lcm([self.q, p3.den])
        powers = [self.power(0), q.exact_div(self.q)]
        self._set_q(q)

        def move(w):
            m, k = w
            if not k:
                return w
            while len(powers) <= k:
                powers.append(powers[-1] * powers[1])
            return (powers[k] if m is None else m * powers[k]), k

        self.omega, self.dp, self._b_inv = map(move, (self.omega, self.dp, self._b_inv))
        self.coeffs = {jk: move(w) for jk, w in self.coeffs.items()}
        self.solved = {jk: move(w) for jk, w in self.solved.items()}
        self._sums = self._sums and [move(w) for w in self._sums]
        self.p3 = self.lift(p3)
        return p3


def solve_level(state: LevelState, op: LPDO, m: int) -> RatExpr:
    """Process the m-th level equations a_{m-k,k} = L(p) + p3*p + (shift terms).

    Solves the level-(m-1) cofactor coefficients triangularly and returns
    the residual (left side minus right side) of the surplus equation,
    reduced; the residual of the lowest level (m = 0) is the whole equation.
    """
    s = state
    ps = [s.solved.get((m - k, k), _ZERO) for k in range(m + 1)]
    if m == s.n - 1:  # there a - L(p) is b_k
        cs = [s.addmul(b, s.p3, p, -1) for b, p in zip(s.top_sums(), ps)]
    else:
        cs = [s.add(s.coeffs.get((m - k, k), _ZERO), s.step(p), -1) for k, p in enumerate(ps)]
    u = _ZERO
    for k in range(m):
        u = s.addmul(cs[k], s.omega, u)
        if not u[0].is_zero():
            s.solved[(m - 1 - k, k)] = u
    return s.reduce(s.addmul(cs[m], s.omega, u))


def _run_descent(op: LPDO, state: LevelState) -> tuple[dict | None, list[RatExpr]]:
    """Run all equation levels from n-1 down to 0 on a state with its p3.

    Returns the residuals [level n-1, ..., level 0] and, when they all
    vanish, the cofactor coefficients, top level included, reduced; else
    None.  The level-(n-1) residual vanishes when p3 came from the
    simple-root division, and is the necessary precondition when it is free.
    """
    residuals = [solve_level(state, op, m) for m in range(op.order - 1, -1, -1)]
    if not all(r.is_zero() for r in residuals):
        return None, residuals
    return {jk: state.reduce(v) for jk, v in state.solved.items()}, residuals


# --------------------------------------------------------------------------
# the degenerate path: p3 left free
# --------------------------------------------------------------------------

def _fresh_unknown(op: LPDO) -> str:
    used = set().union(*(c.symbols() for c in op.coeffs.values()))
    for name in itertools.chain(("psi",), (f"psi{i}" for i in itertools.count(1))):
        if name not in used and not any(s.startswith(name + "_") for s in used):
            return name


def degenerate_constraints(op: LPDO, omega: RatExpr) -> RiccatiProblem:
    """Eliminate every cofactor coefficient in favor of a free p3.

    Requires P'(omega) = 0 identically and the necessary precondition
    (the w-weighted sum of the b's) to vanish; the surviving level
    residuals, normalized monic in their leading jet monomial, are the
    generalized Riccati constraints on p3.
    """
    state = LevelState(op, omega, None)
    if not state.at_root:
        raise ValueError("omega is not a root of P_n")
    if not state.dp[0].is_zero():
        raise ValueError("root is simple: the algebraic path applies")
    return _riccati_problem(op, state)


def _riccati_problem(op: LPDO, state: LevelState) -> RiccatiProblem:
    """The descent on state, the LevelState of op at its root, with p3 a
    fresh unknown function: its denominator is 1, so the lane's Q holds."""
    name = _fresh_unknown(op)
    state.p3 = state.lift(RatExpr.unknown(name))
    _, residuals = _run_descent(op, state)
    constraints = tuple(_normalize_constraint(r, name)
                        for r in residuals[1:] if not r.is_zero())
    return RiccatiProblem(name, constraints, residuals[0])


def _normalize_constraint(residual: RatExpr, unknown: str) -> RatExpr:
    jets = {s for s in residual.symbols() if isinstance(s, Unknown) and s.base == unknown}
    if not jets:
        return residual
    groups = residual.as_poly_in(jets)  # no jet in the denominator, so some monomial has one
    monos = [m for m in groups if not m.is_const()]
    return residual / groups[sum(monos, Poly.ZERO).leading_term()[0]]


# --------------------------------------------------------------------------
# the public engine
# --------------------------------------------------------------------------

def _not_a_root(root: Root) -> ValueError:
    value = "infinity" if root.at_infinity else root.value
    return ValueError(f"{value} is not a root of the characteristic polynomial")


def _attempt(op: LPDO, root: Root, p3: RatExpr | None) -> FactorizationOutcome:
    """The factorization of op at one root: a left factor Dx - w*Dy + p3
    with the given p3, the p3 of a simple root, or the Riccati problem of a
    multiple one.

    A root at infinity, a factor Dy + p3, is the root 0 of op with x and y
    exchanged, built here, once per call: a call has at most one such root.
    The swap is its own inverse, so one renaming moves p3 there and the
    results back.
    """
    work, omega, swap = op, root.value, None
    if root.at_infinity:
        work, omega, swap = op.change_vars(), RatExpr.ZERO, RatExpr.swap_xy
        if p3 is not None:
            p3 = swap(p3)
    state = LevelState(work, omega, p3)
    if not state.at_root:
        raise _not_a_root(root)
    riccati = None
    if p3 is not None:
        cof, residuals = _run_descent(work, state)
    elif state.dp[0].is_zero():  # a multiple root: p3 stays free
        riccati = _riccati_problem(work, state)
        cof, residuals = None, [riccati.necessary_precondition]
    else:
        p3 = solve_p3(work, omega, state)
        cof, residuals = _run_descent(work, state)
        if not residuals.pop(0).is_zero():
            raise CertificateError("p3 level must close exactly for a simple root")
    if not root.multiplicity:  # a value from the caller: simple unless P'(w) = 0
        multiple = state.dp[0].is_zero()
        p = char_poly(op) if multiple or root.value.radicals() else None
        root = replace(root, multiplicity=p.multiplicity_of(root.value) if multiple else 1,
                       extensions=p.extensions_of(root.value) if p else ())
    if riccati is None:
        status = OutcomeStatus.CONDITIONS_FAIL if cof is None else OutcomeStatus.FACTORED
    elif residuals[0].is_zero():
        status, residuals = OutcomeStatus.DEGENERATE, []
    else:
        status, riccati = OutcomeStatus.CONDITIONS_FAIL, None
    factor = cofactor = None
    if cof is not None:
        factor, cofactor = FirstOrderFactor.from_root(omega, p3), LPDO(cof)
    if swap is not None:
        residuals = [swap(r) for r in residuals]
        if factor is not None:  # Dx + p3 there is Dy + p3 here
            factor = FirstOrderFactor(RatExpr.ZERO, RatExpr.ONE, swap(p3))
            cofactor = cofactor.change_vars()
    if factor is not None:
        _certify(factor, cofactor, op, "left")
    return FactorizationOutcome(
        status=status, root=root, factor=factor, cofactor=cofactor,
        residuals=tuple(residuals), riccati=riccati, certified=factor is not None)


def _outcomes(op: LPDO, root_choice, p3: RatExpr | None):
    """One outcome per root tried: every root of P_n in the search's order,
    or in the order of a RootSearch given, or the one chosen by index, Root
    or value; a lone UNSUPPORTED_ROOT outcome when the search finds none."""
    if op.order < 2:
        raise ValueError("factorization needs an operator of order >= 2")
    if isinstance(root_choice, Root):
        roots = [root_choice]
    elif root_choice is None or isinstance(root_choice, (int, RootSearch)):
        search = root_choice if isinstance(root_choice, RootSearch) else find_roots(char_poly(op))
        roots = list(search.roots)
        if isinstance(root_choice, int):
            if not 0 <= root_choice < len(roots):
                raise ValueError(f"root index {root_choice} out of range")
            roots = [roots[root_choice]]
        elif not roots:
            yield FactorizationOutcome(
                status=OutcomeStatus.UNSUPPORTED_ROOT, unresolved=search.unresolved)
    else:  # a value: _attempt checks it and reads off its multiplicity and extensions
        roots = [Root(root_choice, 0)]
    for root in roots:
        yield _attempt(op, root, p3)


def _walk(op: LPDO, root_choice, p3: RatExpr | None):
    """factor_left's search: the outcomes up to the first FACTORED one."""
    for out in _outcomes(op, root_choice, p3):
        yield out
        if out.status is OutcomeStatus.FACTORED:
            return


def _preferred(outcomes: list[FactorizationOutcome]) -> FactorizationOutcome:
    """The first FACTORED outcome, else the first DEGENERATE one, else the
    one with the fewest nonzero residuals."""
    for status in (OutcomeStatus.FACTORED, OutcomeStatus.DEGENERATE):
        for out in outcomes:
            if out.status is status:
                return out
    return min(outcomes, key=lambda o: len(o.nonzero_residuals()))


def factor_all_roots(op: LPDO) -> list[FactorizationOutcome]:
    """One factorization outcome per root of the characteristic polynomial."""
    return list(_outcomes(op, None, None))


def factor_left(op: LPDO, root_choice=None, p3: RatExpr | None = None) -> FactorizationOutcome:
    """Find a first-order left factor.

    With no root choice every root is tried in deterministic order and the
    first Factored outcome wins; otherwise the preferred outcome is the
    first Degenerate one, then the attempt with the fewest nonzero
    residuals.  An explicit root (index, Root or expression) restricts the
    search to that root; an explicit p3 candidate completes the degenerate
    path.
    """
    return _preferred(list(_walk(op, root_choice, p3)))


def factor_right(op: LPDO, root_choice=None, p3: RatExpr | None = None) -> FactorizationOutcome:
    """First-order right factor via the formal transpose.

    A = C o F holds exactly when A^t = F^t o C^t, so the left engine runs
    on the transpose and both returned operators are transposed back (with
    a sign normalization keeping the factor's leading part monic).
    """
    out = replace(factor_left(op.transpose(), root_choice=root_choice, p3=p3), side="right")
    if out.factor is None:
        return out
    factor = FirstOrderFactor.from_operator(-(out.factor.as_operator().transpose()))
    cofactor = -(out.cofactor.transpose())
    _certify(factor, cofactor, op, "right")
    return replace(out, factor=factor, cofactor=cofactor)


def complete_with_p3(op: LPDO, omega: RatExpr, candidate: RatExpr) -> FactorizationOutcome:
    """Finish a degenerate factorization with a user-supplied p3."""
    return factor_left(op, omega, candidate)


def verify(factor: FirstOrderFactor, cofactor: LPDO, op: LPDO, side: str = "left") -> LPDO:
    """compose(factor, cofactor) - op (or the mirrored product for a right
    factor); the zero operator certifies the factorization.

    The product is LPDO.compose's, on exactly the printed values.  RatExpr
    and LPDO forms are canonical, so a product equal to op is an exact
    certificate, and only a product that differs is subtracted."""
    f = factor.as_operator()
    product = f.compose(cofactor) if side == "left" else cofactor.compose(f)
    return LPDO() if product == op else product - op


def _certify(factor: FirstOrderFactor, cofactor: LPDO, op: LPDO, side: str) -> None:
    """verify, looked up in this module."""
    if not verify(factor, cofactor, op, side).is_zero():
        raise CertificateError(f"{side} factorization failed independent verification")


# --------------------------------------------------------------------------
# automatic candidate search for the degenerate path
# --------------------------------------------------------------------------

def _solve_small_system(equations: list[Poly], unknowns: tuple[str, ...],
                        assignment: dict[str, ConstScalar]) -> dict[str, ConstScalar] | None:
    """Tiny backtracking solver: repeatedly pick an equation in a single
    unknown, split it (its coefficients may hold parameters), put each
    constant root in, recurse."""
    eqs = [e for e in equations if not e.is_zero()]
    if not eqs:
        return assignment
    free = [u for u in unknowns if u not in assignment]
    if not free:
        return None
    for eq in eqs:
        present = [u for u in free if u in eq.symbols()]
        if len(present) != 1:
            continue
        u = present[0]
        roots, _ = split_roots([RatExpr.from_poly(c) for c in _univar(eq, u)[::-1]])
        for c in (v.const_value() for v in roots if v.is_const()):
            got = _solve_small_system([e.at(u, c) for e in eqs], unknowns,
                                      {**assignment, u: c})
            if got is not None:
                return got
        return None
    return None


def _at(p: Poly, values: dict[str, ConstScalar]) -> Poly:
    for u, c in values.items():
        p = p.at(u, c)
    return p


def riccati_candidates(problem: RiccatiProblem) -> list[RatExpr]:
    """Search for p3 among 0, constants, and linear forms c1*x + c2*y + c3.

    The template c1*x + c2*y + c3 is substituted once; every other residual,
    at 0, at the constant c3 and at a solution, is that one with constants
    put in for the c's.  Its denominator holds no c, so a residual vanishes
    iff its numerator does.  Undetermined constants are solved by matching
    coefficients of the x/y monomials; anything beyond this family is left
    to the caller, as the reduction stops at the Riccati problem by design.
    """
    unknowns = ("_c1", "_c2", "_c3")
    c1, c2, c3 = (RatExpr.symbol(u) for u in unknowns)
    template = c1 * RatExpr.X + c2 * RatExpr.Y + c3
    general = problem.check(template)
    zero = ConstScalar.ZERO

    def solves(values: dict[str, ConstScalar]) -> bool:
        return all(_at(r.num, values).is_zero() for r in general)

    found = [RatExpr.ZERO] if solves(dict.fromkeys(unknowns, zero)) else []
    constant = {"_c1": zero, "_c2": zero}
    for nums in ([RatExpr._reduce(_at(r.num, constant), r.den).num for r in general],
                 [r.num for r in general]):
        # grouping a numerator by x/y monomials gives equations in the c's
        equations = [_canon(n.syms, t, n.den) for n in nums
                     for t in _groups(n, ("x", "y")).values()]
        solution = _solve_small_system(equations, unknowns, {})
        if solution is None:
            continue
        solution = {u: solution.get(u, zero) for u in unknowns}
        cand = RatExpr.from_poly(_at(template.num, solution))
        if cand not in found and solves(solution):
            found.append(cand)
    return found


# --------------------------------------------------------------------------
# recursive full factorization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationTree:
    """Depth-first factorization record: one branch per root; Factored
    branches recurse on the cofactor, first-order operators are leaves."""

    operator: LPDO
    branches: tuple[tuple[FactorizationOutcome, "FactorizationTree | None"], ...]

    def chains(self) -> list[list[LPDO]]:
        """All complete splittings into first-order operators, outermost
        factor first."""
        if self.operator.order <= 1:
            return [[self.operator]]
        out = []
        for outcome, subtree in self.branches:
            if outcome.status is not OutcomeStatus.FACTORED or subtree is None:
                continue
            head = outcome.factor.as_operator()
            for tail in subtree.chains():
                out.append([head] + tail)
        return out


def factor_fully(op: LPDO) -> FactorizationTree:
    """Recursively split off first-order left factors along every root.

    The roots are searched once, for op; a cofactor's are its parent's,
    RootSearch.after the root split off.  A cofactor reached along two
    paths is factored once, and both branches hold the same subtree.
    Degenerate roots are completed through the automatic candidate search
    when it succeeds; otherwise the branch carries the emitted Riccati
    problem and stops."""
    seen: dict[LPDO, FactorizationTree] = {}  # this call's subtrees, by cofactor

    def grow(node: LPDO, search: RootSearch | None) -> FactorizationTree:
        branches = []
        for outcome in (_outcomes(node, search, None) if node.order > 1 else ()):
            if outcome.status is OutcomeStatus.DEGENERATE:
                for cand in riccati_candidates(outcome.riccati):
                    if outcome.root.at_infinity:
                        # found in the swapped coordinates; p3 is given in node's
                        cand = cand.swap_xy()
                    done = _attempt(node, outcome.root, cand)
                    if done.status is OutcomeStatus.FACTORED:
                        outcome = done
                        break
            subtree = None
            if outcome.status is OutcomeStatus.FACTORED:
                cof = outcome.cofactor
                if cof not in seen:  # a first-order leaf needs no search
                    below = search.after(outcome.root, char_poly(cof)) if cof.order > 1 else None
                    seen[cof] = grow(cof, below)
                subtree = seen[cof]
            branches.append((outcome, subtree))
        return FactorizationTree(node, tuple(branches))

    return grow(op, find_roots(char_poly(op)) if op.order > 1 else None)
