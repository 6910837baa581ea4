"""The benchmark's workloads: seeded inputs, the timed operations, and the
checks on their results (run outside the timed region).

A workload hands out rounds of operations.  `round(r)` builds round r from
the seed alone, `start_round()` runs untimed just before it, `check(r, op,
result)` judges one result, and `finish()` runs the checks that need the
whole run; each returns what went wrong, if anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import lpdo

R = lpdo.RatExpr


@dataclass
class Fault:
    """A known fault (README.md): its name, and a test of a failed
    operation's result, value or exception, for the fault's own symptom."""
    name: str
    shows: Callable[[Any], bool]


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    fault: Fault | None = None  # a known fault this operation hits
    data: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# random inputs (the constructions of acceptance criteria 6 and 7)
# --------------------------------------------------------------------------

def rand_poly(rng, max_deg=2, density=0.6, coeff_range=3):
    """Random polynomial in x, y with small integer coefficients."""
    out = R.ZERO
    for dx in range(max_deg + 1):
        for dy in range(max_deg + 1 - dx):
            if rng.random() < density:
                c = rng.randint(-coeff_range, coeff_range)
                if c:
                    out = out + R.from_int(c) * R.X ** dx * R.Y ** dy
    return out


def rand_operator(rng, order):
    """Random operator of exactly the given order, with quadratic
    coefficients."""
    while True:
        coeffs = {}
        for j in range(order + 1):
            for k in range(order + 1 - j):
                if rng.random() < 0.6:
                    p = rand_poly(rng, 2)
                    if not p.is_zero():
                        coeffs[(j, k)] = p
        op = lpdo.LPDO(coeffs)
        if op.order == order:
            return op


def planted_product(rng, n):
    """(Dx - w0*Dy + p3) o B with rational w0 and a random order-(n-1)
    cofactor B, redrawn until w0 is a simple root of the product."""
    while True:
        w0 = R.from_fraction(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])))
        cof = rand_operator(rng, n - 1)
        if cof.coeff(n - 1, 0).is_zero():
            continue
        factor = lpdo.FirstOrderFactor.from_root(w0, rand_poly(rng, 2))
        product = factor.as_operator().compose(cof)
        if product.order != n:
            continue
        p = lpdo.char_poly(product)
        if p.eval_at(w0).is_zero() and not p.derivative_at(w0).is_zero():
            return factor.as_operator(), cof, product, w0


def generic_operator(rng, n, w0):
    """An order-n operator with linear coefficients and the simple root w0;
    generic, so it does not factor."""
    w0 = R.from_int(w0)
    while True:
        coeffs = {}
        for j in range(n + 1):
            for k in range(n + 1 - j):
                p = rand_poly(rng, 1, density=1.0, coeff_range=2)
                if not p.is_zero():
                    coeffs[(j, k)] = p
        coeffs[(n, 0)] = rand_poly(rng, 1, density=1.0, coeff_range=2) \
            + R.from_int(rng.randint(1, 2))
        # the trailing top coefficient makes w0 a root
        acc = R.ZERO
        for k in range(n):
            acc = (acc + coeffs.get((n - k, k), R.ZERO)) * w0
        coeffs[(0, n)] = -acc
        op = lpdo.LPDO(coeffs)
        if op.order != n:
            continue
        p = lpdo.char_poly(op)
        if p.eval_at(w0).is_zero() and not p.derivative_at(w0).is_zero():
            return op, w0


# --------------------------------------------------------------------------
# roundtrip: recover a planted factor (criterion 6)
# --------------------------------------------------------------------------

class Roundtrip:
    """One operation per product order 2, 3, 4 in each round."""

    ORDERS = (2, 3, 4)

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"roundtrip:{self.seed}:{r}")
        ops = []
        for n in self.ORDERS:
            factor, cof, product, w0 = planted_product(rng, n)
            ops.append(Op(
                f"roundtrip order {n}",
                lambda product=product, w0=w0:
                    lpdo.factor_left(product, root_choice=w0),
                data={"n": n, "factor": factor, "cofactor": cof}))
        return ops

    def start_round(self) -> None:
        pass

    def check(self, r, op, out) -> tuple[bool, str]:
        n = op.data["n"]
        if out.status is not lpdo.OutcomeStatus.FACTORED:
            return False, f"status {out.status.value}"
        if out.factor.as_operator() != op.data["factor"]:
            return False, "recovered factor differs from the planted one"
        if out.cofactor != op.data["cofactor"]:
            return False, "recovered cofactor differs from the planted one"
        if len(out.residuals) != n - 1 or not all(x.is_zero() for x in out.residuals):
            return False, f"expected {n - 1} zero residuals"
        return True, ""

    def finish(self) -> list[str]:
        return []


# --------------------------------------------------------------------------
# generic: condition residuals of operators that do not factor (criterion 7)
# --------------------------------------------------------------------------

class Generic:
    """Twelve operations per round: two each of orders 2 and 3 with a random
    root w0 in {-2, -1, 1, 2}, and one each of orders 4 and 5 for every w0.

    Fixing the order and root of the costly slots, and drawing every
    coefficient, keeps one seed's inputs close in cost to another's: with
    both drawn at random, as in criterion 7, a run's mean cost moved by 7-9 %
    from seed to seed.  The mix puts the median inside the order-4 group and
    p90 inside the order-5 group; at the boundary between two orders a
    percentile swings with the extremes of both.  w0 = 0 is left out: its
    cost swings most from one input to the next (coefficient of variation
    0.5-0.7)."""

    ROOTS = (-2, -1, 1, 2)
    SLOTS = ((2, None), (2, None), (3, None), (3, None),
             (4, -2), (4, -1), (4, 1), (4, 2), (5, -2), (5, -1), (5, 1), (5, 2))

    def __init__(self, seed: int):
        self.seed = seed
        self.sample: list[tuple[Op, Any]] = []  # (operation, outcome), one per order

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"generic:{self.seed}:{r}")
        ops = []
        for n, w in self.SLOTS:
            if w is None:
                w = rng.choice(self.ROOTS)
            op, w0 = generic_operator(rng, n, w)
            ops.append(Op(
                f"generic order {n} root {w}",
                lambda op=op, w0=w0: lpdo.factor_left(op, root_choice=w0),
                data={"n": n, "op": op, "w0": w0}))
        return ops

    def start_round(self) -> None:
        pass

    def check(self, r, op, out) -> tuple[bool, str]:
        n = op.data["n"]
        if len(out.residuals) != n - 1:
            return False, f"{len(out.residuals)} residuals, expected {n - 1}"
        factored = all(x.is_zero() for x in out.residuals)
        if factored != (out.status is lpdo.OutcomeStatus.FACTORED):
            return False, f"status {out.status.value} disagrees with the residuals"
        if r == 0 and op.data["n"] not in (o.data["n"] for o, _ in self.sample):
            self.sample.append((op, out))
        return True, ""

    def finish(self) -> list[str]:
        """Adding r(x, y) to a00 enters only the last (level-0) equation: the
        first n-2 residuals stay and the last one grows by exactly r."""
        problems = []
        rng = random.Random(f"generic-perturb:{self.seed}")
        for op, out in self.sample:
            r = R.ZERO
            while r.is_zero():
                r = rand_poly(rng, 2)
            a = op.data["op"]
            bumped = lpdo.LPDO({**a.coeffs, (0, 0): a.coeff(0, 0) + r})
            again = lpdo.factor_left(bumped, root_choice=op.data["w0"])
            if (again.residuals[:-1] != out.residuals[:-1]
                    or again.residuals[-1] != out.residuals[-1] + r):
                problems.append(f"{op.label}: perturbing a00 by {r} did not "
                                "move only the last residual by exactly it")
        self.sample = []
        return problems


def make(name: str, seed: int):
    if name == "roundtrip":
        return Roundtrip(seed)
    if name == "generic":
        return Generic(seed)
    import catalog

    return catalog.Catalog(seed)
