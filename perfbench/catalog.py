"""The `catalog` workload: breadth over the layers the other two workloads
leave out, with inputs given as strings and parsed inside the timed
operation.

Every round runs the same operations.  Round 0 is checked against the
hand-written expectations below; later rounds must reproduce round 0
exactly.  Every FACTORED result is also checked with sympy, used here as an
independent oracle only, once the timed loop is over.

Four operations hit three known faults and are counted as failed
(README.md): F1 the root map under a change of variables, F2 the plain
printer's denominators, F3 the history-dependent root search.  Such an
operation's failure is the known fault only when its result shows that
fault's own symptom; any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import lpdo
import lpdo.cli
import lpdo.expr
from workloads import Fault, Op

OS = lpdo.OutcomeStatus
README_OP = "Dx^2 - Dy^2 + x*Dy + y*Dx + (y^2 - x^2)/4 + 1"
C2_OP = "Dx*Dy + (a/(x+y))*Dx + (b/(x+y))*Dy + {g}/(x+y)^2"
C3_OP = "Dx^2 - Dy^2 + y*Dx + x*Dy + (y^2 - x^2)/4 + {a}"
C4_JETS = {"a10", "a01", "a10_x", "a10_y", "a01_x", "a01_y"}
C4_OP = ("Dx^2 - Dy^2 + a10*Dx + a01*Dy"
         " + (2*(a10_x + a10_y + a01_x + a01_y) + a10^2 - a01^2)/4")
C4_SQRT2_OP = ("Dx^2 - Dy^2 + (t3*x + sqrt(2)*t1)*Dx - t3*x*Dy"
               " + sqrt(2)*t1*t3*x/2 + t1^2/2")
RADICAL_ROOTS = ("sqrt(2)", "-sqrt(3)", "i", "1+sqrt(2)", "sqrt(2)*x")


# looked up on the package at each call, so that the trace's rebinding of
# lpdo.parse and lpdo.parse_function applies to them
def parse(text, params=None):
    return lpdo.parse(text, params)


def fn(text, params=None):
    return lpdo.parse_function(text, params)


def cli(*argv):
    """lpdo.cli.main in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lpdo.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _field(text: str, key: str) -> list[str]:
    """Values of the `key: value` lines of a plain CLI report."""
    out = []
    for line in text.splitlines():
        head, sep, value = line.strip().partition(": ")
        if sep and head == key:
            out.append(value)
    return out


class Check(Exception):
    """An expectation that did not hold."""


def need(cond, message):
    if not cond:
        raise Check(message)


# --------------------------------------------------------------------------
# the known faults (README.md), each recognised by its own symptom
# --------------------------------------------------------------------------

F1_ERROR = "omega is not a root"


def _f1_raised(result) -> bool:
    return isinstance(result, ValueError) and F1_ERROR in str(result)


def _f1_cli(result) -> bool:
    return isinstance(result, tuple) and result[0] == 1 and F1_ERROR in result[2]


def _f2_cli(result) -> bool:
    return (isinstance(result, tuple) and result[0] == 0
            and _field(result[1], "factor") == ["Dx + 1/x*y"])


def _f3(result) -> bool:
    return (isinstance(result, lpdo.FactorizationOutcome)
            and result.status is OS.UNSUPPORTED_ROOT)


# --------------------------------------------------------------------------
# canonical summaries (to compare later rounds with round 0)
# --------------------------------------------------------------------------

def summary(x):
    if isinstance(x, lpdo.FactorizationOutcome):
        return ("outcome", x.status.value, x.side, str(x.root), str(x.factor),
                str(x.cofactor), tuple(map(str, x.residuals)), summary(x.riccati),
                tuple(map(str, x.unresolved)))
    if isinstance(x, lpdo.RiccatiProblem):
        return ("riccati", x.unknown, tuple(map(str, x.constraints)),
                str(x.necessary_precondition))
    if isinstance(x, lpdo.FactorizationTree):
        return ("tree", str(x.operator),
                tuple((summary(o), summary(t)) for o, t in x.branches))
    if isinstance(x, (list, tuple)):
        return tuple(summary(v) for v in x)
    return x if isinstance(x, (str, int, type(None))) else str(x)


# --------------------------------------------------------------------------
# the workload
# --------------------------------------------------------------------------

class Catalog:
    def __init__(self, seed: int):
        self.seed = seed
        self.ops = self._build()
        self.seen: dict[str, tuple] = {}  # label -> (summary, ok, message)
        self.oracle: list[tuple] = []  # (label, operator, factors, jets)
        self._label = ""  # the operation under check

    def round(self, r: int) -> list[Op]:
        return self.ops

    def start_round(self) -> None:
        # The library keeps process-wide state (the radical tower, the
        # differential parameters); clearing it, as the test suite does
        # between tests, makes every round start alike.
        reset = getattr(lpdo.expr, "reset_state", None)
        if reset is not None:
            reset()

    def check(self, r, op, result) -> tuple[bool, str]:
        key = summary(result)
        if op.label in self.seen:
            first, ok, message = self.seen[op.label]
            if key != first:
                return False, "result differs from the first round"
            return ok, message
        self._label = op.label
        try:
            op.data["check"](result)
            ok, message = True, ""
        except Check as exc:
            ok, message = False, str(exc)
        self.seen[op.label] = (key, ok, message)
        return ok, message

    def finish(self) -> list[str]:
        import oracle

        problems = []
        for label, operator, factors, jets in self.oracle:
            if not oracle.composes_to(operator, factors, jets):
                problems.append(f"{label}: sympy finds factor o cofactor != operator")
        self.oracle = []
        return problems

    # -- expectations

    def _certify(self, operator, factors, jets=None):
        """Queue operator == factors[0] o factors[1] o ... for the oracle."""
        self.oracle.append((self._label, operator, factors, jets or {}))

    def _factored(self, text, params=None, factor=None, cofactor=None,
                  side="left", jets=None):
        def check(out):
            need(out.status is OS.FACTORED, f"status {out.status.value}, expected factored")
            f_op = out.factor.as_operator()
            if factor is not None:
                need(f_op == parse(factor, params), f"factor {f_op}, expected {factor}")
            if cofactor is not None:
                need(out.cofactor == parse(cofactor, params),
                     f"cofactor {out.cofactor}, expected {cofactor}")
            need(all(x.is_zero() for x in out.residuals), "nonzero residual")
            pair = [f_op, out.cofactor] if side == "left" else [out.cofactor, f_op]
            self._certify(parse(text, params), pair, jets)
        return check

    def _status(self, status):
        def check(out):
            need(out.status is status, f"status {out.status.value}, expected {status.value}")
        return check

    def _conditions(self, params, expected):
        """factor_all_roots: one CONDITIONS_FAIL per (root, residual), the
        residual up to sign."""
        def check(outs):
            need(len(outs) == len(expected), f"{len(outs)} outcomes")
            for out, (root, residual) in zip(outs, expected):
                need(out.status is OS.CONDITIONS_FAIL, f"status {out.status.value}")
                if root == "infinity":
                    need(out.root.at_infinity, f"root {out.root}, expected infinity")
                else:
                    need(out.root.value == fn(root), f"root {out.root}, expected {root}")
                want = fn(residual, params)
                (got,) = out.nonzero_residuals()
                need(got in (want, -want), f"residual {got}, expected +-({residual})")
        return check

    def _chains(self, text, planted):
        def check(tree):
            op = parse(text)
            chains = tree.chains()
            need([parse(f) for f in planted] in chains, "planted chain not found")
            for chain in chains:
                product = chain[0]
                for f in chain[1:]:
                    product = product.compose(f)
                need(product == op, "a chain does not compose to the operator")
                self._certify(op, chain)
        return check

    # -- operations

    def _build(self) -> list[Op]:
        ops: list[Op] = []

        def add(label, run, check, fault=None):
            ops.append(Op(label, run, fault, {"check": check}))

        def left(label, text, fault=None, **expected):
            add(label, lambda: lpdo.factor_left(parse(text)),
                self._factored(text, **expected), fault)

        # F3 first: it shows only while nothing in the process has adjoined
        # sqrt(2), and start_round has just cleared the tower
        left("F3 sqrt(2)*x roots in a fresh tower",
             "Dx^2 - 2*x^2*Dy^2 - 3/(4*x^2)", fault=Fault("F3", _f3))

        # worked families of the paper and the README (criteria 2-5, 9)
        left("README example", README_OP, factor="Dx + Dy + (y - x)/2",
             cofactor="Dx - Dy + (x + y)/2")
        abg = {"a", "b", "g"}
        add("criterion 2 conditions",
            lambda: lpdo.factor_all_roots(parse(C2_OP.format(g="g"), abg)),
            self._conditions(abg, [("0", "(g - a*(b - 1))/(x + y)^2"),
                                   ("infinity", "(g - b*(a - 1))/(x + y)^2")]))
        text1 = C2_OP.format(g="a*(b - 1)")
        add("criterion 2 root 0", lambda: lpdo.factor_left(parse(text1, abg)),
            self._factored(text1, abg, factor="Dx + b/(x + y)",
                           cofactor="Dy + a/(x + y)"))
        text2 = C2_OP.format(g="b*(a - 1)")
        add("criterion 2 root infinity",
            lambda: lpdo.factor_left(parse(text2, abg), root_choice=1),
            self._factored(text2, abg, factor="Dy + a/(x + y)",
                           cofactor="Dx + b/(x + y)"))
        add("criterion 3 conditions",
            lambda: lpdo.factor_all_roots(parse(C3_OP.format(a="a"), {"a"})),
            self._conditions({"a"}, [("-1", "a - 1"), ("1", "a + 1")]))
        left("criterion 3 a = -1", C3_OP.format(a="-1"),
             factor="Dx - Dy + (x + y)/2", cofactor="Dx + Dy + (y - x)/2")
        add("criterion 3 right factor", lambda: lpdo.factor_right(parse(README_OP)),
            self._factored(README_OP, factor="Dx - Dy + (x + y)/2",
                           cofactor="Dx + Dy + (y - x)/2", side="right"))

        def c4():
            lpdo.register_differential_param("a10")
            lpdo.register_differential_param("a01")
            return lpdo.factor_left(parse(C4_OP, C4_JETS), root_choice=-lpdo.RatExpr.ONE)

        add("criterion 4 symbolic", c4,
            self._factored(C4_OP, C4_JETS, factor="Dx + Dy + (a10 - a01)/2",
                           cofactor="Dx - Dy + (a10 + a01)/2",
                           jets={"a10": "a10", "a01": "a01"}))
        t13 = {"t1", "t3"}
        add("criterion 4 sqrt(2) family",
            lambda: lpdo.factor_left(parse(C4_SQRT2_OP, t13),
                                     root_choice=-lpdo.RatExpr.ONE),
            self._factored(C4_SQRT2_OP, t13, factor="Dx + Dy + (2*t3*x + sqrt(2)*t1)/2",
                           cofactor="Dx - Dy + sqrt(2)*t1/2"))
        deg = "Dx^2 + x*Dx"
        add("criterion 5 degenerate", lambda: lpdo.factor_left(parse(deg)),
            self._status(OS.DEGENERATE))

        def riccati_check(problem):
            want = fn("psi_x + psi^2 - x*psi - 1", {"psi", "psi_x"})
            need(problem.constraints == (want,), f"constraints {problem.constraints}")
            need(problem.necessary_precondition.is_zero(), "precondition not zero")

        add("criterion 5 Riccati constraint",
            lambda: lpdo.degenerate_constraints(parse(deg), lpdo.RatExpr.ZERO),
            riccati_check)
        add("criterion 5 candidates",
            lambda: lpdo.riccati_candidates(
                lpdo.degenerate_constraints(parse(deg), lpdo.RatExpr.ZERO)),
            lambda found: need(fn("x") in found, f"candidates {found} miss x"))
        add("criterion 5 completion",
            lambda: lpdo.complete_with_p3(parse(deg), lpdo.RatExpr.ZERO, fn("x")),
            self._factored(deg, factor="Dx + x", cofactor="Dx"))
        left("criterion 9 elliptic", "Dx^2 + Dy^2", factor="Dx + i*Dy",
             cofactor="Dx - i*Dy")

        # led by Dy or Dx*Dy: normalization and change_vars
        for text in ("(Dy + x)*(Dx + Dy + y)", "(Dy + 1)*(Dy + 2*Dx + x)",
                     "(Dx + y)*(Dy + x)", "(Dy + y)*(Dx + x)"):
            left(f"normalized {text}", text)
        add("normalized Dy^2 + x*Dy + 1",
            lambda: lpdo.factor_left(parse("Dy^2 + x*Dy + 1")),
            self._status(OS.DEGENERATE))

        # right factors through the transpose, planted, with their root
        for outer, inner, root in (("Dx + y", "Dx - Dy + x", "1"),
                                   ("Dx + Dy", "Dx + 2*Dy + x*y", "-2")):
            text = f"({outer})*({inner})"
            label = f"right factor of {text}"
            add(label, lambda text=text, root=root:
                lpdo.factor_right(parse(text), root_choice=fn(root)),
                self._factored(text, factor=inner, cofactor=outer, side="right"))

        # recursive factorization of planted triple products.  With the
        # --recursive CLI run and F1 these are the three costliest
        # operations: fewer than a tenth of the round, so that p90 falls
        # among the many mid-cost operations, not at the gap below these.
        for chain in (("Dx+1", "Dx+1", "Dx+x*Dy"), ("Dx+y", "Dx-Dy", "Dx+2*Dy+1")):
            text = "*".join(f"({f})" for f in chain)
            add(f"factor_fully {text}", lambda text=text: lpdo.factor_fully(parse(text)),
                self._chains(text, chain))
        f1_chain = ("Dx+x", "Dx+y*Dy", "Dy+1")
        f1_text = "*".join(f"({f})" for f in f1_chain)
        add(f"F1 factor_fully {f1_text}", lambda: lpdo.factor_fully(parse(f1_text)),
            self._chains(f1_text, f1_chain), fault=Fault("F1", _f1_raised))

        # seeded planted family with radical roots
        rng = random.Random(f"catalog:{self.seed}")
        for w in RADICAL_ROOTS:
            for k in range(2):
                factor, cofactor, product = _radical_instance(rng, w)
                add(f"radical root {w} #{k}", lambda product=product, w=w:
                    lpdo.factor_left(parse(product), root_choice=fn(w)),
                    self._factored(product, factor=factor, cofactor=cofactor))

        self._add_cli(add)
        return ops

    def _add_cli(self, add) -> None:
        def report(code, out, lib):
            need(code == 0, f"exit {code}")
            (status,) = _field(out, "status")
            need(status == lib.status.value, f"status {status}, library {lib.status.value}")
            if lib.factor is not None:
                (f,), (c,) = _field(out, "factor"), _field(out, "cofactor")
                need(parse(f) == lib.factor.as_operator(),
                     f"printed factor {f!r} re-parses to another operator")
                need(parse(c) == lib.cofactor,
                     f"printed cofactor {c!r} re-parses to another operator")

        def factor_cli(label, argv, run, text, fault=None):
            def check(res):
                code, out, _ = res
                report(code, out, run(parse(text)))
            add(label, lambda: cli(*argv), check, fault)

        factor_cli("cli factor", ("factor", README_OP), lpdo.factor_left, README_OP)
        factor_cli("cli factor --side right", ("factor", "--side", "right", README_OP),
                   lpdo.factor_right, README_OP)

        def structured(res):
            code, out, _ = res
            need(code == 0, f"exit {code}")
            doc = json.loads(out)
            lib = lpdo.factor_left(parse(README_OP))
            need(doc["status"] == lib.status.value, f"status {doc['status']}")
            need(fn(doc["factor"]["p3"]) == lib.factor.p3, "factor p3 differs")
            cof = lpdo.LPDO({(e["j"], e["k"]): fn(e["num"]) / fn(e["den"])
                             for e in doc["cofactor"]["coeffs"]})
            need(cof == lib.cofactor, "structured cofactor differs")
        add("cli factor --format structured",
            lambda: cli("factor", "--format", "structured", README_OP), structured)

        triple = "(Dx+1)*(Dx+1)*(Dx+x*Dy)"

        def recursive(res):
            code, out, _ = res
            need(code == 0, f"exit {code}")
            operators, factors = [], []

            def walk(tree):
                operators.append(tree.operator)
                for outcome, sub in tree.branches:
                    if outcome.factor is not None:
                        factors.append(outcome.factor.as_operator())
                    if sub is not None:
                        walk(sub)
            walk(lpdo.factor_fully(parse(triple)))
            need([parse(t) for t in _field(out, "operator")] == operators,
                 "printed operators differ")
            need([parse(t) for t in _field(out, "factor")] == factors,
                 "printed factors differ")
        add("cli factor --recursive", lambda: cli("factor", "--recursive", triple),
            recursive)

        factor_cli("cli factor --p3", ("factor", "Dx^2 + x*Dx", "--p3", "x"),
                   lambda op: lpdo.factor_left(op, p3=fn("x")), "Dx^2 + x*Dx")

        family = C3_OP.format(a="a")

        def conditions(res):
            code, out, _ = res
            need(code == 2, f"exit {code}, expected 2")
            lib = lpdo.factor_all_roots(parse(family, {"a"}))
            printed = [fn(t, {"a"}) for t in _field(out, "residuals")]
            need(printed == [o.residuals[0] for o in lib], "printed residuals differ")
            need(printed == [fn("a - 1", {"a"}), fn("a + 1", {"a"})],
                 f"residuals {printed}, expected a - 1, a + 1")
        add("cli factor conditions fail",
            lambda: cli("factor", "--params", "a", family), conditions)

        def charpoly(res):
            code, out, _ = res
            need(code == 0, f"exit {code}")
            p = lpdo.char_poly(parse("Dx^2 - Dy^2"))
            w = fn("w", {"w"})
            want = lpdo.RatExpr.ZERO
            for c in p.coeffs:
                want = want * w + c
            printed = out.splitlines()[0].partition(" = ")[2]
            need(fn(printed, {"w"}) == want, f"printed P(w) = {printed} differs")
            roots = [t.split(" (")[0] for t in _field(out, "root")]
            lib = lpdo.find_roots(p).roots
            need([fn(t) for t in roots] == [r.value for r in lib], "printed roots differ")
            need(roots == ["-1", "1"], f"roots {roots}, expected -1, 1")
        add("cli charpoly", lambda: cli("charpoly", "Dx^2 - Dy^2"), charpoly)

        pieces = ("Dx + Dy + (y - x)/2", "Dx - Dy + (y + x)/2", README_OP)

        def verified(res):
            code, out, _ = res
            need(code == 0 and out.startswith("ok"), f"exit {code}: {out!r}")
            f = lpdo.FirstOrderFactor.from_operator(parse(pieces[0]))
            need(lpdo.verify(f, parse(pieces[1]), parse(pieces[2])).is_zero(),
                 "library verify disagrees")
        add("cli verify", lambda: cli("verify", *pieces), verified)

        def printed_operator(want):
            def check(res):
                code, out, _ = res
                need(code == 0, f"exit {code}")
                need(parse(out) == want(), f"printed {out.strip()!r} differs")
            return check
        add("cli compose", lambda: cli("compose", "Dx+1", "Dx+1", "Dx+x*Dy"),
            printed_operator(lambda: parse("Dx+1").compose(parse("Dx+1"))
                             .compose(parse("Dx+x*Dy"))))
        add("cli transpose", lambda: cli("transpose", "Dx + 1"),
            printed_operator(lambda: parse("-Dx + 1")))

        # F1: (Dx + x*Dy) o Dy, led by Dx*Dy, with a non-constant root
        f1 = "Dx*Dy + x*Dy^2"

        def f1_check(res):
            code, out, _ = res
            need(code == 0, f"exit {code}: {res[2].strip()}")
            (f,), (c,) = _field(out, "factor"), _field(out, "cofactor")
            need(parse(f).compose(parse(c)) == parse(f1), "factor o cofactor differs")
        add("F1 cli factor Dx*Dy + x*Dy^2", lambda: cli("factor", f1), f1_check,
            fault=Fault("F1", _f1_cli))

        # F2: 1/(x*y) prints as 1/x*y
        f2 = "(Dx + 1/(x*y))*(Dx + Dy)"
        factor_cli("F2 cli factor (Dx + 1/(x*y))*(Dx + Dy)", ("factor", f2),
                   lpdo.factor_left, f2, fault=Fault("F2", _f2_cli))


def _int_poly(rng) -> str:
    """a + b*x + c*y as text, with random nonzero integers a, b, c."""
    a, b, c = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
    return f"({a}) + ({b})*x + ({c})*y"


def _radical_instance(rng, w: str) -> tuple[str, str, str]:
    """(Dx - w*Dy + p3) and a first-order rational cofactor, redrawn until w
    is a simple root of their product.  First-order cofactors with every
    linear term present keep the cost of one seed's family close to
    another's, so that the percentiles of the round do not move with the
    seed."""
    while True:
        factor = f"Dx - ({w})*Dy + {_int_poly(rng)}"
        cofactor = f"Dx + ({_int_poly(rng)})*Dy + {_int_poly(rng)}"
        product = f"({factor})*({cofactor})"
        p = lpdo.char_poly(parse(product))
        root = fn(w)
        if p.eval_at(root).is_zero() and not p.derivative_at(root).is_zero():
            return factor, cofactor, product
