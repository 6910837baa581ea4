"""Per-layer trace, taken from outside the package.

Each layer's entry points are rebound, in every lpdo module that holds
them, to a wrapper that records a span: the layer's name, its start and
end, and the span open around it.  Nothing under src/ changes.  Span times are
kept in memory per operation and scaled by that operation's speed
correction when the run ends.

  <layer>.calls   every call, nested ones included
  <layer>.s       time of the outermost calls only (poly_gcd recurses)
  <layer>.self_s  span time minus the part covered by the spans inside it
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import lpdo
import lpdo.cli
from lpdo.expr import ConstScalar, Poly, RatExpr
from lpdo.operator import LPDO

MAX_LEVEL = 4  # solve_level's m for the orders the workloads use (n <= 5)


def _lpdo_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "lpdo" or name.startswith("lpdo."))]


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list[list[float]] = []  # child time of each open span
        self._depth: dict[str, int] = defaultdict(int)
        self._op: dict[str, float] = defaultdict(float)  # this operation's times
        self._per_op: list[dict[str, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- spans

    def _span(self, layer: str, fn, args, kwargs, note=None):
        self.calls[layer] += 1
        self._depth[layer] += 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            if note is not None:
                note(args, None, failed=True)
            raise
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            self._depth[layer] -= 1
            if self._depth[layer] == 0:
                self._op[layer + ".s"] += dt
            self._op[layer + ".self_s"] += dt - frame[0]
        if note is not None:
            note(args, result, failed=False)
        return result

    def _wrapper(self, layer, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            return tracer._span(name, fn, args, kwargs, note)

        traced.__wrapped__ = fn
        return traced

    # -- installing the wrappers

    def _rebind_function(self, layer, fn, note=None) -> None:
        """Rebind fn wherever an lpdo module looks it up by name."""
        wrapper = self._wrapper(layer, fn, note)
        for module in _lpdo_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def _rebind_method(self, layer, cls, attr, note=None) -> None:
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(layer, fn, note))
        self._undo.append((cls, attr, fn))

    def install(self) -> None:
        counts = self.counts

        def gcd_note(args, result, failed):
            if not failed and not result.is_const():
                counts["gcd_nontrivial"] += 1

        def div_note(args, result, failed):
            if failed:
                counts["div_inexact"] += 1

        def mul_note(args, result, failed):
            if args[0].is_rational() and args[1].is_rational():
                counts["mul_rational"] += 1

        def level(args, kwargs):
            m = kwargs["m"] if "m" in kwargs else args[2]
            return f"factorize.level{m}"

        self._rebind_function("expr.poly_gcd", lpdo.expr.poly_gcd, gcd_note)
        self._rebind_method("expr.Poly.exact_div", Poly, "exact_div", div_note)
        self._rebind_method("expr.ConstScalar.mul", ConstScalar, "__mul__", mul_note)
        self._rebind_method("expr.RatExpr.add", RatExpr, "__add__")
        self._rebind_method("expr.RatExpr.mul", RatExpr, "__mul__")
        self._rebind_method("expr.RatExpr.diff", RatExpr, "diff")
        self._rebind_function("charpoly.char_poly", lpdo.char_poly)
        self._rebind_function("charpoly.find_roots", lpdo.find_roots)
        for name in ("solve_top", "solve_p3", "verify", "degenerate_constraints",
                     "riccati_candidates", "factor_all_roots"):
            self._rebind_function(f"factorize.{name}", getattr(lpdo.factorize, name))
        self._rebind_function(level, lpdo.factorize.solve_level)
        for name in ("compose", "transpose", "change_vars"):
            self._rebind_method(f"operator.{name}", LPDO, name)
        self._rebind_function("parser.parse", lpdo.parser.parse)
        self._rebind_function("parser.parse", lpdo.parser.parse_function)
        for name in ("operator_str", "operator_latex", "operator_structured",
                     "outcome_str", "outcome_structured", "charpoly_str",
                     "tree_str", "ratexpr_display", "ratexpr_latex"):
            self._rebind_function("printer", getattr(lpdo.printer, name))
        self._rebind_function("cli.main", lpdo.cli.main)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- one operation at a time

    def begin_op(self) -> None:
        self._op = defaultdict(float)
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._per_op.append(self._op)

    # -- the per_layer metrics of BENCHMARK.json

    def metrics(self, speeds: list[float], overhead: float) -> dict[str, float]:
        """speeds: each operation's corrected over raw time, in order."""
        calls, counts = self.calls, self.counts
        sec: dict[str, float] = defaultdict(float)
        for times, speed in zip(self._per_op, speeds, strict=True):
            for key, value in times.items():
                sec[key] += value * speed
        ops = len(speeds)

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {
            "expr.poly_gcd.calls": calls["expr.poly_gcd"],
            "expr.poly_gcd.s": sec["expr.poly_gcd.s"],
            "expr.poly_gcd.self_s": sec["expr.poly_gcd.self_s"],
            "expr.poly_gcd.nontrivial_ratio":
                ratio(counts["gcd_nontrivial"], calls["expr.poly_gcd"]),
            "expr.Poly.exact_div.calls": calls["expr.Poly.exact_div"],
            "expr.Poly.exact_div.s": sec["expr.Poly.exact_div.s"],
            "expr.Poly.exact_div.inexact": counts["div_inexact"],
            "expr.ConstScalar.mul.calls": calls["expr.ConstScalar.mul"],
            "expr.ConstScalar.mul.s": sec["expr.ConstScalar.mul.s"],
            "expr.ConstScalar.mul.rational_ratio":
                ratio(counts["mul_rational"], calls["expr.ConstScalar.mul"]),
            "charpoly.char_poly.calls_per_op": ratio(calls["charpoly.char_poly"], ops),
            "charpoly.find_roots.calls_per_op": ratio(calls["charpoly.find_roots"], ops),
            "cli.main.self_s": sec["cli.main.self_s"],
            "trace.overhead": overhead,
        }
        for name in ("expr.RatExpr.add", "expr.RatExpr.mul", "expr.RatExpr.diff",
                     "factorize.verify", "operator.compose",
                     "factorize.factor_all_roots", "parser.parse"):
            out[name + ".calls"] = calls[name]
        for name in ("expr.RatExpr.add", "expr.RatExpr.mul", "expr.RatExpr.diff",
                     "charpoly.find_roots", "factorize.solve_top",
                     "factorize.solve_p3", "factorize.verify", "operator.compose",
                     "operator.transpose", "operator.change_vars",
                     "factorize.degenerate_constraints",
                     "factorize.riccati_candidates", "parser.parse", "printer"):
            out[name + ".s"] = sec[name + ".s"]
        for m in range(MAX_LEVEL + 1):
            out[f"factorize.level{m}.s"] = sec[f"factorize.level{m}.s"]
        return out
