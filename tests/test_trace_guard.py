"""The benchmark's per-layer trace still finds the entry points it rebinds.

perfbench/layers.py is loaded from its path and used as it is, so renaming
or reshaping a traced entry point fails here rather than in a traced
benchmark run.  One more test pins which gcd machinery a generic-style
descent runs."""

import importlib.util
import json
from pathlib import Path

import lpdo
from lpdo import parse

ROOT = Path(__file__).resolve().parents[1]


def _layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_descent_level():
    layers = _layers()
    op = parse("(Dx - 2*Dy + x)*(Dx^2 + y*Dy + 1)")
    n = op.order
    original = lpdo.factorize.solve_level
    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        out = lpdo.factor_left(op, root_choice=lpdo.RatExpr.from_int(2))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert lpdo.factorize.solve_level is original
    assert out.status is lpdo.OutcomeStatus.FACTORED
    for m in range(n):
        assert tracer.calls[f"factorize.level{m}"] == 1
    assert f"factorize.level{n}" not in tracer.calls

    metrics = tracer.metrics([1.0], 0.0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(metrics[f"factorize.level{m}.s"] > 0 for m in range(n))


def test_factored_attempt_traces_one_verify_and_one_p3():
    # the spans that show where the certificate and p3 spend their time
    layers = _layers()
    op = parse("(Dx - 2*Dy + x)*(Dx^2 + y*Dy + 1)")
    tracer = layers.Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        out = lpdo.factor_left(op, root_choice=lpdo.RatExpr.from_int(2))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert out.status is lpdo.OutcomeStatus.FACTORED and out.certified
    assert tracer.calls["factorize.verify"] == 1
    assert tracer.calls["factorize.solve_p3"] == 1
    assert tracer.calls["operator.compose"] == 1  # the certificate's product
    metrics = tracer.metrics([1.0], 0.0)
    assert metrics["factorize.verify.s"] > 0 and metrics["factorize.solve_p3.s"] > 0
    assert metrics["charpoly.char_poly.calls_per_op"] == 0


def test_residuals_reduce_without_a_heuristic_gcd(monkeypatch):
    # a generic-style operator: linear coefficients, the simple integer root
    # 1, no factor.  Q is P'(1), of total degree 1, so every gcd against it
    # is one trial division: neither GCDHEU nor the PRS runs
    op = parse("(x + 2)*Dx^4 + (y - 1)*Dx^3*Dy + 2*x*Dx^2*Dy^2 + (y + 1)*Dx*Dy^3"
               " - (3*x + 2*y + 2)*Dy^4 + (x - y)*Dx^2 + (2*y + 1)*Dx*Dy + x*Dy + y - 3")
    calls = {"_int_gcd": 0, "_prs_gcd": 0}

    def counted(name):
        original = getattr(lpdo.expr, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lpdo.expr, name, counted(name))
    out = lpdo.factor_left(op, root_choice=lpdo.RatExpr.ONE)
    assert out.status is lpdo.OutcomeStatus.CONDITIONS_FAIL
    assert len(out.nonzero_residuals()) == 3
    assert calls == {"_int_gcd": 0, "_prs_gcd": 0}


def test_a_normalized_call_changes_variables_once():
    # only the root at infinity changes variables: the swapped operator is
    # built once, and a FACTORED outcome there maps its cofactor back; every
    # finite root is worked on the operator as given
    layers = _layers()
    for text, factored, changes in [("Dx*Dy + x*Dx + x*Dy + x^2 + 1", 1, 1),
                                    ("Dx*Dy^2 + x*Dy^2 + Dx*Dy + x*Dy + Dx + x", 1, 1),
                                    ("(Dy + x)*(Dx - Dy + y)", 2, 2),
                                    ("Dx*Dy + x*Dx + y*Dy + 7", 0, 1),
                                    ("(Dx + y)*(Dx - Dy + x)", 1, 0)]:
        tracer = layers.Tracer()
        tracer.install()
        try:
            tracer.begin_op()
            outs = lpdo.factor_all_roots(parse(text))
            tracer.end_op()
        finally:
            tracer.uninstall()
        assert len(outs) == 2
        # the swap is made for the root at infinity only, listed after the finite ones
        assert [o.root.at_infinity for o in outs] == [False, changes > 0]
        assert sum(o.status is lpdo.OutcomeStatus.FACTORED for o in outs) == factored
        assert tracer.calls["operator.change_vars"] == changes
