"""The benchmark's own correctness checks, run on one round.

perfbench/workloads.py is loaded from its path and used as it is: round 0
of `roundtrip`, `generic` and `catalog` at seed 0 goes through each
workload's `check` and `finish`, so a wrong factor, cofactor or residual
that the benchmark would report fails here too.  As in perfbench/run.py, an
operation that raises has the exception as its result and counts as failed.
`catalog`'s `finish` runs the sympy oracle, which reads Poly.terms.  No
timing is asserted."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class bodies run
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["roundtrip", "generic", "catalog"])
def test_round_zero_passes_the_workload_checks(name, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # catalog imports oracle
    workload = _workloads().make(name, 0)
    workload.start_round()
    problems = []
    for op in workload.round(0):
        try:
            result = op.run()
        except Exception as exc:
            result = exc
        if isinstance(result, Exception):
            ok, why = False, f"{type(result).__name__}: {result}"
        else:
            ok, why = workload.check(0, op, result)
        if not ok:
            problems.append(f"{op.label}: {why}")
    problems.extend(workload.finish())
    assert problems == []
