"""The benchmark's own correctness checks, run on one round.

perfbench/workloads.py is loaded from its path and used as it is: round 0
of `roundtrip` and `generic` at seed 0 goes through each workload's
`check` and `finish`, so a wrong factor, cofactor or residual that the
benchmark would report fails here too.  No timing is asserted."""

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


@pytest.mark.parametrize("name", ["roundtrip", "generic"])
def test_round_zero_passes_the_workload_checks(name):
    workload = _workloads().make(name, 0)
    workload.start_round()
    problems = []
    for op in workload.round(0):
        ok, why = workload.check(0, op, op.run())
        if not ok:
            problems.append(f"{op.label}: {why}")
    problems.extend(workload.finish())
    assert problems == []
