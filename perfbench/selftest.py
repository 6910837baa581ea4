"""Self-test of the benchmark harness at tiny size.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Runs every workload untraced and traced with a handful of operations and
checks the result line against BENCHMARK.json: exactly the keys `correct`,
`attempted`, `failed`, `metrics`, and exactly the metrics and units the
file names.  Also checks that traced counts repeat exactly, that catalog
fails only its known-fault operations, and that the harness refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("roundtrip", "generic", "catalog")
# the harness with every run shrunk to one round
_TINY = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
         "run.MIN_OPS = 1; sys.exit(run.main(sys.argv[2:]))")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(workload, trace, seed=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "-c", _TINY, os.path.join(cwd, "perfbench"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(workload, trace, seed=1):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert set(result["metrics"]) == set(want), set(result["metrics"]) ^ set(want)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, entry
        assert entry["unit"] == want[name], (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)
    assert result["correct"] is True, proc.stdout[-3000:]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_end_to_end_results():
    for workload in WORKLOADS:
        result = _result(workload, 0)
        for entry in result["metrics"].values():
            assert entry["value"] > 0, (workload, result)
        if workload != "catalog":
            assert result["failed"] == 0, (workload, result)


def _catalog_fault_ops() -> int:
    """Operations of a catalog round labelled with a known fault."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import catalog

        return sum(op.fault is not None for op in catalog.Catalog(1).ops)
    finally:
        del sys.path[:2]


def test_catalog_fails_only_known_faults():
    # `correct` (checked in _result) holds only if every failure shows its
    # fault's own symptom; here every labelled operation must fail
    result = _result("catalog", 0)
    per_round = _result("catalog", 1)["attempted"]  # traced: one round here
    assert result["attempted"] % per_round == 0
    assert result["failed"] == _catalog_fault_ops() * result["attempted"] // per_round


def test_traced_counts_repeat():
    for workload in WORKLOADS:
        a, b = _result(workload, 1), _result(workload, 1)
        for name, entry in a["metrics"].items():
            if entry["unit"] in ("count", "calls/op"):
                assert entry["value"] == b["metrics"][name]["value"], (workload, name)


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("roundtrip", 0, cwd=tmp)
        assert proc.returncode != 0
        assert not proc.stdout.strip()


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
