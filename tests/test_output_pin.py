"""The printed outcomes of round 0 of `roundtrip`, `generic` and `catalog` at
seed 0, pinned byte for byte.

perfbench/workloads.py builds the inputs.  Every operation whose result is a
FactorizationOutcome (all of `roundtrip` and `generic`; in `catalog` the
rational-function denominators, radicals, parameters and normalizations) has
its status, factor, cofactor, extensions, residuals and Riccati constraints
printed and compared with tests/data/outcomes_seed0.txt.  A change to the
arithmetic that moves any canonical form, or the order of the residuals,
fails here.  After a change that is meant to move an output, regenerate the
file with

    PYTHONPATH=src python tests/test_output_pin.py > tests/data/outcomes_seed0.txt

`python tests/test_output_pin.py SEED ROUNDS` prints the same text for
another seed and the first ROUNDS rounds (defaults 0 and 1, the pinned
ones), so that two checkouts compare with one diff.
"""

import importlib.util
import sys
from pathlib import Path

import lpdo

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "outcomes_seed0.txt"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads_pin", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def render(seed: int = 0, rounds: int = 1) -> str:
    workloads = _workloads()
    lines = []
    sys.path.insert(0, str(ROOT / "perfbench"))  # catalog imports workloads by name
    try:
        made = {name: workloads.make(name, seed) for name in ("roundtrip", "generic", "catalog")}
        ops = [(name, i, op) for name, w in made.items()
               for i, op in enumerate(op for r in range(rounds) for op in w.round(r))]
        results = [(name, i, op, op.run()) for name, i, op in ops]
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for name, i, op, out in results:
        if isinstance(out, lpdo.FactorizationOutcome):
            lines += [f"{name} {i}: {op.label}",
                      f"  status: {out.status.value}",
                      f"  factor: {out.factor}",
                      f"  cofactor: {out.cofactor}",
                      f"  extensions: {out.root.extensions if out.root else ()}"]
            lines += [f"  residual: {r}" for r in out.residuals]
            if out.riccati is not None:
                lines += [f"  constraint: {c}" for c in out.riccati.constraints]
    return "\n".join(lines) + "\n"


def test_round_zero_outcomes_match_the_pinned_text():
    assert render() == PINNED.read_text()


if __name__ == "__main__":
    sys.stdout.write(render(*map(int, sys.argv[1:3])))
