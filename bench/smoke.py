"""Smoke self-test of the benchmark: one short run of each workload.

Run from the root of a checkout:

    python3 bench/smoke.py

For each workload it makes one untraced iteration and one untraced plus one
traced iteration (mc_linear with 800 paths instead of 8000), and asserts
that every metric BENCHMARK.json names is reported with its unit, that no
operation failed and that every output check passed.  Exits 0 on success.
"""

import functools
import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    run.import_from_checkout(root)
    import workloads
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    factories = dict(workloads.WORKLOADS,
                     mc_linear=functools.partial(workloads.mc_linear, n_paths=800))
    for name, factory in factories.items():
        for trace in (False, True):
            result = run.run_workload(name, 1, 0.0, trace, root, factory=factory,
                                      min_iterations=2 if trace else 1)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == expected[trace], f"{name} trace={trace}: metrics {got}"
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            assert result["failed"] == 0, f"{name}: {result['problems']}"
            assert result["attempted"] == len(factory(root, 1).ops) * len(result["iterations"])
            print(f"ok {name} trace={int(trace)} "
                  f"iterations={len(result['iterations'])} attempted={result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
