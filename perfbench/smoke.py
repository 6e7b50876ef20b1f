"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs one pass of every workload, untraced and traced, on small inputs:
the census workload runs ``enumerate --chain 5 --census`` and requires
output byte-identical to ``fixtures/census_chain5.json`` (22 structures,
13 sharp).  Every output check must pass, and the metrics printed must
be exactly those ``BENCHMARK.json`` declares, with the same units.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    if not (run.SRC / "sharplat" / "__init__.py").is_file():
        print(f"perfbench: no sharplat sources under {run.SRC}", file=sys.stderr)
        return 2
    run.prepare()
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    ok = {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    if not ok:
        print("BENCHMARK.json workloads differ from the benchmark's", file=sys.stderr)
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run.measure(name, seed=1, seconds=0, trace=trace, tiny=True)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            good = result["correct"] and printed == units[trace]
            ok = ok and good
            print(json.dumps({"workload": name, "trace": int(trace), "ok": good,
                              "attempted": result["attempted"], "failed": result["failed"],
                              "metrics": result["metrics"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
