#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny horizon (the program's --smoke mode) twice
untraced and once traced, and checks that:
  * each run exits 0 with a valid result line, correct, and no failed
    repetition;
  * the untraced runs print exactly the end_to_end metrics of
    BENCHMARK.json and the traced run exactly its per_layer metrics, each
    with the unit BENCHMARK.json names;
  * sim_digest repeats across the three runs, and the untraced runs
    repeat every draw's digest (sim_digest.drawN).
Exits 0 when every check passes; prints one line per failure otherwise.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SEED = 3
SECONDS = 0.5


def expected_units(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def check_run(binary, workload, trace, want, failures):
    code, lines = run.run_bench(binary, workload, SEED, SECONDS, trace,
                                 smoke=True)
    result = run.parse_result(lines)
    tag = f"{workload} trace={trace}"
    if code != 0 or result is None:
        failures.append(f"{tag}: exit {code}, no valid result line")
        return None
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        failures.append(f"{tag}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name, unit in want.items():
        if name not in got:
            failures.append(f"{tag}: metric {name} missing")
        elif got[name] != unit:
            failures.append(f"{tag}: metric {name} unit {got[name]!r}, "
                            f"expected {unit!r}")
        elif not isinstance(result["metrics"][name].get("value"),
                            (int, float)):
            failures.append(f"{tag}: metric {name} has no numeric value")
    for name in got.keys() - want.keys():
        failures.append(f"{tag}: unexpected metric {name}")
    digests = dict(l[2:].split("=", 1) for l in lines
                   if l.startswith("# sim_digest"))
    if "sim_digest" not in digests:
        failures.append(f"{tag}: no sim_digest line")
        return None
    return digests


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = expected_units(spec, "end_to_end")
    layers = expected_units(spec, "per_layer")
    binary = run.build()
    if binary is None:
        print("smoke: build failed")
        return 2
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = [check_run(binary, workload, 0, e2e, failures),
                   check_run(binary, workload, 0, e2e, failures),
                   check_run(binary, workload, 1, layers, failures)]
        if None in digests:
            continue
        if len({d["sim_digest"] for d in digests}) != 1 or \
                digests[0] != digests[1]:
            failures.append(f"{workload}: sim_digest differs across runs: "
                            f"{digests}")
        print(f"smoke: {workload} {digests[0]}", flush=True)
    for f in failures:
        print(f"smoke FAILED: {f}")
    if not failures:
        print("smoke: all workloads print every metric with its unit; "
              "sim_digest repeats")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
