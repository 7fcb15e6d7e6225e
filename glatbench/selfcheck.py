"""Quick self-check of the benchmark, about a minute.

    python3 glatbench/selfcheck.py

Runs the first three jobs of each workload, timed and traced, and
asserts that every metric BENCHMARK.json names is printed with its
unit and nothing else is; that a run of correct jobs reads
``checked_share`` 1; and that tampering with one expected digest shows
up as one failed job in ``failed`` and ``checked_share``.
"""

import json
import os
import sys

import run

JOBS = 3
TAMPERED = ("subspace", "subspace-lattice gf:2 3")


def check(condition, message):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check({w["name"] for w in bench["workloads"]} == set(run.workloads.SETUPS),
          "BENCHMARK.json and workloads.py list different workloads")
    for workload in run.workloads.SETUPS:
        for trace in (0, 1):
            result = run.run_workload(workload, seed=1, seconds=0, trace=trace, max_jobs=JOBS)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == wanted[trace], f"{workload} trace {trace} printed {units}")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: {result['failed']} failed")
            if trace == 0:
                check(result["metrics"]["checked_share"]["value"] == 1.0,
                      f"{workload}: checked_share is not 1")
            print(f"selfcheck: {workload} trace {trace}: {len(units)} metrics, "
                  f"{result['attempted']} jobs checked")

    workload, job = TAMPERED
    expected = run.read_data(run.EXPECTED_PATH)["results"]
    expected[job] = dict(expected[job], stdout="0" * 64)
    result = run.run_workload(workload, seed=1, seconds=0, trace=0, expected=expected,
                              max_jobs=JOBS)
    share = result["metrics"]["checked_share"]["value"]
    check(not result["correct"] and result["failed"] == 1,
          f"tampered digest gave failed={result['failed']}")
    check(share == (JOBS - 1) / JOBS, f"tampered digest gave checked_share={share}")
    print(f"selfcheck: tampered digest of {job!r} counted: failed 1 of {JOBS}, "
          f"checked_share {share:.4f}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
