"""Run the benchmark over several seeds and summarise each metric.

    python3 glatbench/repeat.py --runs 10 [--first-seed 1] [--workload search] [--out FILE]

For each workload, runs ``run.py --trace 0`` once per seed (``--runs``
seeds from ``--first-seed`` on), one process at a time, and prints
every end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) next to a third of
the metric's bound from BENCHMARK.json.
``--out`` writes the runs and the summary as JSON, with the Python
version, CPU count and git commit they were taken on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = [one_run(workload, seed, seconds) for seed in seeds]
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summary[m["name"]] = summarise(values)
            s["unit"] = m["unit"]
            ok = m["name"] == "setup_s" or s["spread"] <= m["bound"] / 3
            steady &= ok
            print(f"{workload:9s} {m['name']:14s} median {s['median']:11.5g} {m['unit']:5s} "
                  f"q1 {s['q1']:11.5g} q3 {s['q3']:11.5g} spread {s['spread']:.4f} "
                  f"(bound/3 {m['bound'] / 3:.4f}){'' if ok else '  WIDE'}", flush=True)
        report["workloads"][workload] = {
            "summary": summary,
            "runs": [{"seed": seed, "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                     for seed, r in zip(seeds, runs)],
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
