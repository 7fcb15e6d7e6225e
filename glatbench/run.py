"""The glattice benchmark: run one workload's verification jobs, check
every output, and print its metrics.

    python3 glatbench/run.py --workload subspace --seed 1 --seconds 36 --trace 0
    python3 glatbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Load model: closed loop, one client, one process, no threads.  The next
job starts when the previous one has returned and its output has been
compared with the recorded expected result.  The library under test is
the ``src/`` tree next to this directory, imported in-process; the CLI
runs through ``glattice.cli.main(argv)``.

``--trace 0`` sets up five times (the median is ``setup_s``), then times
whole passes over the workload's jobs for about ``--seconds`` (the seed
sets the order of each pass and the sampled inputs) and prints the
end-to-end metrics, with times scaled to a reference machine speed
(see CALIBRATION_REF_S).  ``--trace 1`` runs one pass
untraced and the same pass again under cProfile, with a span around
every job and every library or CLI call, and prints the per-layer
metrics; the spans go to ``.glatbench/spans-<workload>-<seed>.json``.
The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

import argparse
import contextlib
import cProfile
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".glatbench")
INPUTS_PATH = os.path.join(HERE, "data", "inputs.json")
EXPECTED_PATH = os.path.join(HERE, "data", "expected.json")

SETUP_REPEATS = 5
JOB_LIMIT_S = 60.0
# cProfile made a pass up to about 6x slower
TRACE_LIMIT_FACTOR = 8
# the benchmark must exit within 180 s; jobs still running then fail
RUN_DEADLINE_S = 165.0
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
TAIL_BEYOND = 10
# This machine's speed drifts by up to 1.5x, in phases of seconds to
# minutes.  A fixed pure-Python loop, timed before every job, measures
# the speed of the moment; timed metrics are scaled to the speed at which
# the loop takes CALIBRATION_REF_S.  The scale for a job is the median
# of the CALIBRATION_WINDOW loops on either side of it.
CALIBRATION_LOOPS = 5000
CALIBRATION_REF_S = 0.0005
CALIBRATION_WINDOW = 10


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException, so library code
    that catches Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


class NoSpans:
    """Calls straight through: the timed run records nothing."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


NO_SPANS = NoSpans()


class Spans:
    """In-memory spans around jobs and the library or CLI calls they
    make; the profiler runs only inside call spans."""

    def __init__(self, profiler):
        self.profiler = profiler
        self.records = []
        self.stack = []
        self.job = None
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.records)
        parent = self.stack[-1] if self.stack else None
        self.records.append(None)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.records[index] = {
                "id": index,
                "name": name,
                "job": self.job,
                "parent": parent,
                "start": start - self.origin,
                "end": end - self.origin,
            }

    def call(self, name, fn, *args):
        with self.span(name):
            self.profiler.enable()
            try:
                return fn(*args)
            finally:
                self.profiler.disable()


def calibrate():
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def speed_scales(calibrations):
    """Per sample, CALIBRATION_REF_S over the median of the calibration
    loops around it."""
    scales = []
    for i in range(len(calibrations)):
        window = calibrations[max(0, i - CALIBRATION_WINDOW): i + CALIBRATION_WINDOW + 1]
        scales.append(CALIBRATION_REF_S / statistics.median(window))
    return scales


def import_glattice():
    """A fresh import of the glattice package under ``src/``."""
    for name in [m for m in sys.modules if m == "glattice" or m.startswith("glattice.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    glat = importlib.import_module("glattice")
    importlib.import_module("glattice.cli")
    importlib.import_module("glattice.jsonio")
    if not os.path.abspath(glat.__file__).startswith(SRC + os.sep):
        raise ImportError(f"glattice imported from {glat.__file__}, not from {SRC}")
    return glat


def normalized(value):
    return json.loads(json.dumps(value))


def read_data(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_data(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)
        handle.write("\n")


@contextlib.contextmanager
def work_dir(label):
    path = os.path.join(OUT, f"work-{label}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(workload, data, expected, work, seed, max_jobs=None):
    """Import and generate inputs SETUP_REPEATS times; keep the last.
    Returns the package, the jobs of one pass and the median set-up
    time, scaled to the reference speed."""
    times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        calibrations += [calibrate() for _ in range(CALIBRATION_WINDOW)]
        start = time.perf_counter()
        glat = import_glattice()
        jobs = workloads.SETUPS[workload](glat, data, expected, work, random.Random(seed))
        times.append(time.perf_counter() - start)
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    return glat, jobs[:max_jobs], statistics.median(times) * scale


class Runner:
    """Runs jobs one at a time under a per-job time limit, checks each
    observation against the expected result, and keeps every job's
    latency and verdict next to a calibration loop timed just before it."""

    def __init__(self, expected, limit, deadline):
        self.expected = expected
        self.limit = limit
        self.deadline = deadline
        self.latencies = []
        self.checked = []
        self.calibrations = []
        self.out_of_time = False

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.checked.count(False)

    def run(self, job, calls):
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            self.out_of_time = True
            return
        self.calibrations.append(calibrate())
        signal.setitimer(signal.ITIMER_REAL, min(self.limit, remaining))
        start = time.perf_counter()
        try:
            seen = normalized(job.run(calls))
            error = None if seen == self.expected.get(job.name) else "output differs"
        except JobTimeout:
            error = "over the time limit"
        except Exception as exc:  # a failed job is counted, and the run goes on
            error = f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
        self.latencies.append(latency)
        self.checked.append(error is None)
        if error and self.failed <= 5:
            print(f"job failed: {job.name}: {error}", file=sys.stderr)

    def scaled_latencies(self):
        """Latencies at the reference speed."""
        return [t * scale for t, scale in zip(self.latencies, speed_scales(self.calibrations))]


def tail_percentile(jobs_per_pass):
    """The highest listed percentile with at least TAIL_BEYOND jobs of
    one pass beyond it; fixed per workload, whatever the pass count."""
    for p in TAIL_PERCENTILES:
        if jobs_per_pass * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return 50


def percentile(values, p):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, data, expected, work, seed, seconds, runner, max_jobs):
    """Whole passes over the jobs, each in a fresh seeded order; another
    pass starts only if it is expected to end within ``seconds``."""
    _, jobs, setup_s = set_up(workload, data, expected, work, seed, max_jobs)
    order = random.Random(f"order:{seed}")
    passes = 0
    longest = 0.0
    start = time.perf_counter()
    while not runner.out_of_time:
        pass_start = time.perf_counter()
        for job in order.sample(jobs, len(jobs)):
            runner.run(job, NO_SPANS)
        passes += 1
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        if now - start + longest > seconds:
            break
    p_tail = tail_percentile(len(jobs))
    print(
        f"{workload}: {passes} passes of {len(jobs)} jobs in {time.perf_counter() - start:.2f} s; "
        f"job_ms_tail is p{p_tail}; {runner.failed} of {runner.attempted} jobs failed"
    )
    scaled = runner.scaled_latencies()
    checked_ms = [t * 1000 for t, ok in zip(scaled, runner.checked) if ok] or [0.0]
    n_checked = sum(runner.checked)
    return {
        "setup_s": metric(setup_s, "s"),
        "job_ms_p50": metric(percentile(checked_ms, 50), "ms"),
        "job_ms_tail": metric(percentile(checked_ms, p_tail), "ms"),
        # a failed job's time is spent, but it completes nothing
        "jobs_per_s": metric(n_checked / (sum(scaled) or 1.0), "1/s"),
        "checked_share": metric(n_checked / max(runner.attempted, 1), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, data, expected, work, seed, runner, max_jobs):
    """One pass untraced, then the same pass with spans and cProfile."""
    glat, jobs, _ = set_up(workload, data, expected, work, seed, max_jobs)
    one_pass = random.Random(f"order:{seed}").sample(jobs, len(jobs))
    plain = Runner(expected, JOB_LIMIT_S, runner.deadline)
    start = time.perf_counter()
    for job in one_pass:
        plain.run(job, NO_SPANS)
    untraced_s = time.perf_counter() - start
    profiler = cProfile.Profile()
    spans = Spans(profiler)
    start = time.perf_counter()
    for index, job in enumerate(one_pass):
        spans.job = index
        with spans.span(job.name):
            runner.run(job, spans)
    traced_s = time.perf_counter() - start
    runner.latencies += plain.latencies
    runner.checked += plain.checked
    runner.out_of_time |= plain.out_of_time
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"spans-{workload}-{seed}.json"), "w") as handle:
        json.dump(spans.records, handle)
    metrics = layers.per_layer_metrics(glat, profiler, SRC, HERE)
    metrics["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    return metrics


def run_workload(workload, seed, seconds, trace, expected=None, max_jobs=None):
    """One workload in this process; returns the result object."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    data = read_data(INPUTS_PATH)
    if expected is None:
        expected = read_data(EXPECTED_PATH)["results"]
    os.environ.pop("GLAT_THREADS", None)
    signal.signal(signal.SIGALRM, _on_alarm)
    with work_dir(workload) as work:
        if trace:
            runner = Runner(expected, JOB_LIMIT_S * TRACE_LIMIT_FACTOR, deadline)
            metrics = traced_run(workload, data, expected, work, seed, runner, max_jobs)
        else:
            runner = Runner(expected, JOB_LIMIT_S, deadline)
            metrics = timed_run(workload, data, expected, work, seed, seconds, runner, max_jobs)
    return {
        "correct": runner.failed == 0 and not runner.out_of_time and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for workload in workloads.SETUPS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        results[workload] = json.loads(lines[-1])
        for name, m in results[workload]["metrics"].items():
            print(f"  {workload:9s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.SETUPS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "glattice")):
        print(f"no glattice sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
