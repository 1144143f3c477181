"""Benchmark of polyreal as a batch verifier.

Run from the repository root:

    python3 perfbench/run.py --workload image-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs one job at a time, in a closed loop, with no threads: a
pass runs the workload's job list once, and passes repeat until the time is
up. Every verdict is checked against perfbench/expected.json. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs untraced passes for half the time, then one
traced pass, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is the result as one JSON object; a full
report, and the spans of a traced run, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9

# The speed of this kind of shared machine drifts by up to 2x, within
# seconds. So each timed call is bracketed by a fixed stdlib-only
# calibration loop and reported at the loop's reference speed:
# t * CAL_REF_S / (mean of the loop times just before and just after).
# CAL_REF_S is the loop's median time on the machine the bounds were set on
# (see NOTES.md), so reported times read as seconds on that machine.
CAL_REF_S = 0.0143

# Runs in a fresh interpreter: import polyreal and build every job's root
# system and adapted sequence, timed from inside the child and bracketed by
# the calibration loop there, since the child may run on another core.
SETUP_CODE = """
import json, sys, time
from run import Timing
timing = Timing()
import polyreal
for family, n, word in json.loads(sys.argv[1]):
    polyreal.build_adapted(polyreal.build_root_system(polyreal.AlgebraType(family, n)), word)
timing.stop()
print(timing.ref(timing.wall))
"""


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _touch(table, key, i):
    cell = table.get(key)
    if cell is None:
        cell = table[key] = _Cell(key, 0)
    cell.value += i
    return cell


def calibration_loop(rounds: int = 9000) -> float:
    """Seconds taken by a fixed mix of calls, tuples, dicts, sorts and sets."""
    t0 = time.perf_counter()
    table, seen, acc = {}, set(), 0
    for i in range(rounds):
        key = (i % 7, i % 11, i % 13)
        row = sorted({key[2]: i, key[0]: key[1], key[1]: key[0]}.items())
        acc += _touch(table, key, row[0][1]).value
        seen.add(tuple(v for _, v in row))
    if acc < 0 or not seen:  # keeps the work observable
        raise AssertionError
    return time.perf_counter() - t0


def cpu_time() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Timing:
    """Wall and CPU time of one call, and the calibration loop time around it."""

    def __init__(self):
        self.loop = calibration_loop()
        self._cpu, self._wall = cpu_time(), time.perf_counter()

    def stop(self) -> "Timing":
        self.wall = time.perf_counter() - self._wall
        self.cpu = cpu_time() - self._cpu
        self.loop = (self.loop + calibration_loop()) / 2
        return self

    def ref(self, seconds: float) -> float:
        return seconds * CAL_REF_S / self.loop


def fail_setup(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "polyreal" / "__init__.py").is_file():
        fail_setup(f"no polyreal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyreal

    if Path(polyreal.__file__).resolve().parent != SRC / "polyreal":
        fail_setup(f"imported polyreal from {polyreal.__file__}, not from {SRC}")
    return polyreal


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(jobs) -> list:
    """Set-up times of fresh interpreters, at the calibration loop's reference speed."""
    specs = sorted({(j.family, j.n, j.word) for j in jobs})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(specs)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    # The first child compiles the byte code; users pay that once.
    return samples[1:]


class Runner:
    def __init__(self, wl, jobs, expected):
        self.wl = wl
        self.jobs = jobs
        self.expected = expected
        self.seqs = {
            (j.family, j.n, j.word): wl.build_sequence(j)
            for j in jobs
            if j.call.api != "cli.verify"
        }
        self.timings = [[] for _ in jobs]
        self.attempted = 0
        self.failures = []
        self.work = {}

    def run_pass(self, tracer=None) -> list:
        """One pass over the job list; returns the timing of each job."""
        timings = []
        work = {}
        for job in self.jobs:
            got = self._run_job(job, tracer, timings)
            want = self.expected[job.id]
            if (got["status"], got.get("digest")) != (want["status"], want["digest"]):
                self.failures.append({"job": job.id, "expected": want, "got": got})
            for key, value in got.get("counts", {}).items():
                work[key] = work.get(key, 0) + value
        self.work = work
        return timings

    def _run_job(self, job, tracer, timings: list) -> dict:
        """Time one job and return its verdict; its result dies with this frame."""
        if tracer is not None:
            tracer.job = job.id
        seq = self.seqs.get((job.family, job.n, job.word))
        # Start every job from the same collector state, so that a collection
        # triggered by an earlier job's garbage is not timed.
        gc.collect()
        timing = Timing()
        self.attempted += 1
        # A job that raises, or whose output cannot be read, is a failed job.
        try:
            result = self.wl.invoke(job, seq)
        except Exception as exc:
            timings.append(timing.stop())
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        timings.append(timing.stop())
        try:
            return self.wl.verdict(job, result)
        except Exception as exc:
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}

    def timed_passes(self, budget: float) -> None:
        """Repeat passes until the next one would end after the budget."""
        lengths = []
        start = time.perf_counter()
        while True:
            p0 = time.perf_counter()
            for per_job, timing in zip(self.timings, self.run_pass()):
                per_job.append(timing)
            lengths.append(time.perf_counter() - p0)
            if time.perf_counter() - start + statistics.median(lengths) > budget:
                return

    def pass_time(self, field: str) -> float:
        """Sum over jobs of the job's median time at reference speed."""
        return sum(
            statistics.median(t.ref(getattr(t, field)) for t in per_job)
            for per_job in self.timings
        )

    def raw_passes(self) -> list:
        return [sum(ts) for ts in zip(*([t.wall for t in per_job] for per_job in self.timings))]


def run_workload(args) -> int:
    import workloads as wl
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    jobs = wl.draw_jobs(args.workload, args.seed, args.size, expected)
    setup = measure_setup(jobs)
    runner = Runner(wl, jobs, expected)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_revision": git_revision(),
            "nproc": os.cpu_count(),
        },
        "jobs": [j.describe() for j in jobs],
        "cal_ref_s": CAL_REF_S,
        "setup_ref_s": setup,
    }
    if args.trace:
        runner.timed_passes(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        values = {m["name"]: tracer.metric(m["name"]) for m in spec["per_layer"]
                  if m["name"] != "trace.overhead_s"}
        traced_ref = sum(t.ref(t.wall) for t in traced)
        values["trace.overhead_s"] = traced_ref - runner.pass_time("wall")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        report["traced_pass_ref_s"] = traced_ref
        report["counters"] = dict(sorted(tracer.counters.items()))
        report["calls"] = {name: stat[0] for name, stat in sorted(tracer.stats.items())}
    else:
        runner.timed_passes(args.seconds)
        values = {
            "wall_ref_s": runner.pass_time("wall"),
            "cpu_ref_s": runner.pass_time("cpu"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    raw = runner.raw_passes()
    report.update(
        passes=len(raw),
        pass_wall_raw_s=raw,
        job_wall_ref_s=[[t.ref(t.wall) for t in per_job] for per_job in runner.timings],
        job_calibration_loop_s=[[t.loop for t in per_job] for per_job in runner.timings],
        work_per_pass=dict(sorted(runner.work.items())),
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:10],
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        spans = tracer.span_records()
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans) + "\n")
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']}")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure['job']}: got {failure['got']}", file=sys.stderr)
    correct = not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print its end-to-end metrics."""
    import workloads as wl

    status = 0
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0", "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"{name} failed with exit {done.returncode}: {done.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:12s} {m['value']:12.6g} {m['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="polyreal benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny bounds are for the smoke test")
    args = parser.parse_args()
    import_package()
    import workloads as wl

    if args.workload == "all":
        return run_all(args)
    if args.workload not in wl.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
