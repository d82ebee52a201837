"""Closed-loop benchmark of linhyp's command paths, run in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One client on one thread submits the next job only when
the previous one has finished.  Jobs call the public functions the
``linhyp`` CLI commands call, in process, so that interpreter start-up does
not swamp jobs of a few milliseconds.  Every output is checked, outside
the timed region, against an independent reference.

The machine is shared and its speed drifts, so every end-to-end time is
scaled to a reference speed by a ``SpeedGauge`` read between jobs; the
unscaled figures are printed too.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every job runs twice, untraced and traced, in alternating
order, and the run reports the per-layer metrics; the spans are written to
``perfbench/out/``.  Every metric is printed by name and unit, and the last
line of standard output is one JSON object.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# the program's set-up is repeated at least SETUP_REPEATS times and until
# SETUP_MIN_S of it has passed, at most SETUP_MAX_REPEATS times; setup_s
# is the median
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 201
# end-to-end times are reported at the speed at which one gauge reading
# takes this long, about its time on an unloaded 2.1 GHz Xeon with
# Python 3.11; the gauge is read after every 0.1 s of job time
GAUGE_REFERENCE_S = 0.0015
GAUGE_EVERY_S = 0.1


def import_program():
    """linhyp from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import linhyp
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import linhyp from {src}: {exc}")
    if Path(linhyp.__file__).resolve().parent != (src / "linhyp").resolve():
        sys.exit(f"perfbench: linhyp was imported from {linhyp.__file__},"
                 f" not from {src}")
    return linhyp


def source_id() -> str:
    """The git commit when the checkout is a repository, and always a
    digest of the program's sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"commit {commit}, src sha256 {digest.hexdigest()[:16]}"


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"{model}, nproc {os.cpu_count()}, Python "
            f"{platform.python_version()}, {platform.system()} "
            f"{platform.release()}")


def run_job(job):
    start = perf_counter()
    try:
        out, err = job.run(), None
    except Exception as exc:  # a failed job is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, perf_counter() - start


def check(job, out, err) -> str | None:
    return err if err is not None else job.check(out)


def p95(latencies: list[float]) -> tuple[float, int]:
    """Nearest-rank 95th percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class SpeedGauge:
    """Reads the machine's current speed.

    The machine is shared, and its speed drifts by up to a factor of two
    within minutes.  A reading times a fixed computation from the
    benchmark's own code, which calls nothing in linhyp: the isomorphism
    code of one fixed 400-generator composite.  It runs once to warm the
    caches and is then timed, with the garbage collector paused, so the
    reading follows the processor's speed and not the program's heap.
    """

    def __init__(self) -> None:
        import random

        import reference
        import workloads

        graph = reference.from_term(
            workloads.composite(random.Random(0), 400), workloads.LAW_GENS)
        self._work = lambda: reference.canonical_code(graph)
        self.readings: list[float] = []

    def read(self) -> float:
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._work()
            start = perf_counter()
            self._work()
            took = perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.readings.append(took)
        return took

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two readings into
        the time at the reference speed."""
        return GAUGE_REFERENCE_S * 2 / (before + after)


def passes(jobs, seconds: float, busy):
    """The pool's jobs, in whole passes, until ``busy()`` seconds of job
    time have passed at the end of a pass.  Every run thus measures the
    same mix of jobs, however fast the machine and the program are."""
    while True:
        yield from enumerate(jobs)
        if busy() >= seconds:
            return


def setup_times(prepare, gauge: SpeedGauge) -> tuple[list[float], list[float]]:
    """Times of repeated runs of the program's set-up, scaled and not."""
    scaled: list[float] = []
    raw: list[float] = []
    before = gauge.read()
    while len(raw) < SETUP_REPEATS or (sum(raw) < SETUP_MIN_S
                                       and len(raw) < SETUP_MAX_REPEATS):
        gc.collect()
        start = perf_counter()
        prepare()
        took = perf_counter() - start
        after = gauge.read()
        scaled.append(took * gauge.scale(before, after))
        raw.append(took)
        before = after
    return scaled, raw


def closed_loop(jobs, seconds: float, failures: list, gauge: SpeedGauge):
    """Run the pool's jobs back to back, in whole passes, until ``seconds``
    of job time have passed.  Returns each job's latency in seconds, scaled
    to the reference speed, and unscaled.  The gauge is read every
    ``GAUGE_EVERY_S`` of job time, and a job's scale comes from the
    readings either side of it."""
    scaled: list[float] = []
    raw: list[float] = []
    pending: list[float] = []
    before = gauge.read()
    busy = since = 0.0
    for i, job in passes(jobs, seconds, lambda: busy):
        out, err, elapsed = run_job(job)
        raw.append(elapsed)
        pending.append(elapsed)
        busy += elapsed
        since += elapsed
        problem = check(job, out, err)
        if problem:
            failures.append((i, job, problem))
        if since >= GAUGE_EVERY_S:
            after = gauge.read()
            factor = gauge.scale(before, after)
            scaled.extend(t * factor for t in pending)
            pending.clear()
            before, since = after, 0.0
    if pending:
        factor = gauge.scale(before, gauge.read())
        scaled.extend(t * factor for t in pending)
    return scaled, raw


def traced_loop(jobs, seconds: float, failures: list):
    """Each job untraced and traced, alternating which goes first, in
    whole passes."""
    from tracer import Tracer

    tracer = Tracer()
    untraced: list[float] = []
    busy = 0.0
    attempted = 0
    for i, job in passes(jobs, seconds, lambda: busy):
        for traced in ((False, True) if attempted % 2 == 0 else (True, False)):
            out, err, elapsed = (tracer.run(job) if traced else run_job(job))
            if not traced:
                untraced.append(elapsed * 1e3)
            busy += elapsed
            problem = check(job, out, err)
            if problem:
                failures.append((i, job, problem))
        attempted += 1
    return tracer, untraced, 2 * attempted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r};"
                 f" choose from {sorted(workloads.WORKLOADS)}")
    start = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    generate_s = perf_counter() - start
    jobs = workload.jobs
    gauge = SpeedGauge()
    setup_scaled, setup_raw = setup_times(workload.prepare, gauge)

    failures: list = []
    if args.trace:
        tracer, untraced, attempted = traced_loop(jobs, args.seconds, failures)
        results = tracer.metrics(untraced)
        from tracer import metric_names
        metrics = {name: (results[name], unit) for name, unit in metric_names()}
        out_dir = ROOT / "perfbench" / "out"
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
    else:
        latencies, raw = closed_loop(jobs, args.seconds, failures, gauge)
        attempted = len(latencies)
        tail, beyond = p95(latencies)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "jobs_per_s": (attempted / sum(latencies), "1/s"),
            "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "job_p95_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s of jobs, trace {args.trace}")
    print(f"# machine: {machine()}")
    print(f"# program: {source_id()}")
    print(f"# closed loop, 1 client, 1 thread: {attempted} jobs attempted in "
          f"whole passes of {len(jobs)}, {len(failures)} failed, "
          f"error_rate {len(failures) / attempted:.6f}")
    print(f"# inputs made by the benchmark in {generate_s:.4f} s, outside "
          f"setup_s")
    print(f"# setup_s over {len(setup_raw)} set-ups of the program, median "
          f"unscaled {statistics.median(setup_raw):.6f} s, scaled range "
          f"{min(setup_scaled):.6f}-{max(setup_scaled):.6f} s")
    readings = sorted(gauge.readings)
    print(f"# speed gauge: {len(readings)} readings, median "
          f"{statistics.median(readings) * 1e3:.3f} ms, range "
          f"{readings[0] * 1e3:.3f}-{readings[-1] * 1e3:.3f} ms; reference "
          f"{GAUGE_REFERENCE_S * 1e3:.3f} ms")
    if not args.trace:
        raw_tail, _ = p95(raw)
        print(f"# times below are scaled to the reference speed; unscaled: "
              f"jobs_per_s {attempted / sum(raw):.4f}, job_p50_ms "
              f"{statistics.median(raw) * 1e3:.4f}, job_p95_ms "
              f"{raw_tail * 1e3:.4f}")
        print(f"# job_p95_ms over {attempted} jobs, {beyond} beyond it")
    for i, job, problem in failures[:10]:
        print(f"# FAILED job {i} ({job.kind}, {job.edges} edges): {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
