"""Repository benchmark: time the detector on workloads with known answers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload audit-ref --seed 1 --seconds 30 --trace 0

Workloads (see :mod:`perfbench.workloads`): ``audit-ref``,
``corpus-audit`` and ``serve-mixed``. ``--seed`` generates
the workload's inputs; ``--seconds`` is the measuring budget: passes
repeat while the next one still fits, and at least one always runs.

``--trace 0`` sets up eleven times (median ``setup_s``), runs the timed
passes and reports the end-to-end metrics. ``--trace 1`` runs one plain
set-up and pass, then installs span wrappers around the program's
public functions, sets up and runs one more pass, restores the
originals and reports per-layer metrics from the traced pass, including
the tracing overhead (traced minus plain pass wall time). A traced
target the program no longer has, in any process, fails the run.

End-to-end metrics, on every workload:

* ``setup_s`` — spawn of a fresh interpreter until the workload is ready
  to run: imports, native SAT library load (and its one-time compile),
  corpus generation (``corpus-audit``), service start until
  ``/healthz`` answers (``serve-mixed``); median of the set-ups;
* ``wall_s`` — wall time of one pass, median over the passes;
* ``peak_rss_mb`` — highest resident set of the benchmark process and
  of any child it waited for.

A pass is a fixed number of operations, so a rate (mutants or jobs per
second) would be that number over ``wall_s`` and is not reported
separately. The error rate is ``failed / attempted``: an operation (a
design, a mutant or a job) fails on a wrong verdict, an error, a
timeout, a degraded audit or a job that does not reach ``done``.

Every verdict is checked against ground truth. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the details (environment, set-up samples,
pass times, problems) go to standard error. The exit status is 0 only
for a correct run, and 2 when the checkout has no program to measure.

Everything the run writes stays under ``.bench_build/`` in the
checkout, including the native SAT library the program compiles on
first use (``XDG_CACHE_HOME``). The SAT backend is pinned to the
native one (``REPRO_SAT_BACKEND=native``) unless the caller sets the
variable; runs on another backend are marked as not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUPS = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


class Context:
    """Paths, child environment and seed shared by one run."""

    def __init__(self, seed):
        self.root = ROOT
        self.seed = seed
        self.state_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        self.work = os.path.join(self.state_dir, "run-{}".format(os.getpid()))
        os.makedirs(self.work)
        self.backends = set()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["XDG_CACHE_HOME"] = os.path.join(ROOT, ".bench_build", "xdg-cache")
        env.setdefault("REPRO_SAT_BACKEND", "native")
        self.env = env
        os.environ["XDG_CACHE_HOME"] = env["XDG_CACHE_HOME"]
        os.environ["REPRO_SAT_BACKEND"] = env["REPRO_SAT_BACKEND"]

    def path(self, tag):
        return os.path.join(self.work, tag)


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def native_library_cached(ctx):
    cache = os.path.join(ctx.env["XDG_CACHE_HOME"], "repro-sat")
    return os.path.isdir(cache) and any(
        name.endswith(".so") for name in os.listdir(cache)
    )


def environment(ctx, so_cached):
    from repro.sat.factory import backend_name
    from repro.sat.native import native_available

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "REPRO_SAT_BACKEND": backend_name(),
        "native_available": native_available(),
        "solvers_served": sorted(ctx.backends),
        "native_library_built_this_run": not so_cached,
    }


def setups(ctx, workload, count):
    """Set up ``count`` times; returns the samples and the last handle."""
    from perfbench.workloads import solver_backend

    samples, handle = [], None
    try:
        for index in range(count):
            seconds, fresh = workload.setup(ctx, "setup{}".format(index))
            samples.append(seconds)
            if handle is not None:
                workload.release(handle)
            handle = fresh
    except BaseException:
        if handle is not None:
            workload.release(handle)
        raise
    ctx.backends.add(solver_backend())
    return samples, handle


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def cpu_seconds():
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def timed_pass(ctx, workload, handle, tag, recorder=None):
    """One pass; logs its wall and CPU time and op latencies."""
    from perfbench.stats import percentile, tail_percentile

    cpu = cpu_seconds()
    result = workload.run_pass(ctx, handle, tag, recorder)
    cpu = cpu_seconds() - cpu
    lat = result.latencies
    tail = tail_percentile(len(lat))
    log("{}: wall {:.3f}s, cpu {:.3f}s, {} op(s), {} failed{}{}".format(
        tag, result.wall, cpu, result.attempted, result.failed,
        ", op p50 {:.4f}s".format(percentile(lat, 50)) if lat else "",
        ", p{} {:.4f}s".format(tail, percentile(lat, tail)) if tail else "",
    ))
    return result


def measure(ctx, workload, seconds):
    samples, handle = setups(ctx, workload, SETUPS)
    log("setup samples (s):", ", ".join("{:.4f}".format(s) for s in samples))
    passes = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            result = timed_pass(ctx, workload, handle,
                                "pass{}".format(len(passes)))
            passes.append(result)
            if deadline - time.perf_counter() < result.wall:
                break
    finally:
        workload.release(handle)
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(r.wall for r in passes),
        "peak_rss_mb": peak_rss_mb(),
    }
    counts = {
        "setup_s": "median of {} set-ups".format(len(samples)),
        "wall_s": "median of {} pass(es)".format(len(passes)),
        "peak_rss_mb": "benchmark process and its children",
    }
    for name, unit in END_TO_END.items():
        log("{} = {:.4f} {} ({})".format(name, metrics[name], unit,
                                         counts[name]))
    return passes, metrics, END_TO_END


def measure_traced(ctx, workload):
    from perfbench import layers, spans

    plain_samples, handle = setups(ctx, workload, 1)
    try:
        plain = timed_pass(ctx, workload, handle, "plain")
    finally:
        workload.release(handle)
    trace_dir = ctx.path("spans")
    os.makedirs(trace_dir)
    recorder = spans.Recorder(trace_dir)
    patches = spans.install(recorder, layers.SPECS)
    try:
        _seconds, handle = workload.setup(
            ctx, "traced-setup",
            trace_out=os.path.join(trace_dir, "child-spans.json"),
        )
        try:
            traced = timed_pass(ctx, workload, handle, "traced", recorder)
        finally:
            workload.release(handle)
    finally:
        spans.uninstall(patches)
    left = spans.leftover_wrappers()
    if left:
        traced.failed += 1
        traced.problems.append("wrappers left installed: {}".format(left))
    merged_spans, counters, missing = spans.load_dumps(
        [os.path.join(trace_dir, "*.json*")], extra=[recorder.payload()]
    )
    # a renamed target would otherwise read as a layer that became free
    traced.failed += len(missing)
    traced.problems += ["no {} to trace".format(target) for target in missing]
    log("spans merged: {} from {} process(es)".format(
        len(merged_spans), len({s["pid"] for s in merged_spans})))
    busy = {}
    for _submit, run in layers.sched_pairs(merged_spans):
        busy[run["pid"]] = busy.get(run["pid"], 0.0) + run["end"] - run["start"]
    for pid, seconds in sorted(busy.items()):
        log("pool worker {} busy {:.3f}s".format(pid, seconds))
    values = layers.layer_metrics(
        merged_spans, counters,
        window=(traced.started, traced.ended),
        traced_wall=traced.wall,
        untraced_wall=plain.wall,
        job_latencies=plain.latencies if workload.service else [],
        traced_latencies=traced.latencies if workload.service else [],
    )
    return [plain, traced], values, layers.METRICS


def exit_on_sigterm():
    """Make SIGTERM unwind this process (so ``finally`` blocks stop the
    children it started); forked children keep the default action,
    which the program's pools rely on to kill a worker."""
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log("no program at {}; run from the root of a full checkout".format(
            os.path.join("src", "repro")))
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        log("unknown workload {!r}; known: {}".format(
            args.workload, ", ".join(sorted(WORKLOADS))))
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    exit_on_sigterm()
    ctx = Context(args.seed)
    so_cached = native_library_cached(ctx)
    try:
        if args.trace:
            passes, values, units = measure_traced(ctx, workload)
        else:
            passes, values, units = measure(ctx, workload, args.seconds)
    except SetupError as exc:
        log("set-up failed:", exc)
        return 1
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    env = environment(ctx, so_cached)
    log("environment:", json.dumps(env, sort_keys=True))
    if env["solvers_served"] != ["NativeSolver"]:
        log("WARNING: checks ran on {}; not comparable with native-backend "
            "runs".format(env["solvers_served"]))
    problems = [p for r in passes for p in r.problems]
    for problem in problems:
        log("FAIL", problem)
    attempted = sum(r.attempted for r in passes)
    failed = min(attempted, sum(r.failed for r in passes))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
