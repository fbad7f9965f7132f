"""Which public functions are traced, and the per-layer metrics.

Layers are the program's modules. Every ``<name>.s`` metric is *self*
time: time in that layer's spans minus the time of traced calls made
from inside them, summed over every process of the run, so the layer
times add up without counting a nested call twice.
"""

from __future__ import annotations

import os

from perfbench.spans import Spec, self_times, union_length
from perfbench.stats import percentile


def _observe_solve(recorder, _span, _args, result):
    recorder.count("sat.conflicts", result.conflicts)
    if result.status == "sat":
        recorder.count("sat.sat_answers")


def _observe_propagate(recorder, _span, args, _result):
    recorder.count("sim.lane_cycles", args[0].lanes)


def _observe_runner(recorder, _span, _args, outcome):
    attempts = len(outcome.attempts)
    recorder.count("runner.attempts", attempts)
    recorder.count("runner.retries", max(0, attempts - 1))
    if not outcome.ok:
        recorder.count("runner.failed")


def _observe_lookup(recorder, _span, _args, entry):
    if entry is not None:
        recorder.count("cache.hits")


def _observe_submit(_recorder, span, args, accepted):
    """Note which worker process took the task (pairs with its run)."""
    if not accepted:
        return
    pool, task_id = args[0], args[1]
    for worker in pool.workers:
        if worker.task_id == task_id:
            proc = worker.proxy_proc or worker.proc
            span["attrs"] = {"worker": proc.pid, "size": pool.size}


def _job_request(args):
    return args[1]["id"]


def _bundle_request(args):
    return os.path.basename(args[0])


_TASKS = ("ObjectiveTask", "GroupObjectiveTask", "BypassTask", "CallableTask")
_QUEUE = ("submit", "lease", "heartbeat", "complete", "fail", "job", "jobs",
          "counts", "pending", "snapshot", "close")

SPECS = (
    [
        Spec("frontend.load", "repro.frontend", "load_design"),
        Spec("frontend.load", "repro.corpus.bundle", "load_bundle"),
        Spec("netlist.topo", "repro.netlist.traversal", "topological_cells",
             "leaf"),
        Spec("properties.monitor", "repro.properties.monitors",
             "build_corruption_monitor"),
        Spec("properties.monitor", "repro.properties.monitors",
             "build_tracking_monitor"),
        Spec("bmc.check", "repro.bmc.engine", "BmcEngine.check"),
        Spec("bmc.check", "repro.bmc.session", "SolverSession.check"),
        Spec("bmc.check", "repro.bmc.session", "SessionObjective.check"),
        Spec("bmc.unroll", "repro.bmc.unroll", "Unroller.extend_to"),
        Spec("bmc.unroll", "repro.bmc.unroll", "Unroller.add_targets"),
        Spec("bmc.canonical", "repro.bmc.canonical", "canonicalize_model"),
        Spec("bmc.replay", "repro.bmc.witness", "confirms_violation"),
        Spec("bmc.replay", "repro.bmc.witness", "replay"),
        Spec("sat.add_clause", "repro.sat.native", "NativeSolver.add_cnf",
             "leaf"),
        Spec("sat.add_clause", "repro.sat.native", "NativeSolver.add_clause",
             "leaf"),
        Spec("sat.add_clause", "repro.sat.solver", "Solver.add_clause",
             "leaf"),
        Spec("sat.solve", "repro.sat.native", "NativeSolver.solve", "leaf",
             _observe_solve),
        Spec("sat.solve", "repro.sat.solver", "Solver.solve", "leaf",
             _observe_solve),
        Spec("sim.propagate", "repro.sim.engine", "CombEvaluator.propagate",
             "leaf", _observe_propagate),
        Spec("lint.analyze", "repro.lint.engine", "lint_design"),
        Spec("ift.analyze", "repro.ift.analyze", "analyze_design"),
        Spec("diff.analyze", "repro.diff.screen", "analyze_design"),
        Spec("corpus.generate", "repro.corpus.mutate", "generate_corpus"),
        Spec("corpus.screen", "repro.corpus.runner", "screen_bundle",
             request=_bundle_request),
        Spec("sched.submit", "repro.sched.pool", "PersistentWorkerPool.submit",
             observe=_observe_submit),
        Spec("runner.run", "repro.runner.supervisor", "CheckRunner.run",
             observe=_observe_runner),
        Spec("core.audit", "repro.core.detector", "TrojanDetector.run"),
        Spec("core.audit", "repro.sched.scheduler", "AuditScheduler.run"),
        Spec("cache.lookup", "repro.cache.store", "OutcomeCache.lookup",
             observe=_observe_lookup),
        Spec("cache.record", "repro.cache.store", "OutcomeCache.record"),
        Spec("cache.record", "repro.cache.store", "OutcomeCache.record_result"),
        Spec("cache.claim", "repro.cache.claims", "ClaimRegistry.acquire"),
        # the job boundary inside the service: tags the job's spans with
        # its id as the request id
        Spec("serve.job", "repro.serve.server", "AuditService._run_job",
             request=_job_request),
        Spec("serve.http", "repro.serve.server", "ServiceClient.submit",
             "leaf"),
        Spec("serve.http", "repro.serve.server", "ServiceClient.job", "leaf"),
    ]
    + [Spec("sched.run", "repro.runner.tasks", task + ".__call__")
       for task in _TASKS]
    + [Spec("serve.queue", "repro.serve.queue", "JobQueue." + method, "leaf")
       for method in _QUEUE]
)

# metric name -> unit, in report order (BENCHMARK.json lists the same)
METRICS = {
    "frontend.load.calls": "count",
    "frontend.load.s": "s",
    "netlist.topo.calls": "count",
    "netlist.topo.s": "s",
    "properties.monitor.calls": "count",
    "properties.monitor.s": "s",
    "bmc.check.calls": "count",
    "bmc.check.s": "s",
    "bmc.unroll.s": "s",
    "bmc.canonical.s": "s",
    "bmc.replay.calls": "count",
    "bmc.replay.s": "s",
    "sat.add_clause.calls": "count",
    "sat.add_clause.s": "s",
    "sat.solve.calls": "count",
    "sat.solve.s": "s",
    "sat.conflicts": "count",
    "sat.sat_ratio": "ratio",
    "sim.propagate.calls": "count",
    "sim.propagate.s": "s",
    "sim.lane_cycles_per_s": "1/s",
    "lint.analyze.s": "s",
    "ift.analyze.s": "s",
    "diff.analyze.s": "s",
    "corpus.generate.s": "s",
    "corpus.screen.calls": "count",
    "corpus.screen.s": "s",
    "sched.tasks": "count",
    "sched.wait.s": "s",
    "sched.busy.s": "s",
    "sched.utilization": "ratio",
    "runner.attempts": "count",
    "runner.retries": "count",
    "runner.failed": "count",
    "core.audit.calls": "count",
    "core.audit.s": "s",
    "cache.lookup.calls": "count",
    "cache.lookup.s": "s",
    "cache.hit_ratio": "ratio",
    "cache.record.s": "s",
    "cache.claim.calls": "count",
    "cache.claim.s": "s",
    "serve.queue.calls": "count",
    "serve.queue.s": "s",
    "serve.http.s": "s",
    "serve.wait.s": "s",
    "serve.job_p50_s": "s",
    "serve.job_p90_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "ratio",
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def sched_pairs(spans):
    """``(submit, run)`` span pairs, one per task a pool worker ran.

    The parent's ``sched.submit`` spans name the worker process that
    took each task; that worker runs its tasks one at a time, in
    submission order, as outermost ``sched.run`` spans. Each run is
    marked as caused by the span that submitted it, so the scheduler's
    self time excludes the time its workers were busy.
    """
    submits, runs = {}, {}
    for span in spans:
        if span["name"] == "sched.submit" and span["attrs"]:
            submits.setdefault(span["attrs"]["worker"], []).append(span)
        elif span["name"] == "sched.run" and span["parent"] is None:
            runs.setdefault(span["pid"], []).append(span)
    pairs = []
    for pid, sent in submits.items():
        sent.sort(key=lambda s: s["start"])
        done = sorted(runs.get(pid, ()), key=lambda s: s["start"])
        for submit, run in zip(sent, done):
            if submit["parent"] is not None:
                run["cause"] = (submit["pid"], submit["parent"])
            pairs.append((submit, run))
    return pairs


def layer_metrics(spans, counters, window, traced_wall, untraced_wall,
                  job_latencies, traced_latencies):
    """Every :data:`METRICS` value from a merged traced run.

    ``window`` is the traced pass's ``(start, end)`` and ``traced_wall``
    its measured time, compared with the plain pass's ``untraced_wall``
    for the tracing overhead. ``job_latencies`` are the plain pass's
    client-side job times, so the service's latency percentiles come
    from a run without wrappers; ``traced_latencies`` are the traced
    pass's, for the service wait.
    """
    pairs = sched_pairs(spans)
    selfs = self_times(spans)
    calls, secs, total = {}, {}, {}
    for span in spans:
        name = span["name"]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + selfs[(span["pid"], span["id"])]
        total[name] = total.get(name, 0.0) + span["end"] - span["start"]

    def n_calls(name):
        return calls.get(name, 0) + counters.get(name + ".calls", 0)

    def self_s(name):
        return secs.get(name, 0.0) + counters.get(name + ".s", 0.0)

    waits = [max(0.0, run["start"] - submit["start"]) for submit, run in pairs]
    busy = sum(run["end"] - run["start"] for _submit, run in pairs)
    pool_size = max((submit["attrs"]["size"] for submit, _run in pairs),
                    default=0)
    # the pool is in use from its first hand-off to its last result
    pool_wall = (
        max(run["end"] for _s, run in pairs)
        - min(submit["start"] for submit, _r in pairs)
        if pairs else 0.0
    )
    lookups = n_calls("cache.lookup")
    solves = n_calls("sat.solve")
    propagate_s = self_s("sim.propagate")
    layer_intervals = [
        (max(s["start"], window[0]), min(s["end"], window[1]))
        for s in spans if s["end"] > window[0] and s["start"] < window[1]
    ]
    values = {
        "frontend.load.calls": n_calls("frontend.load"),
        "frontend.load.s": self_s("frontend.load"),
        "netlist.topo.calls": n_calls("netlist.topo"),
        "netlist.topo.s": self_s("netlist.topo"),
        "properties.monitor.calls": n_calls("properties.monitor"),
        "properties.monitor.s": self_s("properties.monitor"),
        "bmc.check.calls": n_calls("bmc.check"),
        "bmc.check.s": self_s("bmc.check"),
        "bmc.unroll.s": self_s("bmc.unroll"),
        "bmc.canonical.s": self_s("bmc.canonical"),
        "bmc.replay.calls": n_calls("bmc.replay"),
        "bmc.replay.s": self_s("bmc.replay"),
        "sat.add_clause.calls": n_calls("sat.add_clause"),
        "sat.add_clause.s": self_s("sat.add_clause"),
        "sat.solve.calls": solves,
        "sat.solve.s": self_s("sat.solve"),
        "sat.conflicts": counters.get("sat.conflicts", 0),
        "sat.sat_ratio": _ratio(counters.get("sat.sat_answers", 0), solves),
        "sim.propagate.calls": n_calls("sim.propagate"),
        "sim.propagate.s": propagate_s,
        "sim.lane_cycles_per_s": _ratio(counters.get("sim.lane_cycles", 0),
                                        propagate_s),
        "lint.analyze.s": self_s("lint.analyze"),
        "ift.analyze.s": self_s("ift.analyze"),
        "diff.analyze.s": self_s("diff.analyze"),
        "corpus.generate.s": self_s("corpus.generate"),
        "corpus.screen.calls": n_calls("corpus.screen"),
        "corpus.screen.s": self_s("corpus.screen"),
        "sched.tasks": len(pairs),
        "sched.wait.s": sum(waits, 0.0),
        "sched.busy.s": float(busy),
        "sched.utilization": _ratio(busy, pool_wall * pool_size),
        "runner.attempts": counters.get("runner.attempts", 0),
        "runner.retries": counters.get("runner.retries", 0),
        "runner.failed": counters.get("runner.failed", 0),
        "core.audit.calls": n_calls("core.audit"),
        "core.audit.s": self_s("core.audit"),
        "cache.lookup.calls": lookups,
        "cache.lookup.s": self_s("cache.lookup"),
        "cache.hit_ratio": _ratio(counters.get("cache.hits", 0), lookups),
        "cache.record.s": self_s("cache.record"),
        "cache.claim.calls": n_calls("cache.claim"),
        "cache.claim.s": self_s("cache.claim"),
        "serve.queue.calls": n_calls("serve.queue"),
        "serve.queue.s": self_s("serve.queue"),
        "serve.http.s": self_s("serve.http"),
        "serve.wait.s": (
            max(0.0, sum(traced_latencies) - total.get("core.audit", 0.0))
            if traced_latencies else 0.0
        ),
        "serve.job_p50_s": (percentile(job_latencies, 50)
                            if job_latencies else 0.0),
        "serve.job_p90_s": (percentile(job_latencies, 90)
                            if job_latencies else 0.0),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.layer_share": _ratio(union_length(layer_intervals),
                                    window[1] - window[0]),
    }
    return values
