"""The benchmark's workloads: set-up, one timed pass, and its checks.

Every workload is one load-generating process with at most two pool
workers or client threads. Its inputs come from the run's seed; a pass
is a fixed amount of work, so pass wall times compare across seeds.

``audit-ref``
    Algorithm 1 (BMC, serial, in-process runner, no cache) over all 15
    built-in designs at their reference bounds, in a seeded order. Every
    verdict is scored against :mod:`perfbench.truth`.
``corpus-audit``
    The seeded 40-mutant corpus (generated during set-up) through
    ``run_corpus`` with lint + IFT + diff and ``audit=True`` on two
    workers. Recall must be 1.0 with no clean false positive, and the
    report must be byte-identical to the previous run of the same seed
    on the same program source in this checkout (the first such run
    only records its digest).
``serve-mixed``
    ``repro serve`` (two worker threads) in its own process, driven by
    two closed-loop clients: each submits a job, polls until it ends,
    then submits the next. 104 jobs per pass, 13 of each of eight small
    built-ins at reference bounds, in a seeded order; ten of each
    design's thirteen name the pass's fresh cache directory, the rest
    get a full solve. A cached job waits while its design's first
    cached job fills the cache, so each pass solves the same checks.
    Every job must reach ``done`` with the expected verdict.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from perfbench import truth

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")

CORPUS_COUNT = 40
CORPUS_JOBS = 2

SERVE_DESIGNS = ("mc8051", "mc8051-t400", "mc8051-t700", "mc8051-t800",
                 "router", "router-redirect", "risc", "risc-fig1")
SERVE_PER_DESIGN = 13  # 8 x 13 = 104 jobs: p90 keeps ten samples beyond it
SERVE_CACHED_PER_DESIGN = 10
SERVE_CLIENTS = 2
SERVE_POLL_S = 0.01  # client poll, well under the ~0.1 s cheapest job
SERVE_JOB_TIMEOUT_S = 120.0
START_TIMEOUT_S = 120.0  # first start may build the native SAT library


@dataclass
class PassResult:
    started: float
    wall: float
    attempted: int
    ended: float = 0.0
    problems: list = field(default_factory=list)
    failed: int = 0
    latencies: list = field(default_factory=list)  # per-op seconds


class SetupError(RuntimeError):
    pass


def solver_backend():
    """Name of the solver class that serves this process's checks."""
    import repro.netlist  # noqa: F401 - repro.sat cannot be imported first
    from repro.sat.factory import default_solver

    return type(default_solver()).__name__


def source_digest(root):
    """sha256 over the paths and bytes of every file under ``src/repro``."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src", "repro")
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, base).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------- set-up


def _probe_cmd(*args, trace_out=None):
    cmd = [sys.executable, PROBE, *args]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return cmd


def run_setup_probe(ctx, workload, out_dir, trace_out=None):
    """Start a set-up probe; seconds from spawn until it reports ready."""
    cmd = _probe_cmd("setup", "--workload", workload, "--out", out_dir,
                     "--seed", str(ctx.seed), trace_out=trace_out)
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=ctx.env,
                          cwd=ctx.root, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SetupError("set-up probe did not exit")
    if proc.returncode != 0 or not line:
        raise SetupError("set-up probe failed (exit {})".format(proc.returncode))
    ctx.backends.add(json.loads(line)["backend"])
    return ready - start


class Server:
    """``repro serve`` in a child process, stopped by SIGTERM."""

    def __init__(self, ctx, queue_dir, trace_out=None):
        from repro.errors import ServiceError
        from repro.serve import ServiceClient

        self.log_path = queue_dir + ".log"
        start = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                _probe_cmd("serve", "--queue-dir", queue_dir,
                           trace_out=trace_out),
                stdout=log, stderr=subprocess.STDOUT, env=ctx.env,
                cwd=ctx.root,
            )
        try:
            self.url = self._await_url(start)
            ctx.backends.add(self.backend)
            client = ServiceClient(self.url, timeout=5.0)
            while True:
                try:
                    client.health()
                    break
                except (ServiceError, OSError):
                    self._check_alive(start)
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _check_alive(self, start):
        if self.proc.poll() is not None:
            raise SetupError("service exited with {}: {}".format(
                self.proc.returncode, self._log()))
        if time.perf_counter() - start > START_TIMEOUT_S:
            raise SetupError("service did not start")

    def _log(self):
        with open(self.log_path, "r", encoding="utf-8") as handle:
            return handle.read()[-2000:]

    def _await_url(self, start):
        while True:
            for line in self._log().splitlines():
                if line.startswith("{"):
                    self.backend = json.loads(line)["backend"]
                elif line.startswith("serving on "):
                    return line.split()[2]
            self._check_alive(start)
            time.sleep(0.005)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# ------------------------------------------------------------- workloads


class AuditRef:
    """Every built-in design once per pass, in an order drawn from the seed."""

    name = "audit-ref"
    service = False

    def __init__(self, seed):
        self.order = sorted(truth.REFERENCE)
        random.Random(seed).shuffle(self.order)

    def setup(self, ctx, tag, trace_out=None):
        return run_setup_probe(ctx, self.name, ctx.path(tag), trace_out), None

    def release(self, handle):
        pass

    def run_pass(self, ctx, handle, tag, recorder=None):
        from repro.frontend import load_design

        result = PassResult(started=time.perf_counter(), wall=0.0,
                            attempted=len(self.order))
        for design in self.order:
            # each design starts from a collected heap, as a fresh
            # command would; the collection is not timed
            gc.collect()
            if recorder is not None:
                recorder.set_request(design)
            began = time.perf_counter()
            try:
                netlist, spec = load_design(design)
                problems = self.check(design, netlist, spec)
            except Exception as exc:  # noqa: BLE001 - an error is a failed op
                problems = ["{}: {}: {}".format(design, type(exc).__name__, exc)]
            result.latencies.append(time.perf_counter() - began)
            result.problems += problems
            result.failed += bool(problems)
        result.wall = sum(result.latencies)
        result.ended = time.perf_counter()
        return result

    @staticmethod
    def check(design, netlist, spec):
        from repro.core import AuditConfig, TrojanDetector
        from repro.runner import CheckRunner

        config = AuditConfig(max_cycles=truth.bound(design), engine="bmc")
        report = TrojanDetector(netlist, spec, config=config,
                                runner=CheckRunner()).run()
        target = spec.trojan.target_register if spec.trojan else None
        return truth.check_audit(design, report, target)


class CorpusAudit:
    name = "corpus-audit"
    service = False

    def __init__(self, seed):
        self.seed = seed

    def setup(self, ctx, tag, trace_out=None):
        out = ctx.path(tag)
        return run_setup_probe(ctx, self.name, out, trace_out), out

    def release(self, handle):
        pass

    def run_pass(self, ctx, corpus_dir, tag, recorder=None):
        from repro.corpus import RunConfig, dumps_report, run_corpus
        from repro.corpus import score_results

        config = RunConfig(jobs=CORPUS_JOBS, modalities=("lint", "ift", "diff"),
                           audit=True)
        start = time.perf_counter()
        result = PassResult(started=start, wall=0.0, attempted=CORPUS_COUNT)
        try:
            rows = run_corpus(corpus_dir, config)
            payload = dumps_report(score_results(rows, config))
        except Exception as exc:  # noqa: BLE001 - an error fails the pass
            rows, payload = [], None
            result.problems.append("run_corpus: {}: {}".format(
                type(exc).__name__, exc))
        result.ended = time.perf_counter()
        result.wall = result.ended - start
        for row in rows:
            bad = []
            if row["trojaned"] and not row["detected"]:
                bad.append("missed")
            if not row["trojaned"] and row["detected"]:
                bad.append("false positive")
            if row["modalities"]["audit"]["status"] != "ok":
                bad.append("audit " + row["modalities"]["audit"]["status"])
            if bad:
                result.failed += 1
                result.problems.append("{}: {}".format(row["name"],
                                                       ", ".join(bad)))
        # mutants that never came back count as failed
        result.failed += max(0, CORPUS_COUNT - len(rows))
        if payload is not None and not self._same_as_before(ctx, payload):
            result.failed += 1
            result.problems.append("corpus report differs from an earlier "
                                   "run of seed {}".format(self.seed))
        return result

    def _same_as_before(self, ctx, payload):
        """Whether the report matches the last run of this seed on the
        same program source, byte for byte (the first such run records
        it, so a digest left by other code never fails a run)."""
        digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
        source = source_digest(ctx.root)
        print("perfbench: corpus report sha256 {} (seed {}, source {})".format(
            digest, self.seed, source), file=sys.stderr, flush=True)
        path = os.path.join(ctx.state_dir, "corpus-report-seed{}-{}.sha256"
                            .format(self.seed, source[:16]))
        if os.path.exists(path):
            with open(path, "r", encoding="ascii") as handle:
                return handle.read().strip() == digest
        with open(path, "w", encoding="ascii") as handle:
            handle.write(digest + "\n")
        return True


class Dispatch:
    """Hands out ``(design, cached)`` jobs in order to client threads.

    A cached job whose design's cache is still being filled waits (the
    next job goes ahead of it), so each design misses the cache exactly
    once per pass. The service takes no cache claims: without this, two
    concurrent first misses of one design would both solve, and the
    work in a pass would depend on thread timing.
    """

    def __init__(self, jobs):
        self._jobs = list(jobs)
        self._filling = set()
        self._filled = set()
        self._changed = threading.Condition()

    def take(self):
        """The next job that may run now; ``None`` once all are taken."""
        with self._changed:
            while self._jobs:
                for index, (design, cached) in enumerate(self._jobs):
                    if cached and design in self._filling:
                        continue
                    if cached and design not in self._filled:
                        self._filling.add(design)
                    return self._jobs.pop(index)
                self._changed.wait()
            return None

    def done(self, job):
        design, cached = job
        with self._changed:
            if cached and design in self._filling:
                self._filling.discard(design)
                self._filled.add(design)
                self._changed.notify_all()


class ServeMixed:
    name = "serve-mixed"
    service = True

    def __init__(self, seed):
        jobs = []
        for design in SERVE_DESIGNS:
            for index in range(SERVE_PER_DESIGN):
                jobs.append((design, index < SERVE_CACHED_PER_DESIGN))
        random.Random(seed).shuffle(jobs)
        self.jobs = jobs

    def setup(self, ctx, tag, trace_out=None):
        server = Server(ctx, ctx.path(tag), trace_out)
        return server.setup_s, server

    def release(self, server):
        if server.stop() != 0:
            raise SetupError("service exited with {}".format(
                server.proc.returncode))

    def run_pass(self, ctx, server, tag, recorder=None):
        from repro.errors import ServiceError
        from repro.serve import ServiceClient

        cache_dir = ctx.path(tag + "-cache")
        dispatch = Dispatch(self.jobs)
        lock = threading.Lock()
        result = PassResult(started=0.0, wall=0.0, attempted=len(self.jobs))

        def client():
            api = ServiceClient(server.url)
            while True:
                job = dispatch.take()
                if job is None:
                    return
                design, cached = job
                options = {"engine": "bmc", "max_cycles": truth.bound(design)}
                if cached:
                    options["cache_dir"] = cache_dir
                began = time.perf_counter()
                try:
                    job_id = api.submit(design, options)
                    final = api.wait(job_id, timeout=SERVE_JOB_TIMEOUT_S,
                                     poll=SERVE_POLL_S)
                    problem = self._check(design, final)
                except (ServiceError, OSError, ValueError) as exc:
                    problem = "{}: {}: {}".format(
                        design, type(exc).__name__, exc)
                finally:
                    dispatch.done(job)
                latency = time.perf_counter() - began
                with lock:
                    result.latencies.append(latency)
                    if problem:
                        result.failed += 1
                        result.problems.append(problem)

        threads = [threading.Thread(target=client)
                   for _ in range(SERVE_CLIENTS)]
        start = result.started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.ended = time.perf_counter()
        result.wall = result.ended - start
        # jobs a client never got to (it died) count as failed
        result.failed += len(self.jobs) - len(result.latencies)
        return result

    @staticmethod
    def _check(design, job):
        if job["state"] != "done":
            return "{} {}: state {}".format(job["id"], design, job["state"])
        outcome = job.get("result") or {}
        if outcome.get("degraded"):
            return "{} {}: degraded audit".format(job["id"], design)
        if bool(outcome.get("trojan_found")) != truth.expects_trojan_found(design):
            return "{} {}: trojan_found={}".format(
                job["id"], design, outcome.get("trojan_found"))
        return None


WORKLOADS = {w.name: w for w in (AuditRef, CorpusAudit, ServeMixed)}
