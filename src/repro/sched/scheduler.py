"""Algorithm 1's one orchestrator: a dependency-aware check DAG.

:class:`AuditScheduler` runs the paper's per-register check sequence —
Eq. (3) pseudo-critical tracking, Eq. (2) corruption and the promoted
registers' shadow corruption, Eq. (4) bypass, stopping at the first
Trojan — for one or more designs. It has two executors:

* **inline** (``jobs=None``): the highest-priority ready check runs
  synchronously, in this process, through its request's own
  :class:`~repro.runner.supervisor.CheckRunner`, which handles the
  outcome cache, retries, fault injection and spans.
  Checks run one at a time in Algorithm 1's order, so inline does
  exactly the work the paper's loop does and never speculates. BMC
  checks of one register share a live
  :class:`~repro.bmc.session.SolverSession`.
* **pool** (``jobs=N``): checks run on a
  :class:`~repro.sched.pool.PersistentWorkerPool` of ``N`` workers,
  concurrently across registers and designs. This is the one place a
  check is process-isolated: the runner's hard timeout and memory cap
  hold here and only here (``jobs=1`` isolates without parallelism).

Both executors produce the same report. Three ideas make that possible:

**Dynamic task DAG.** Every check is a node. Within a register,
``tracking(after)`` nodes are ready immediately; each ``tracking(before)``
node is gated on its ``after`` sibling finishing *without* a proof
(``before`` is never checked once ``after`` promoted the candidate). A
candidate promoted to pseudo-critical enqueues its own shadow-corruption
audit — new nodes appear as verdicts arrive. Corruption and bypass
nodes are ready immediately; on the pool they run *speculatively*,
since a detection may make them unnecessary.

**Priority.** Ready nodes pop in ``(screen score, design, register,
kind, sequence)`` order, where kind ranks tracking < corruption <
shadow < bypass. One-at-a-time execution in that order *is* Algorithm
1's order, and the cancel rules remove everything Algorithm 1 skips: a
detected corruption cancels the register's shadows and bypass, a
detected shadow cancels later shadows and the bypass, and a register
committed as a Trojan discards every register after it.

**Ordered assembly.** A register's finding is assembled only when
every check Algorithm 1 runs for it has completed, consuming outcomes in
Algorithm 1's order and discarding speculative results it would not have
produced. Registers commit strictly in the (screen-prioritized) register
order, so ``report.findings``, each finding's ``check_outcomes`` order,
promotion lists and stop-on-first truncation do not depend on the
executor or the worker count. On the pool, early-cancel is the converse:
the moment an outcome proves a node's result can never be consumed, the
node's worker is killed and the node dropped.

Cross-pool coordination: pool nodes that participate in the cache claim
their fingerprint in a :class:`~repro.cache.ClaimRegistry` before
solving; losing the claim defers the node, which re-consults the cache
while it waits — two pools sharing a ``--cache-dir`` never solve the
same check twice. The inline executor takes no claims. Telemetry: each
node records its check/attempt spans (plus the engine spans) in a
private buffer; committed registers replay their kept nodes' buffers,
in order, into a per-design ``audit`` subtree that lands in the main
trace when the design finishes — one coherent tree on either executor.
"""

from __future__ import annotations

import heapq
import time

from repro.bmc.witness import confirms_violation
from repro.core.detector import (
    fused_register_scores,
    prioritize_registers,
)
from repro.core.report import DetectionReport, RegisterFinding
from repro.core.registers import pseudo_critical_candidates
from repro.errors import CheckpointWriteError, ReproError
from repro.obs.tracer import NULL_TRACER, BufferTracer, get_tracer, tracing
from repro.runner import AuditCheckpoint
from repro.runner.checkpoint import warn_checkpoint_lost
from repro.runner.execution import CheckExecution
from repro.runner.outcome import AttemptRecord, CheckOutcome
from repro.runner.policy import BUDGET, CRASHED, TIMEOUT
from repro.runner.supervisor import PROCESS, absorb_result
from repro.runner.tasks import GroupObjectiveTask
from repro.sched.pool import PersistentWorkerPool
from repro.screens import attach_evidence

#: Node kinds (one per Algorithm 1 check family).
TRACKING = "tracking"
GROUP = "group"
CORRUPTION = "corruption"
SHADOW = "shadow"
BYPASS = "bypass"

#: Algorithm 1's order of check families within one register.
KIND_RANK = {TRACKING: 0, GROUP: 0, CORRUPTION: 1, SHADOW: 2, BYPASS: 3}

#: Seconds between cache re-consults while another process holds a claim.
CLAIM_POLL = 0.05
#: Idle wait when nothing is running (deferred work pending).
IDLE_POLL = 0.2


def absorb_message(record, message, name, tracer):
    """Interpret a pool worker's protocol tuple onto an
    :class:`AttemptRecord` (see :mod:`repro.sched.pool`): ``("ok",
    result)``, ``("budget", message, bound)``, ``("timeout", message)``,
    ``("crashed", message)``.

    A trailing telemetry dict is stripped first: its events are grafted
    under the tracer's current (attempt) span and its counters folded
    into this process's registry. Supervisor-generated tuples (timeout,
    EOF-crash) carry none.
    """
    if isinstance(message[-1], dict) and "events" in message[-1]:
        telemetry = message[-1]
        tracer.absorb(telemetry.get("events"))
        tracer.metrics.merge_counters(telemetry.get("counters") or {})
        message = message[:-1]
    kind = message[0]
    if kind == "ok":
        absorb_result(record, message[1])
    elif kind == "budget":
        record.status = BUDGET
        record.error = message[1]
        record.bound_reached = message[2]
    elif kind == "timeout":
        record.status = TIMEOUT
        record.error = message[1]
        if tracer.enabled:
            # the worker was killed: its event buffer died with it
            tracer.point("runner.kill", check=name, reason="timeout")
            tracer.metrics.counter("runner.kills").inc()
    else:  # crashed
        record.status = CRASHED
        record.error = message[1]
        if tracer.enabled:
            tracer.point("runner.crash", check=name, error=message[1])
            tracer.metrics.counter("runner.crashes").inc()


class AuditRequest:
    """One design audit to schedule: a detector plus ``run()`` arguments."""

    def __init__(self, detector, registers=None, checkpoint=None):
        self.detector = detector
        self.registers = registers
        self.checkpoint = checkpoint


class _Node:
    """One schedulable check. States: waiting (gated), ready, deferred,
    running, done, canceled."""

    __slots__ = (
        "audit", "reg", "kind", "name", "seq", "priority", "factory",
        "task", "state", "execution", "retry", "candidate", "direction",
        "group_members", "claim_key", "claim_registry", "claim_held",
        "delay_served", "tracer", "check_span", "attempt_span",
        "attempt_task", "attempt_started", "outcome", "events",
    )

    def __init__(self, audit, reg, kind, name, seq, factory=None,
                 task=None):
        self.audit = audit
        self.reg = reg
        self.kind = kind
        self.name = name
        self.seq = seq
        self.priority = (-reg.static_score, audit.index, reg.index,
                         KIND_RANK[kind], seq)
        self.factory = factory
        self.task = task
        self.state = "waiting"
        self.execution = None
        self.retry = None
        self.candidate = None
        self.direction = None
        self.group_members = None
        self.claim_key = None
        self.claim_registry = None
        self.claim_held = False
        self.delay_served = False
        self.tracer = None
        self.check_span = None
        self.attempt_span = None
        self.attempt_task = None
        self.attempt_started = 0.0
        self.outcome = None
        self.events = None

    @property
    def done(self):
        return self.state == "done"

    @property
    def verdict(self):
        return self.outcome.verdict


class _RegisterState:
    """Scheduler-side view of one register's audit progress."""

    def __init__(self, audit, index, register, static_score):
        self.audit = audit
        self.index = index
        self.register = register
        # fused lint + IFT + diff priority score (fused_register_scores)
        self.static_score = static_score
        self.spec = None
        self.started = None  # stamped when the first node is dispatched
        self.session = None  # inline BMC SolverSession, built lazily
        self.error = None  # raised when the commit frontier reaches it
        self.candidates = []
        self.tracking = {}  # (candidate, direction) -> node
        self.grouped = False
        self.builds = []  # (candidate, direction, MonitorBuild), in order
        self.group_nodes = []
        self.group_pending = 0
        self.group_results = {}  # build index -> engine result
        self.group_failures = {}  # build index -> group node CheckOutcome
        self.decisions = {}  # candidate -> (promoted, direction|None)
        self.promoted = None  # [(candidate, direction)] once fully decided
        self.corruption = None
        self.shadows = {}  # candidate -> node
        self.shadow_stop = None  # candidate index of first detected shadow
        self.suppress_shadows = False  # corruption found + stop_on_first
        self.bypass = None
        self.committed = False
        self.discarded = False

    def nodes(self):
        for node in self.tracking.values():
            yield node
        for node in self.group_nodes:
            yield node
        if self.corruption is not None:
            yield self.corruption
        for node in self.shadows.values():
            yield node
        if self.bypass is not None:
            yield self.bypass


class _AuditState:
    """One design audit in flight."""

    def __init__(self, index, detector, names, report, store):
        self.index = index
        self.detector = detector
        self.names = names  # commit order (screen-prioritized)
        self.report = report
        self.store = store  # AuditCheckpoint or None
        self.regs = {}  # register -> _RegisterState (non-restored only)
        self.frontier = 0  # index into names of next commit
        self.started = time.perf_counter()
        self.done = False
        self.buf = None  # tracer the design's ``audit`` subtree goes to
        self.audit_span = None


class AuditScheduler:
    """Runs one or more audits inline (``jobs=None``) or on a persistent
    pool of ``jobs`` workers.

    Inline, every check runs through its request's own runner. On the
    pool, pool-wide settings (memory cap, fault injector, profile dir)
    come from the **first** request's runner; per-node settings (retry
    policy, hard timeouts, cache directory) honour each request's own
    runner and detector.
    """

    def __init__(self, requests, jobs=None):
        if not requests:
            raise ReproError("no audits to schedule")
        if jobs is not None and jobs < 1:
            raise ReproError(
                "jobs must be None (inline) or >= 1, got {}".format(jobs)
            )
        self.requests = list(requests)
        self.jobs = jobs
        self.audits = []
        self.pool = None
        self.tracer = get_tracer()
        self._seq = 0
        self._ready = []  # heap of (priority, node)
        self._deferred = []  # heap of (not_before, seq, node, wake_kind)
        self._running = {}  # seq -> node
        self._claims = {}  # id(backend) -> CacheBackend (claims released at end)
        self.stats = {"checks": 0, "cache_completed": 0, "discarded": 0,
                      "canceled": 0}

    # ------------------------------------------------------------------ API

    def run(self):
        """Run every audit to completion; returns reports in request
        order. Reports do not depend on the executor or worker count."""
        self.tracer = get_tracer()
        for index, request in enumerate(self.requests):
            self.audits.append(self._setup_audit(index, request))
        try:
            for audit in self.audits:
                self._advance(audit)
            if self._incomplete() and self.jobs is not None:
                first = self.requests[0].detector.runner
                self.pool = PersistentWorkerPool(
                    self.jobs,
                    memory_bytes=first.limits.memory_bytes,
                    injector=first.fault_injector,
                    collect_events=self.tracer.enabled,
                    profile_dir=first.profile_dir,
                )
                self.pool.start()
            self._loop()
        finally:
            if self.pool is not None:
                self.pool.shutdown()
            for registry in self._claims.values():
                registry.release_all()
            for audit in self.audits:
                if not audit.done and audit.buf is self.tracer:
                    # an audit that raised still closes its live span
                    self.tracer.end(audit.audit_span, error=True)
        return [audit.report for audit in self.audits]

    # ------------------------------------------------------------ main loop

    def _incomplete(self):
        return any(not audit.done for audit in self.audits)

    def _loop(self):
        while self._incomplete():
            now = time.perf_counter()
            self._wake_deferred(now)
            self._dispatch()
            if not self._incomplete():
                return
            if not (self._running or self._ready or self._deferred):
                stuck = [
                    "{}[{}]".format(a.report.design, a.names[a.frontier])
                    for a in self.audits
                    if not a.done and a.frontier < len(a.names)
                ]
                raise ReproError(
                    "scheduler stalled with no runnable work; blocked on "
                    "{}".format(", ".join(stuck) or "nothing")
                )
            timeout = IDLE_POLL
            if self._deferred:
                timeout = min(
                    timeout,
                    max(0.0, self._deferred[0][0] - time.perf_counter()),
                )
            if self._running:
                for event in self.pool.wait(timeout=timeout):
                    self._on_event(event)
            else:
                time.sleep(max(timeout, 0.001))

    def _wake_deferred(self, now):
        while self._deferred and self._deferred[0][0] <= now:
            _due, _seq, node, wake = heapq.heappop(self._deferred)
            if node.state != "deferred":
                continue
            if wake == "claim" and node.execution.consult_cache(count=False):
                self._complete(node)
                continue
            if wake == "backoff":
                node.delay_served = True
            node.state = "ready"
            heapq.heappush(self._ready, (node.priority, node))

    def _defer(self, node, until, wake):
        node.state = "deferred"
        heapq.heappush(self._deferred, (until, node.seq, node, wake))

    def _dispatch(self):
        while self._ready and (self.pool is None or self.pool.idle_count):
            _prio, node = heapq.heappop(self._ready)
            if node.state != "ready":
                continue
            if node.reg.started is None:
                node.reg.started = time.perf_counter()
            if self.pool is None:
                self._run_inline(node)
                continue
            if node.execution is None and not self._init_execution(node):
                continue  # answered by the cache, or swallowed an error
            if node.claim_key is not None and not node.claim_held:
                if not node.claim_registry.claim(node.claim_key):
                    self._defer(node, time.perf_counter() + CLAIM_POLL,
                                "claim")
                    continue
                node.claim_held = True
                # the previous holder may have stored a verdict between
                # our miss and our claim: one more look before solving
                if node.execution.consult_cache(count=False):
                    self._complete(node)
                    continue
            task, delay = node.execution.next_attempt()
            if delay > 0 and not node.delay_served:
                self._defer(node, time.perf_counter() + delay, "backoff")
                continue
            node.delay_served = False
            self._submit(node, task)

    def _run_inline(self, node):
        """Inline executor: run one check synchronously through the
        request's runner. It takes no cache claim; buffered spans replay
        under ``audit.register`` at commit, as pool nodes' do."""
        runner = node.audit.detector.runner
        if node.task is None:
            node.task = node.factory(self._session(node))
        if self.tracer.enabled:
            # counters and histograms land in the main registry directly
            node.tracer = BufferTracer(metrics=self.tracer.metrics)
            with tracing(node.tracer):
                node.outcome = runner.run(node.task, node.name)
            node.events = node.tracer.drain()
            node.tracer = None
        else:
            node.outcome = runner.run(node.task, node.name)
        node.task = None  # its monitor netlist is not needed any more
        node.state = "done"
        self.stats["checks"] += 1
        if node.outcome.cache == "hit":
            self.stats["cache_completed"] += 1
        self._node_finished(node)

    def _session(self, node):
        """The register's live :class:`SolverSession` for an inline BMC
        tracking/corruption/shadow check, else ``None``. Built when
        first needed; dropped at commit or discard, so at most one
        register holds a live solver at a time."""
        reg = node.reg
        det = reg.audit.detector
        if (
            self.pool is not None
            or node.kind not in (TRACKING, CORRUPTION, SHADOW)
            or not det.sessions
            or det.engine != "bmc"
        ):
            return None
        if reg.session is None:
            from repro.bmc.session import SolverSession

            reg.session = SolverSession(
                det.netlist.clone(), pinned_inputs=det.spec.pinned_inputs
            )
        return reg.session

    def _submit(self, node, task):
        runner = node.audit.detector.runner
        index = node.execution.attempt_index
        node.attempt_task = task
        node.attempt_started = time.perf_counter()
        if node.tracer is not None:
            node.attempt_span = node.tracer.begin(
                "runner.attempt", check=node.name, index=index,
                mode=PROCESS,
            )
        self.pool.submit(
            node.seq, task, name=node.name, attempt_index=index,
            hard_timeout=runner.limits.effective_timeout(
                getattr(task, "time_budget", None)
            ),
        )
        node.state = "running"
        self._running[node.seq] = node

    def _on_event(self, event):
        node = self._running.pop(event.task_id, None)
        if node is None:
            return  # canceled after the result was already in flight
        execution = node.execution
        task = node.attempt_task
        record = AttemptRecord(
            index=execution.attempt_index,
            status=CRASHED,
            mode=PROCESS,
            max_cycles=getattr(task, "max_cycles", 0) or 0,
            time_budget=getattr(task, "time_budget", None),
        )
        record._result = None
        tracer = node.tracer if node.tracer is not None else NULL_TRACER
        absorb_message(record, event.message, node.name, tracer)
        record.elapsed = time.perf_counter() - node.attempt_started
        if node.tracer is not None:
            node.tracer.end(
                node.attempt_span,
                status=record.status, bound=record.bound_reached,
            )
            node.attempt_span = None
        if execution.record_attempt(record):
            self._complete(node)
            return
        retry = node.retry
        if node.tracer is not None:
            node.tracer.point(
                "runner.retry",
                check=node.name,
                failed_status=record.status,
                next_attempt=execution.attempt_index,
                backoff=retry.delay_for(execution.attempt_index),
            )
            node.tracer.metrics.counter("runner.retries").inc()
        delay = retry.delay_for(execution.attempt_index)
        if delay > 0:
            self._defer(node, time.perf_counter() + delay, "backoff")
            node.delay_served = True
        else:
            node.state = "ready"
            heapq.heappush(self._ready, (node.priority, node))

    # --------------------------------------------------------- node plumbing

    def _add_node(self, reg, kind, name, factory=None, task=None,
                  ready=False):
        self._seq += 1
        node = _Node(reg.audit, reg, kind, name, self._seq,
                     factory=factory, task=task)
        node.retry = reg.audit.detector.runner.retry
        if ready:
            node.state = "ready"
            heapq.heappush(self._ready, (node.priority, node))
        return node

    def _init_execution(self, node):
        """Build the task and its state machine; consult the cache.

        Returns ``False`` when the node needs no worker (full cache hit)
        — the node is completed in place.
        """
        runner = node.audit.detector.runner
        if node.task is None:
            node.task = node.factory(None)
        cache = runner.cache_for(getattr(node.task, "cache_dir", None))
        node.execution = CheckExecution(
            node.task, node.name, node.retry, cache=cache
        )
        if self.tracer.enabled:
            node.tracer = BufferTracer()
            node.check_span = node.tracer.begin(
                "runner.check", check=node.name
            )
        done = node.execution.consult_cache()
        if node.tracer is not None and (
            node.execution.outcome.cache is not None
        ):
            node.tracer.point(
                "cache." + node.execution.outcome.cache, check=node.name
            )
        if cache is not None and hasattr(node.task, "cache_key") and (
            not done
        ):
            # the backend carries both the store and the claim registry;
            # remember it so shutdown can release whatever is still held
            self._claims[id(cache)] = cache
            node.claim_registry = cache
            node.claim_key = node.task.cache_key()
        if done:
            self.stats["cache_completed"] += 1
            self._complete(node)
            return False
        return True

    def _complete(self, node):
        outcome = node.execution.finish()
        node.outcome = outcome
        node.state = "done"
        self.stats["checks"] += 1
        if node.claim_held:
            # the worker stored its verdict before sending the result,
            # so releasing here means waiters find a readable entry
            node.claim_registry.release(node.claim_key)
            node.claim_held = False
        if node.tracer is not None:
            node.tracer.end(
                node.check_span,
                status=outcome.status,
                attempts=len(outcome.attempts),
                cache=outcome.cache,
                bound=outcome.bound_reached,
            )
            node.events = node.tracer.drain()
            metrics = self.tracer.metrics
            metrics.merge_counters(
                node.tracer.metrics.snapshot()["counters"]
            )
            metrics.counter("runner.checks").inc()
            metrics.counter("runner.attempts").inc(len(outcome.attempts))
            metrics.histogram("runner.check_seconds").observe(
                outcome.elapsed
            )
            node.tracer = None
        self._node_finished(node)

    def _cancel_node(self, node):
        if node is None or node.state in ("done", "canceled"):
            return
        if node.state == "running":
            self.pool.cancel(node.seq)
            self._running.pop(node.seq, None)
        if node.claim_held:
            node.claim_registry.release(node.claim_key)
            node.claim_held = False
        node.state = "canceled"
        node.tracer = None
        self.stats["canceled"] += 1
        if self.tracer.enabled:
            self.tracer.metrics.counter("sched.canceled").inc()

    # ----------------------------------------------------------- DAG events

    def _node_finished(self, node):
        reg = node.reg
        if reg.discarded or node.audit.done:
            return
        det = node.audit.detector
        stop = det.stop_on_first
        if node.kind == TRACKING:
            self._tracking_done(node)
        elif node.kind == GROUP:
            self._group_done(node)
        elif node.kind == CORRUPTION:
            if stop and node.verdict.detected:
                # Algorithm 1 never reaches this register's shadows/bypass
                reg.suppress_shadows = True
                for shadow in reg.shadows.values():
                    self._cancel_node(shadow)
                self._cancel_node(reg.bypass)
        elif node.kind == SHADOW:
            if stop and node.verdict.detected:
                order = reg.candidates.index(node.candidate)
                if reg.shadow_stop is None or order < reg.shadow_stop:
                    reg.shadow_stop = order
                for candidate, shadow in reg.shadows.items():
                    if reg.candidates.index(candidate) > order:
                        self._cancel_node(shadow)
                self._cancel_node(reg.bypass)
        self._advance(node.audit)

    def _tracking_done(self, node):
        reg = node.reg
        candidate = node.candidate
        if node.direction == "after":
            if node.verdict.status == "proved":
                self._decide(reg, candidate, True, "after")
                # short-circuit: "before" is never checked
                before = reg.tracking.get((candidate, "before"))
                if before is not None:
                    before.state = "canceled"
            else:
                before = reg.tracking[(candidate, "before")]
                if before.state == "waiting":
                    before.state = "ready"
                    heapq.heappush(self._ready, (before.priority, before))
        else:
            if node.verdict.status == "proved":
                self._decide(reg, candidate, True, "before")
            else:
                self._decide(reg, candidate, False, None)

    def _decide(self, reg, candidate, promoted, direction):
        reg.decisions[candidate] = (promoted, direction)
        if promoted:
            self._spawn_shadow(reg, candidate, direction)
        if len(reg.decisions) == len(reg.candidates):
            reg.promoted = [
                (name, reg.decisions[name][1])
                for name in reg.candidates
                if reg.decisions[name][0]
            ]

    def _group_done(self, node):
        reg = node.reg
        result = node.outcome.result if node.outcome.ok else None
        if isinstance(result, list):
            for build_index, member in zip(node.group_members, result):
                reg.group_results[build_index] = member
        else:
            for build_index in node.group_members:
                reg.group_failures[build_index] = node.outcome
        reg.group_pending -= 1
        if reg.group_pending > 0:
            return
        # all groups answered: replay the promotion scan, where
        # "after" beats "before" because it comes first in build order
        found = []
        seen = set()
        for index, (candidate, direction, _build) in enumerate(reg.builds):
            member = reg.group_results.get(index)
            if member is not None and member.status == "proved" and (
                candidate not in seen
            ):
                seen.add(candidate)
                found.append((candidate, direction))
        reg.promoted = found
        for candidate, direction in found:
            self._spawn_shadow(reg, candidate, direction)

    def _spawn_shadow(self, reg, candidate, direction):
        """Dynamic DAG growth: a promoted register enqueues its own
        shadow-corruption audit (Eq. 2, non-functional, shifted window)."""
        det = reg.audit.detector
        if reg.suppress_shadows or candidate in reg.shadows:
            return
        if reg.shadow_stop is not None and (
            reg.candidates.index(candidate) > reg.shadow_stop
        ):
            return  # an earlier shadow already stopped the scan
        shadow_spec = det.shadow_spec(reg.spec, candidate, direction)
        way_delay = 2 if direction == "after" else 0
        node = self._add_node(
            reg, SHADOW, "corruption({})".format(candidate),
            factory=lambda session, det=det, spec=shadow_spec, wd=way_delay: (
                det.corruption_task(
                    spec, functional=False, way_delay=wd, session=session
                )[0]
            ),
            ready=True,
        )
        node.candidate = candidate
        node.direction = direction
        reg.shadows[candidate] = node

    # -------------------------------------------------------- audit assembly

    def _setup_audit(self, index, request):
        det = request.detector
        report = DetectionReport(
            design=det.netlist.name,
            engine=det.engine,
            max_cycles=det.max_cycles,
            trojan_info=det.spec.trojan,
        )
        names = request.registers or list(det.spec.critical)
        names = prioritize_registers(names, det.screen_reports)
        store = None
        if request.checkpoint is not None:
            store = (
                request.checkpoint
                if isinstance(request.checkpoint, AuditCheckpoint)
                else AuditCheckpoint(request.checkpoint)
            )
            restored = store.begin(
                det.netlist.name, det.engine, det.max_cycles
            )
            for register in names:
                if register in restored:
                    report.findings[register] = restored[register]
        audit = _AuditState(index, det, names, report, store)
        if self.tracer.enabled:
            # one design writes its subtree straight to the trace; several
            # buffer theirs, so each lands in one piece when it finishes
            audit.buf = (
                self.tracer if len(self.requests) == 1 else BufferTracer()
            )
            audit.audit_span = audit.buf.begin(
                "audit",
                design=det.netlist.name,
                engine=det.engine,
                max_cycles=det.max_cycles,
            )
        scores = fused_register_scores(det.screen_reports)
        for reg_index, register in enumerate(names):
            if register in report.findings:
                continue  # restored from the checkpoint
            reg = _RegisterState(
                audit, reg_index, register, scores.get(register, 0)
            )
            audit.regs[register] = reg
            try:
                self._init_register(reg)
            except Exception as exc:  # noqa: BLE001 - raise in order
                # the audit fails only when the commit frontier *reaches*
                # the broken register; stash the error until then
                reg.error = exc
        return audit

    def _init_register(self, reg):
        det = reg.audit.detector
        reg.spec = det.spec.spec_for(reg.register)
        # factories take the register's inline session (see _session);
        # pool tasks get None, since a live solver cannot cross a
        # process boundary
        reg.corruption = self._add_node(
            reg, CORRUPTION, "corruption({})".format(reg.register),
            factory=lambda session, det=det, spec=reg.spec: (
                det.corruption_task(spec, session=session)[0]
            ),
            ready=True,
        )
        if det.check_pseudo_critical:
            reg.candidates = list(pseudo_critical_candidates(
                det.netlist, det.spec, reg.register
            ))
            if det.share_cones and det.engine == "bmc" and reg.candidates:
                self._init_grouped_tracking(reg)
            else:
                for candidate in reg.candidates:
                    for direction in ("after", "before"):
                        node = self._add_node(
                            reg, TRACKING,
                            "tracking({}->{},{})".format(
                                reg.register, candidate, direction
                            ),
                            factory=lambda session, det=det, spec=reg.spec,
                            c=candidate, d=direction: (
                                det.tracking_task(
                                    spec, c, d, session=session
                                )[0]
                            ),
                            ready=(direction == "after"),
                        )
                        node.candidate = candidate
                        node.direction = direction
                        reg.tracking[(candidate, direction)] = node
            if not reg.candidates:
                reg.promoted = []
        else:
            reg.promoted = []
        if det.check_bypass:
            reg.bypass = self._add_node(
                reg, BYPASS, "bypass({})".format(reg.register),
                factory=lambda _session, det=det, spec=reg.spec: (
                    det.bypass_task(spec)[0]
                ),
                ready=True,
            )

    def _init_grouped_tracking(self, reg):
        from repro.bmc.group import group_objectives_by_cone

        det = reg.audit.detector
        reg.grouped = True
        base, builds = det.tracking_group_builds(reg.spec, reg.candidates)
        reg.builds = builds
        nets = [build.objective_net for _, _, build in builds]
        names = [build.property_name for _, _, build in builds]
        for group in group_objectives_by_cone(base, nets):
            task = GroupObjectiveTask(
                netlist=base,
                objective_nets=tuple(nets[i] for i in group),
                max_cycles=det.pseudo_critical_cycles,
                property_names=tuple(names[i] for i in group),
                pinned_inputs=det.spec.pinned_inputs,
                time_budget=det.time_budget,
            )
            node = self._add_node(
                reg, GROUP, task.property_name, task=task, ready=True
            )
            node.group_members = list(group)
            reg.group_nodes.append(node)
        reg.group_pending = len(reg.group_nodes)

    def _advance(self, audit):
        """Commit loop: commit frontier registers whose Algorithm 1
        check set is fully known, in register order."""
        if audit.done:
            return
        det = audit.detector
        report = audit.report
        while audit.frontier < len(audit.names):
            name = audit.names[audit.frontier]
            if name in report.findings:
                audit.frontier += 1
                continue  # restored from the checkpoint
            if det.stop_on_first and report.trojan_found:
                self._discard_rest(audit, audit.frontier)
                break
            reg = audit.regs[name]
            if reg.error is not None:
                raise reg.error
            assembled = self._try_assemble(reg)
            if assembled is None:
                return  # frontier register still has checks in flight
            finding, kept = assembled
            self._commit(audit, reg, finding, kept)
            audit.frontier += 1
            if det.stop_on_first and finding.trojan_found:
                self._discard_rest(audit, audit.frontier)
                break
        self._finalize(audit)

    def _try_assemble(self, reg):
        """Replay Algorithm 1's per-register flow against completed nodes.

        Returns ``(finding, kept_nodes)`` when every check Algorithm 1
        runs for the register has completed, else ``None``.
        ``kept_nodes`` are the consumed nodes in Algorithm 1 order —
        speculative results it would not have produced are *not*
        consumed.
        """
        det = reg.audit.detector
        stop = det.stop_on_first
        kept = []
        outcomes = []  # (check name, CheckOutcome), in check order
        promoted = []
        if det.check_pseudo_critical and reg.candidates:
            if reg.promoted is None:
                return None
            promoted = reg.promoted
            if reg.grouped:
                kept.extend(reg.group_nodes)
                for index, (candidate, direction, _build) in enumerate(
                    reg.builds
                ):
                    name = "tracking({}->{},{})".format(
                        reg.register, candidate, direction
                    )
                    member = reg.group_results.get(index)
                    if member is not None:
                        outcomes.append(
                            (name, grouped_check_outcome(name, member))
                        )
                    else:
                        outcomes.append((name, _group_failure_outcome(
                            name, reg.group_failures.get(index)
                        )))
            else:
                for candidate in reg.candidates:
                    after = reg.tracking[(candidate, "after")]
                    if not after.done:
                        return None
                    kept.append(after)
                    outcomes.append((after.name, after.outcome))
                    if after.verdict.status != "proved":
                        before = reg.tracking[(candidate, "before")]
                        if not before.done:
                            return None
                        kept.append(before)
                        outcomes.append((before.name, before.outcome))
        corruption = reg.corruption
        if not corruption.done:
            return None
        kept.append(corruption)
        outcomes.append((corruption.name, corruption.outcome))
        corruption_verdict = corruption.verdict
        shadows_used = []
        if not (stop and corruption_verdict.detected):
            for candidate, _direction in promoted:
                shadow = reg.shadows.get(candidate)
                if shadow is None or not shadow.done:
                    return None
                shadows_used.append((candidate, shadow))
                kept.append(shadow)
                outcomes.append((shadow.name, shadow.outcome))
                if stop and shadow.verdict.detected:
                    break
        trojan_so_far = corruption_verdict.detected or any(
            shadow.verdict.detected for _, shadow in shadows_used
        )
        bypass = None
        if det.check_bypass and not (stop and trojan_so_far):
            bypass = reg.bypass
            if bypass is None or not bypass.done:
                return None
            kept.append(bypass)
            outcomes.append((bypass.name, bypass.outcome))

        finding = RegisterFinding(register=reg.register)
        attach_evidence(finding, det.screen_reports)
        finding.pseudo_criticals = list(promoted)
        for name, outcome in outcomes:
            finding.check_outcomes[name] = outcome
        finding.corruption = corruption_verdict
        if corruption_verdict.detected:
            monitor = det._monitor_for(reg.spec)
            finding.witness_confirmed = confirms_violation(
                monitor.netlist,
                corruption_verdict.witness,
                monitor.violation_net,
            )
        for candidate, shadow in shadows_used:
            finding.pseudo_corruptions[candidate] = shadow.verdict
        if bypass is not None:
            finding.bypass = bypass.verdict
        finding.elapsed = time.perf_counter() - reg.started
        return finding, kept

    def _commit(self, audit, reg, finding, kept):
        reg.session = None
        if audit.buf is not None:
            buf = BufferTracer()
            span = buf.begin("audit.register", register=reg.register)
            # the span covers the register's checks, which ran before
            # this replay: start it when the first of them was dispatched
            buf.events[-1]["t"] = reg.started
            for node in kept:
                if node.events:
                    buf.absorb(node.events)
            buf.end(span, trojan_found=finding.trojan_found)
            audit.buf.absorb(buf.drain())
        audit.report.findings[reg.register] = finding
        if audit.store is not None:
            try:
                audit.store.save_finding(reg.register, finding)
            except CheckpointWriteError as exc:
                audit.store = None  # keep auditing, uncheckpointed
                warn_checkpoint_lost(exc, self.tracer)
        reg.committed = True
        # anything this register solved speculatively that Algorithm 1
        # never consumed (canceled or still running) is now unwanted
        for node in reg.nodes():
            if not (node.done and node in kept) and node.state != (
                "canceled"
            ):
                if node.done:
                    self.stats["discarded"] += 1
                else:
                    self._cancel_node(node)

    def _discard_rest(self, audit, from_index):
        """A committed Trojan ends the design's audit: every
        not-yet-committed register after it is dropped, its workers
        killed."""
        for name in audit.names[from_index:]:
            reg = audit.regs.get(name)
            if reg is None or reg.committed or reg.discarded:
                continue
            reg.discarded = True
            reg.session = None
            for node in reg.nodes():
                if node.done:
                    self.stats["discarded"] += 1
                else:
                    self._cancel_node(node)

    def _finalize(self, audit):
        audit.report.elapsed = time.perf_counter() - audit.started
        audit.done = True
        if audit.buf is not None:
            audit.buf.end(
                audit.audit_span,
                trojan_found=audit.report.trojan_found,
                registers=len(audit.report.findings),
            )
            if audit.buf is not self.tracer:
                self.tracer.absorb(audit.buf.drain())
            audit.buf = None


def grouped_check_outcome(name, result):
    """The :class:`CheckOutcome` of one member of a shared-cone tracking
    group, synthesized from its engine result (the runner supervised
    the group as a whole, not the member)."""
    outcome = CheckOutcome(
        name=name,
        status="ok" if result.status in ("violated", "proved")
        else "exhausted",
        result=result,
        bound_reached=result.bound,
        elapsed=result.elapsed,
    )
    if outcome.status != "ok":
        outcome.error = "engine returned {!r} at bound {}".format(
            result.status, result.bound
        )
    return outcome


def _group_failure_outcome(name, group_outcome):
    """Member outcome for a group that ended without per-member
    verdicts: an unconcluded outcome, so the rest of the audit survives
    like after any other supervised check failure."""
    if group_outcome is None:
        return CheckOutcome(name=name, status=CRASHED,
                            error="group check produced no result")
    return CheckOutcome(
        name=name,
        status=group_outcome.status,
        bound_reached=0,
        elapsed=group_outcome.elapsed,
        error=group_outcome.error or "group check failed",
    )
