"""Algorithm 1: detecting data corruption, pseudo-critical and bypass
registers.

The paper's complete flow (Section 4.3)::

    for each critical register R:
        for each register P in the design:
            if CheckPseudoCritical(D, R, P, V, T): promote P to critical
        if CheckForCorruption(D, R, V, T):  -> "R is corrupted", witness
        if CheckBypass(D, R, V, T):         -> "R is bypassed", witness
    "No data-corruption Trojan found for T clock cycles"

:class:`TrojanDetector` implements exactly that, on either formal backend.
Every counterexample is replayed on the logic simulator before it is
reported (the ``witness_confirmed`` flag), so a detection never rests on
the solver alone.

Every property check is routed through a supervised
:class:`~repro.runner.supervisor.CheckRunner`: a solver blow-up, an
engine crash or a :class:`~repro.errors.ResourceBudgetExceeded` becomes
a structured partial verdict on the finding (the paper's "largest bound
reached" degradation, Sections 3.2-3.3) instead of aborting the audit,
and multi-register audits can checkpoint completed findings to disk and
resume after an interruption.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, fields, replace

from repro.bmc.witness import confirms_violation
from repro.core.registers import pseudo_critical_candidates
from repro.errors import CheckpointWriteError, ReproError
from repro.obs.tracer import Tracer, get_tracer, tracing
from repro.core.report import DetectionReport, RegisterFinding
from repro.properties.monitors import (
    build_corruption_monitor,
    build_tracking_monitor,
)
from repro.properties.valid_ways import RegisterSpec
from repro.runner import (
    AuditCheckpoint,
    BypassTask,
    CheckOutcome,
    CheckRunner,
    ObjectiveTask,
)
from repro.runner.checkpoint import (
    warn_checkpoint_lost as _warn_checkpoint_lost,
)
from repro.screens import attach_evidence


@dataclass(frozen=True)
class AuditConfig:
    """Everything that shapes one Algorithm 1 audit, in one object.

    :class:`TrojanDetector` grew a dozen keyword arguments one PR at a
    time; this dataclass is their consolidated home —
    ``TrojanDetector(netlist, spec, config=AuditConfig(...))``. The old
    per-argument spellings still work (they build or override an
    ``AuditConfig`` under the hood) but emit a ``DeprecationWarning``.

    Fields mirror the historical arguments exactly; see
    :class:`TrojanDetector` for their semantics. The one new field is
    ``jobs``: ``None`` (default) keeps the serial in-process audit loop,
    while any integer ``N >= 1`` routes the audit through
    :class:`~repro.sched.AuditScheduler` on a persistent pool of ``N``
    worker processes (``jobs=1`` is the serial *schedule* on pool
    infrastructure — useful for byte-comparing parallel runs against a
    one-worker baseline, since both execute checks in worker
    processes).
    """

    max_cycles: int = 40
    engine: str = "bmc"
    functional: bool = True
    check_pseudo_critical: bool = False
    check_bypass: bool = False
    time_budget: float | None = None
    pseudo_critical_cycles: int | None = None
    stop_on_first: bool = True
    screen_reports: tuple = ()
    cache_dir: str | None = None
    share_cones: bool = False
    trace: object = None
    jobs: int | None = None
    #: Keep one solver+unrolling alive per critical register across its
    #: corruption / tracking / bypass-adjacent checks (serial BMC only;
    #: worker pools cannot share a live solver across processes).
    #: Verdicts, witnesses and cache fingerprints are identical with or
    #: without sessions — this trades repeated cone re-encoding for
    #: incremental solver reuse, nothing more.
    sessions: bool = True

    def __post_init__(self):
        if self.jobs is not None and self.jobs < 1:
            raise ReproError(
                "jobs must be None (serial) or >= 1, got {}".format(
                    self.jobs
                )
            )


_CONFIG_FIELDS = tuple(f.name for f in fields(AuditConfig))


def fused_register_scores(reports):
    """Combined priority scores of several screen reports.

    Per-register scores from the screens simply add: each report
    already weighs its findings on the shared severity ladder
    (:data:`~repro.screens.SEVERITY_WEIGHT`), so a register
    implicated by several screens outranks one implicated by fewer.
    """
    scores = {}
    for report in reports:
        for name, score in report.register_scores().items():
            scores[name] = scores.get(name, 0) + score
    return scores


def prioritize_registers(names, reports=()):
    """Order ``names`` most-suspicious-first (stable ties).

    The fused generalization of ``ScreenReport.prioritize``: with one
    report it reduces to exactly that ordering. Used identically by the
    serial detector loop and the parallel scheduler so both audit
    registers in the same order.
    """
    if not reports:
        return list(names)
    scores = fused_register_scores(reports)
    order = {name: index for index, name in enumerate(names)}
    return sorted(
        names, key=lambda name: (-scores.get(name, 0), order[name])
    )


def grouped_check_outcome(name, result):
    """Synthesize the :class:`CheckOutcome` for one member of a
    shared-cone tracking group (grouped checks bypass the supervised
    runner, so their outcomes are reconstructed from the engine result).
    Used identically by the serial grouped path and the scheduler."""
    outcome = CheckOutcome(
        name=name,
        status=(
            "ok" if result.status in ("violated", "proved")
            else "exhausted"
        ),
        result=result,
        bound_reached=result.bound,
        elapsed=result.elapsed,
    )
    if outcome.status != "ok":
        outcome.error = "engine returned {!r} at bound {}".format(
            result.status, result.bound
        )
    return outcome


class TrojanDetector:
    """Runs Algorithm 1 over a design and its valid-way spec.

    Preferred construction::

        TrojanDetector(netlist, spec, config=AuditConfig(...), runner=...)

    The historical per-argument keywords (``max_cycles=``, ``engine=``,
    ...) still work but are deprecated; they override the matching
    :class:`AuditConfig` field and warn.

    Parameters
    ----------
    netlist, spec:
        The design under audit and its :class:`DesignSpec`.
    config:
        An :class:`AuditConfig`. Its fields carry the semantics
        documented below under their historical argument names; its
        ``jobs`` field selects parallel scheduling (see
        :mod:`repro.sched`).
    max_cycles:
        T — the bound the trustworthiness guarantee covers; the paper
        resets the design every T cycles (Section 3.2).
    engine:
        ``"bmc"``, ``"atpg"`` or ``"atpg-backward"``.
    functional:
        Check the documented update *values*, not just update
        authorization. This is what catches Trojans like RISC-T100 whose
        payload fires inside an authorized update slot (the PC increments
        by two instead of one).
    check_pseudo_critical / check_bypass:
        Enable the Section 4 attacks' defenses (Eq. 3 / Eq. 4).
    time_budget:
        Wall-clock budget per individual property check, in seconds
        (the engines' cooperative budget).
    runner:
        A :class:`~repro.runner.supervisor.CheckRunner` controlling
        isolation, hard limits and retries. The default runs checks
        in-process with a single attempt — the pre-supervision
        behaviour, minus the crashes.
    screen_reports:
        Reports of the screens that ran first (:mod:`repro.screens`:
        lint, IFT, golden-model diff). Their register scores add up to
        reorder Algorithm 1's outer loop, so flagged registers are
        audited first (the supervised runner's budget reaches the
        likeliest suspects before the clean-looking majority), and each
        register's findings attach to its :class:`RegisterFinding`
        under the screen's evidence field (``lint_evidence``,
        ``ift_evidence``, ``diff_evidence``). A register the IFT or diff
        screen flagged but every dynamic check passed is reported as
        ``leakage_suspect`` or ``differential_suspect`` (see
        :attr:`RegisterFinding.status`). The screens never decide a
        verdict.
    cache_dir:
        Directory of the content-addressed outcome cache
        (:mod:`repro.cache`). When set, every Eq. (2)/(3) objective
        check consults the cache before solving and writes its verdict
        back; re-audits of an unchanged design become cache hits, and
        deeper re-audits resume from the cached proved bound.
    share_cones:
        Batch the Eq. (3) tracking checks of each critical register into
        shared-cone groups (BMC only): the candidates' monitors are
        stacked on one clone and served by one unrolling per group
        (:class:`~repro.bmc.group.MultiObjectiveBmc`). Grouped checks
        run inline — they bypass the supervised runner's process
        isolation and the outcome cache, trading fault isolation for
        not re-encoding the shared cone once per candidate.
    trace:
        Structured-telemetry sink for the audit: a path (a JSONL
        :class:`~repro.obs.tracer.Tracer` is created there and closed
        when ``run()`` returns) or an existing tracer object. Installed
        as the process-global tracer for the duration of ``run()``, so
        every layer underneath — runner, cache, engines, SAT core —
        emits into one trace tree rooted at the ``audit`` span.
    """

    def __init__(self, netlist, spec, config=None, runner=None, **legacy):
        if config is not None and not isinstance(config, AuditConfig):
            # the historical third positional argument was max_cycles
            warnings.warn(
                "passing max_cycles positionally is deprecated; pass "
                "config=AuditConfig(max_cycles=...)",
                DeprecationWarning, stacklevel=2,
            )
            legacy.setdefault("max_cycles", config)
            config = None
        if legacy:
            unknown = sorted(set(legacy) - set(_CONFIG_FIELDS))
            if unknown:
                raise TypeError(
                    "TrojanDetector got unexpected keyword argument(s) "
                    "{}".format(", ".join(unknown))
                )
            warnings.warn(
                "TrojanDetector keyword argument(s) {} are deprecated; "
                "pass config=AuditConfig(...) instead".format(
                    ", ".join(sorted(legacy))
                ),
                DeprecationWarning, stacklevel=2,
            )
            config = (
                AuditConfig(**legacy) if config is None
                else replace(config, **legacy)
            )
        if config is None:
            config = AuditConfig()
        self.config = config
        self.netlist = netlist
        self.spec = spec
        self.max_cycles = config.max_cycles
        self.engine = config.engine
        self.functional = config.functional
        self.check_pseudo_critical = config.check_pseudo_critical
        self.check_bypass = config.check_bypass
        self.time_budget = config.time_budget
        self.pseudo_critical_cycles = (
            config.pseudo_critical_cycles
            if config.pseudo_critical_cycles is not None
            else max(4, config.max_cycles // 2)
        )
        self.stop_on_first = config.stop_on_first
        self.runner = runner if runner is not None else CheckRunner()
        self.screen_reports = tuple(config.screen_reports)
        self.cache_dir = config.cache_dir
        self.share_cones = config.share_cones
        self.trace = config.trace
        self.jobs = config.jobs
        self.sessions = config.sessions

    # ------------------------------------------------------------------ API

    @property
    def scheduler_jobs(self):
        """Worker-pool size for this audit, or ``None`` for the serial
        loop. ``config.jobs`` wins; otherwise a pool-backed runner
        (``configure(workers=N)``, ``N >= 2``) implies its own size."""
        if self.jobs is not None:
            return self.jobs
        if self.runner.jobs > 1:
            return self.runner.jobs
        return None

    def run(self, registers=None, checkpoint=None):
        """Run Algorithm 1; returns a :class:`DetectionReport`.

        With ``checkpoint`` (a path or :class:`AuditCheckpoint`),
        completed register findings are persisted as soon as each
        register's audit finishes, and a pre-existing checkpoint for the
        same design/engine/bound restores its findings instead of
        re-running them.
        """
        if self.trace is None:
            return self._run(registers, checkpoint, get_tracer())
        owned = not hasattr(self.trace, "span")
        tracer = Tracer(self.trace) if owned else self.trace
        try:
            with tracing(tracer):
                return self._run(registers, checkpoint, tracer)
        finally:
            if owned:
                tracer.close()

    def _run(self, registers, checkpoint, tracer):
        jobs = self.scheduler_jobs
        if jobs:
            # imported lazily: repro.sched imports this module for the
            # shared task builders
            from repro.sched.scheduler import AuditRequest, AuditScheduler

            scheduler = AuditScheduler(
                [AuditRequest(self, registers=registers,
                              checkpoint=checkpoint)],
                jobs=jobs,
            )
            return scheduler.run()[0]
        start = time.perf_counter()
        report = DetectionReport(
            design=self.netlist.name,
            engine=self.engine,
            max_cycles=self.max_cycles,
            trojan_info=self.spec.trojan,
        )
        audit_span = None
        if tracer.enabled:
            audit_span = tracer.begin(
                "audit",
                design=self.netlist.name,
                engine=self.engine,
                max_cycles=self.max_cycles,
            )
        try:
            names = registers or list(self.spec.critical)
            names = prioritize_registers(names, self.screen_reports)
            store = None
            if checkpoint is not None:
                store = (
                    checkpoint
                    if isinstance(checkpoint, AuditCheckpoint)
                    else AuditCheckpoint(checkpoint)
                )
                restored = store.begin(
                    self.netlist.name, self.engine, self.max_cycles
                )
                for register in names:
                    if register in restored:
                        report.findings[register] = restored[register]
            for register in names:
                if register in report.findings:
                    continue  # restored from the checkpoint
                if self.stop_on_first and report.trojan_found:
                    break
                with tracer.span(
                    "audit.register", register=register
                ) as reg_extra:
                    finding = self._audit_register(register)
                    reg_extra.update(trojan_found=finding.trojan_found)
                report.findings[register] = finding
                if store is not None:
                    try:
                        store.save_finding(register, finding)
                    except CheckpointWriteError as exc:
                        # a full disk must not kill a half-done audit:
                        # drop checkpointing, keep the verdicts coming
                        store = None
                        _warn_checkpoint_lost(exc, tracer)
                if self.stop_on_first and finding.trojan_found:
                    break
            report.elapsed = time.perf_counter() - start
            return report
        finally:
            if audit_span is not None:
                tracer.end(
                    audit_span,
                    trojan_found=report.trojan_found,
                    registers=len(report.findings),
                )

    # ------------------------------------------------------------ internals

    def _register_session(self):
        """A per-register :class:`SolverSession`, or ``None``.

        Sessions only pay off where a live solver can actually be
        reused: the serial in-process loop with the BMC engine and an
        inline runner. Everywhere else (worker pools, process-isolated
        runners, other engines) the hint would be dropped at the
        process boundary anyway, so no session is built.
        """
        if (
            not self.sessions
            or self.engine != "bmc"
            or self.scheduler_jobs is not None
            or getattr(self.runner, "isolation", "inline") != "inline"
        ):
            return None
        from repro.bmc.session import SolverSession

        return SolverSession(
            self.netlist.clone(), pinned_inputs=self.spec.pinned_inputs
        )

    def _audit_register(self, register):
        reg_start = time.perf_counter()
        spec = self.spec.spec_for(register)
        session = self._register_session()
        finding = RegisterFinding(register=register)
        attach_evidence(finding, self.screen_reports)

        if self.check_pseudo_critical:
            finding.pseudo_criticals = self._find_pseudo_criticals(
                spec, finding, session=session
            )

        finding.corruption = self._corruption_check(
            spec, finding=finding, session=session
        )
        if finding.corruption.detected:
            monitor = self._monitor_for(spec)
            finding.witness_confirmed = confirms_violation(
                monitor.netlist,
                finding.corruption.witness,
                monitor.violation_net,
            )

        # Corruption checks on promoted pseudo-critical registers: their
        # update authorization mirrors the critical register's, but the
        # documented *values* do not transfer (a tracking register may hold
        # the bitwise complement), so these run non-functionally — and the
        # valid-way window shifts by the copy's delay relative to the
        # critical register (way_delay 2 for "after" copies, 0 for
        # "before" ones).
        if not (self.stop_on_first and finding.corruption.detected):
            for name, direction in finding.pseudo_criticals:
                # the shadow register's cone overlaps the critical
                # register's heavily, so its checks ride the same session
                result = self._corruption_check(
                    self.shadow_spec(spec, name, direction),
                    functional=False,
                    way_delay=2 if direction == "after" else 0,
                    finding=finding,
                    session=session,
                )
                finding.pseudo_corruptions[name] = result
                if self.stop_on_first and result.detected:
                    break

        if self.check_bypass and not (
            self.stop_on_first and finding.trojan_found
        ):
            finding.bypass = self._bypass_check(spec, finding=finding)

        finding.elapsed = time.perf_counter() - reg_start
        return finding

    def _monitor_for(self, spec, functional=None, way_delay=1):
        if functional is None:
            functional = self.functional
        return build_corruption_monitor(
            self.netlist, spec, functional=functional, way_delay=way_delay
        )

    def shadow_spec(self, spec, name, direction):
        """The :class:`RegisterSpec` a promoted pseudo-critical register
        is audited under (mirrors the critical register's ways)."""
        return RegisterSpec(
            register=name,
            ways=spec.ways,
            description="pseudo-critical shadow of {} ({})".format(
                spec.register, direction
            ),
            observe_latency=spec.observe_latency,
        )

    def _supervised(self, task, name, finding=None):
        """Run one check under supervision, recording its outcome."""
        outcome = self.runner.run(task, name=name)
        if finding is not None:
            finding.check_outcomes[name] = outcome
        return outcome

    # Task builders: the serial loop and the parallel scheduler build
    # checks through the same code paths, so a check's content — and
    # therefore its cache fingerprint — cannot depend on who ran it.

    def corruption_task(self, spec, functional=None, way_delay=1,
                        session=None):
        """``(task, check name)`` for Eq. (2) on one register spec.

        The standalone monitor build always comes first and alone
        defines the task (and its cache fingerprint). A ``session``
        additionally stacks the *same* monitor onto the session's
        netlist clone and attaches the resulting objective as an
        execution hint — fingerprints ignore net names, so the two
        builds hash identically.
        """
        if functional is None:
            functional = self.functional
        monitor = self._monitor_for(spec, functional, way_delay)
        live = None
        if session is not None and self.engine == "bmc":
            stacked = build_corruption_monitor(
                self.netlist, spec, functional=functional,
                way_delay=way_delay, into=session.netlist,
            )
            live = session.objective(
                stacked.objective_net,
                violation_net=stacked.violation_net,
                property_name=stacked.property_name,
            )
        task = ObjectiveTask(
            engine=self.engine,
            netlist=monitor.netlist,
            objective_net=monitor.objective_net,
            max_cycles=self.max_cycles,
            property_name=monitor.property_name,
            pinned_inputs=self.spec.pinned_inputs,
            check_kwargs={"time_budget": self.time_budget},
            cache_dir=self.cache_dir,
            session=live,
        )
        return task, "corruption({})".format(spec.register)

    def tracking_task(self, spec, candidate, direction, session=None):
        """``(task, check name)`` for Eq. (3) on one candidate/direction."""
        monitor = build_tracking_monitor(
            self.netlist, spec, candidate, direction=direction
        )
        live = None
        if session is not None and self.engine == "bmc":
            stacked = build_tracking_monitor(
                self.netlist, spec, candidate, direction=direction,
                into=session.netlist,
            )
            live = session.objective(
                stacked.objective_net,
                violation_net=stacked.violation_net,
                property_name=stacked.property_name,
            )
        task = ObjectiveTask(
            engine=self.engine,
            netlist=monitor.netlist,
            objective_net=monitor.objective_net,
            max_cycles=self.pseudo_critical_cycles,
            property_name=monitor.property_name,
            pinned_inputs=self.spec.pinned_inputs,
            check_kwargs={"time_budget": self.time_budget},
            cache_dir=self.cache_dir,
            session=live,
        )
        name = "tracking({}->{},{})".format(
            spec.register, candidate, direction
        )
        return task, name

    def bypass_task(self, spec):
        """``(task, check name)`` for Eq. (4) CEGIS on one register."""
        task = BypassTask(
            netlist=self.netlist,
            spec=spec,
            max_cycles=self.max_cycles,
            time_budget=self.time_budget,
        )
        return task, "bypass({})".format(spec.register)

    def tracking_group_builds(self, spec, candidates):
        """``(base, builds)`` for the shared-cone Eq. (3) sweep: one
        clone of the design carrying every candidate/direction tracking
        monitor, and the builds in serial order."""
        base = self.netlist.clone()
        builds = []  # (candidate, direction, MonitorBuild)
        for candidate in candidates:
            for direction in ("after", "before"):
                builds.append((candidate, direction, build_tracking_monitor(
                    self.netlist, spec, candidate, direction=direction,
                    into=base,
                )))
        return base, builds

    def _corruption_check(self, spec, functional=None, way_delay=1,
                          finding=None, session=None):
        """Eq. (2) on one register spec; returns an engine-shaped result."""
        task, name = self.corruption_task(
            spec, functional, way_delay, session=session
        )
        return self._supervised(task, name, finding=finding).verdict

    def check_corruption(self, spec, functional=None, way_delay=1):
        """Eq. (2) on one register spec; returns the engine result."""
        return self._corruption_check(spec, functional, way_delay)

    def check_tracking(self, spec, candidate, direction, finding=None,
                       session=None):
        """Eq. (3) for one candidate/direction; returns the engine result."""
        task, name = self.tracking_task(
            spec, candidate, direction, session=session
        )
        return self._supervised(task, name, finding=finding).verdict

    def _find_pseudo_criticals(self, spec, finding=None, session=None):
        candidates = list(
            pseudo_critical_candidates(self.netlist, self.spec, spec.register)
        )
        if self.share_cones and self.engine == "bmc" and candidates:
            return self._find_pseudo_criticals_grouped(
                spec, candidates, finding=finding
            )
        found = []
        for candidate in candidates:
            for direction in ("after", "before"):
                result = self.check_tracking(
                    spec, candidate, direction, finding=finding,
                    session=session,
                )
                # "proved" = no valid sequence makes the candidate diverge
                # from the critical register: it tracks, hence is
                # pseudo-critical (for the checked bound).
                if result.status == "proved":
                    found.append((candidate, direction))
                    break
        return found

    def _find_pseudo_criticals_grouped(self, spec, candidates, finding=None):
        """Shared-cone variant of the Eq. (3) sweep (BMC only).

        All candidate/direction tracking monitors for this critical
        register are stacked on *one* clone of the design; objectives
        whose cones overlap are served by a single
        :class:`~repro.bmc.group.MultiObjectiveBmc` unrolling each. The
        verdict semantics match the sequential path exactly — ``proved``
        promotes, and ``"after"`` wins over ``"before"`` for the same
        candidate. ``time_budget`` covers each *group*, not each
        objective, and the grouped solves run inline (no process
        isolation, no outcome cache).
        """
        from repro.bmc.group import MultiObjectiveBmc, group_objectives_by_cone

        base, builds = self.tracking_group_builds(spec, candidates)
        nets = [b.objective_net for _, _, b in builds]
        names = [b.property_name for _, _, b in builds]
        results = [None] * len(builds)
        for group in group_objectives_by_cone(base, nets):
            multi = MultiObjectiveBmc(
                base,
                [nets[i] for i in group],
                property_names=[names[i] for i in group],
                pinned_inputs=self.spec.pinned_inputs,
            )
            group_results = multi.check_all(
                self.pseudo_critical_cycles, time_budget=self.time_budget
            )
            for i, result in zip(group, group_results):
                results[i] = result
        found = []
        promoted = set()
        for (candidate, direction, _build), result in zip(builds, results):
            name = "tracking({}->{},{})".format(
                spec.register, candidate, direction
            )
            if finding is not None:
                finding.check_outcomes[name] = grouped_check_outcome(
                    name, result
                )
            if result.status == "proved" and candidate not in promoted:
                promoted.add(candidate)
                found.append((candidate, direction))
        return found

    def _bypass_check(self, spec, finding=None):
        task, name = self.bypass_task(spec)
        return self._supervised(task, name, finding=finding).verdict

    def check_bypass_register(self, spec):
        """Eq. (4) via CEGIS; returns a BypassResult."""
        return self._bypass_check(spec)
