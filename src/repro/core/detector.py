"""Algorithm 1: detecting data corruption, pseudo-critical and bypass
registers.

The paper's complete flow (Section 4.3)::

    for each critical register R:
        for each register P in the design:
            if CheckPseudoCritical(D, R, P, V, T): promote P to critical
        if CheckForCorruption(D, R, V, T):  -> "R is corrupted", witness
        if CheckBypass(D, R, V, T):         -> "R is bypassed", witness
    "No data-corruption Trojan found for T clock cycles"

:class:`TrojanDetector` configures that flow, on either formal backend,
and defines its checks: the task builders below fix each check's
content and therefore its cache fingerprint. The flow itself is run by
:class:`~repro.sched.AuditScheduler`, the one orchestrator, inline or on
a worker pool. Every counterexample is replayed on the logic simulator
before it is reported (the ``witness_confirmed`` flag), so a detection
never rests on the solver alone.

Every property check is supervised (:mod:`repro.runner`): a solver
blow-up, an engine crash or a
:class:`~repro.errors.ResourceBudgetExceeded` becomes a structured
partial verdict on the finding (the paper's "largest bound reached"
degradation, Sections 3.2-3.3) instead of aborting the audit, and
multi-register audits can checkpoint completed findings to disk and
resume after an interruption.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace

from repro.errors import ReproError
from repro.obs.tracer import Tracer, tracing
from repro.properties.monitors import (
    build_corruption_monitor,
    build_tracking_monitor,
)
from repro.properties.valid_ways import RegisterSpec
from repro.runner import BypassTask, CheckRunner, ObjectiveTask


@dataclass(frozen=True)
class AuditConfig:
    """Everything that shapes one Algorithm 1 audit, in one object.

    :class:`TrojanDetector` grew a dozen keyword arguments one PR at a
    time; this dataclass is their consolidated home —
    ``TrojanDetector(netlist, spec, config=AuditConfig(...))``. The old
    per-argument spellings still work (they build or override an
    ``AuditConfig`` under the hood) but emit a ``DeprecationWarning``.

    Fields mirror the historical arguments exactly; see
    :class:`TrojanDetector` for their semantics. ``jobs`` picks the
    executor of :class:`~repro.sched.AuditScheduler`, which runs every
    audit: ``None`` (default) runs the checks one at a time, in
    Algorithm 1's order, through the detector's runner; any integer
    ``N >= 1`` runs them on a persistent pool of ``N`` worker processes,
    the one place a check is isolated: only there do the runner's hard
    timeout and memory cap hold (``jobs=1`` isolates every check at no
    parallelism). The report is the same either way.
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
    #: None: the inline executor; N >= 1: a pool of N worker processes.
    jobs: int | None = None
    #: Keep one solver+unrolling alive per critical register across its
    #: tracking, corruption and shadow checks (BMC and inline executor
    #: only; worker processes cannot share a live solver).
    #: Verdicts, witnesses and cache fingerprints are identical with or
    #: without sessions — this trades repeated cone re-encoding for
    #: incremental solver reuse, nothing more.
    sessions: bool = True

    def __post_init__(self):
        if self.jobs is not None and self.jobs < 1:
            raise ReproError(
                "jobs must be None (inline) or >= 1, got {}".format(
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
    report it reduces to exactly that ordering. The scheduler commits
    registers in this order on either executor, and its inline executor
    also audits them in it.
    """
    if not reports:
        return list(names)
    scores = fused_register_scores(reports)
    order = {name: index for index, name in enumerate(names)}
    return sorted(
        names, key=lambda name: (-scores.get(name, 0), order[name])
    )


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
        retries, fault injection and the hard limits pool workers
        enforce. The default makes a single attempt per check — the
        pre-supervision behaviour, minus the crashes.
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
        (:class:`~repro.bmc.group.MultiObjectiveBmc`). Each group is one
        check on either executor, so it gets the runner's retries and
        fault injection (and the pool's isolation at ``jobs=N``); it does
        not take part in the outcome cache. Grouping trades per-candidate
        verdict caching for not re-encoding the shared cone once per
        candidate.
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

    def run(self, registers=None, checkpoint=None):
        """Run Algorithm 1; returns a :class:`DetectionReport`.

        With ``checkpoint`` (a path or :class:`AuditCheckpoint`),
        completed register findings are persisted as soon as each
        register's audit finishes, and a pre-existing checkpoint for the
        same design/engine/bound restores its findings instead of
        re-running them.
        """
        # imported lazily: repro.sched imports this module for the
        # shared task builders
        from repro.sched.scheduler import AuditRequest, AuditScheduler

        scheduler = AuditScheduler(
            [AuditRequest(self, registers=registers, checkpoint=checkpoint)],
            jobs=self.jobs,
        )
        if self.trace is None:
            return scheduler.run()[0]
        owned = not hasattr(self.trace, "span")
        tracer = Tracer(self.trace) if owned else self.trace
        try:
            with tracing(tracer):
                return scheduler.run()[0]
        finally:
            if owned:
                tracer.close()

    # ------------------------------------------------------- task builders

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

    # Both executors build checks through these same code paths, so a
    # check's content — and therefore its cache fingerprint — cannot
    # depend on who ran it.

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
        monitor, and the builds in check order."""
        base = self.netlist.clone()
        builds = []  # (candidate, direction, MonitorBuild)
        for candidate in candidates:
            for direction in ("after", "before"):
                builds.append((candidate, direction, build_tracking_monitor(
                    self.netlist, spec, candidate, direction=direction,
                    into=base,
                )))
        return base, builds
