"""AuditScheduler: the inline executor (jobs=None) and the worker pool
(jobs=N) give the same report, and both match the frozen reports of the
serial loop the inline executor replaced."""

from pathlib import Path

import pytest

from repro.core import AuditConfig, TrojanDetector
from repro.properties import DesignSpec
from repro.runner import AuditCheckpoint, CheckRunner, FaultInjector
from repro.runner.checkpoint import finding_to_dict
from repro.sched import AuditRequest, AuditScheduler

from tests.conftest import build_secret_design, secret_spec

VARIANTS = {
    "trojan": dict(trojan=True),
    "clean": dict(trojan=False),
    "pseudo": dict(trojan=True, pseudo=True),
    "bypass": dict(trojan=True, bypass=True),
}

# "mode" differs between an inline check and a pool worker; everything
# else must match field-for-field
SERIAL_VS_PARALLEL_SCRUB = {"elapsed", "peak_memory", "saved_elapsed",
                            "ts", "mode"}


def scrub(obj, keys=SERIAL_VS_PARALLEL_SCRUB):
    if isinstance(obj, dict):
        return {k: scrub(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [scrub(v, keys) for v in obj]
    return obj


def design_for(variant):
    nl = build_secret_design(**VARIANTS[variant])
    spec = DesignSpec(name=nl.name, critical={"secret": secret_spec()})
    return nl, spec


def audit(variant, jobs, **config_kwargs):
    nl, spec = design_for(variant)
    config_kwargs.setdefault("max_cycles", 10)
    config_kwargs.setdefault("time_budget", 60)
    config = AuditConfig(jobs=jobs, **config_kwargs)
    runner = CheckRunner.configure(check_timeout=120)
    return TrojanDetector(nl, spec, config=config, runner=runner).run()


def comparable(report):
    return {
        "trojan_found": report.trojan_found,
        "findings": {
            register: scrub(finding_to_dict(finding))
            for register, finding in report.findings.items()
        },
    }


GOLDEN = Path(__file__).parent / "golden"

# the feature matrix the golden reports were recorded over; a fixture is
# named <variant>-<feature>.json
GOLDEN_FEATURES = {
    "pseudo-bypass": dict(check_pseudo_critical=True, check_bypass=True),
    "share-cones": dict(check_pseudo_critical=True, share_cones=True),
    "no-stop": dict(check_pseudo_critical=True, stop_on_first=False),
}
GOLDEN_CASES = [
    "{}-{}".format(variant, feature)
    for variant in ("trojan", "clean", "pseudo")
    for feature in GOLDEN_FEATURES
]


class TestGoldenReports:
    """``report.to_json(scrub=True)`` of the serial detector loop, frozen
    before that loop was replaced by the scheduler's inline executor."""

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_reproduces_fixture(self, case, jobs):
        variant, feature = case.split("-", 1)
        report = audit(variant, jobs=jobs, **GOLDEN_FEATURES[feature])
        text = report.to_json(scrub=True) + "\n"
        if jobs is not None:
            # an attempt's mode records where it ran; that is the one
            # field a pool worker legitimately changes
            text = text.replace('"mode": "process"', '"mode": "inline"')
        assert text == (GOLDEN / (case + ".json")).read_text()


class TestInlineExecutor:
    def test_inline_never_speculates(self):
        nl, spec = design_for("pseudo")  # Trojaned, with a tracking copy
        config = AuditConfig(
            max_cycles=10, time_budget=60, check_pseudo_critical=True,
            check_bypass=True, stop_on_first=True,
        )
        ran = []

        class Recording(FaultInjector):
            # consulted before every inline attempt: records what ran
            def fire(self, name, attempt_index, in_worker=False):
                ran.append(name)
                super().fire(name, attempt_index, in_worker=in_worker)

        # a bypass check that ran would crash
        runner = CheckRunner(fault_injector=Recording.crash_on("bypass(*)"))
        report = TrojanDetector(nl, spec, config=config, runner=runner).run()
        finding = report.findings["secret"]
        assert finding.corruption.detected
        assert finding.status != "degraded"
        assert finding.bypass is None
        # every check that ran was consumed, in the order it ran
        assert ran == list(finding.check_outcomes)
        assert not any(name.startswith("bypass(") for name in ran)

        def rank(name):
            if name.startswith("tracking("):
                return 0
            return 1 if name == "corruption(secret)" else 2  # shadows last

        assert [rank(name) for name in ran] == sorted(map(rank, ran))
        assert rank(ran[0]) == 0 and "corruption(secret)" in ran

    @pytest.mark.parametrize("jobs,sessions,expected", [
        (None, True, 1), (None, False, 0), (2, True, 0),
    ])
    def test_one_session_per_register_inline_only(
        self, monkeypatch, jobs, sessions, expected
    ):
        from repro.bmc import session as session_module

        built = []
        real = session_module.SolverSession

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "SolverSession", counting)
        report = audit("pseudo", jobs=jobs, check_pseudo_critical=True,
                       sessions=sessions)
        assert report.trojan_found
        assert len(built) == expected


class TestSerialParity:
    """The inline executor (jobs=None) against the pool (jobs=N)."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_full_feature_parity(self, variant):
        kwargs = dict(check_pseudo_critical=True, check_bypass=True)
        serial = audit(variant, jobs=None, **kwargs)
        parallel = audit(variant, jobs=3, **kwargs)
        assert comparable(serial) == comparable(parallel)

    def test_share_cones_parity(self):
        kwargs = dict(check_pseudo_critical=True, share_cones=True)
        serial = audit("pseudo", jobs=None, **kwargs)
        parallel = audit("pseudo", jobs=2, **kwargs)
        assert comparable(serial) == comparable(parallel)

    def test_no_stop_on_first_parity(self):
        kwargs = dict(check_pseudo_critical=True, stop_on_first=False)
        serial = audit("trojan", jobs=None, **kwargs)
        parallel = audit("trojan", jobs=2, **kwargs)
        assert comparable(serial) == comparable(parallel)

    def test_runner_workers_n_routes_through_scheduler(self, monkeypatch):
        # config.jobs=N is the one setting that sizes the pool: the
        # detector's audit must drive N workers, never run serially
        from repro.sched import scheduler as scheduler_module

        sizes = []
        real = scheduler_module.PersistentWorkerPool

        def spy(size, **kwargs):
            sizes.append(size)
            return real(size, **kwargs)

        monkeypatch.setattr(scheduler_module, "PersistentWorkerPool", spy)
        nl, spec = design_for("trojan")
        runner = CheckRunner.configure(check_timeout=120)
        detector = TrojanDetector(
            nl, spec,
            config=AuditConfig(max_cycles=10, time_budget=60, jobs=3),
            runner=runner,
        )
        report = detector.run()
        assert report.trojan_found
        assert sizes == [3]
        finding = report.findings["secret"]
        assert all(
            attempt.mode == "process"
            for outcome in finding.check_outcomes.values()
            for attempt in outcome.attempts
        )


class TestCheckpointMidPool:
    def test_checkpoint_round_trips_through_scheduler(self, tmp_path):
        path = tmp_path / "audit.ckpt.json"
        config = dict(max_cycles=10, time_budget=60,
                      check_pseudo_critical=True, stop_on_first=False)

        def run_with_checkpoint():
            nl, spec = design_for("pseudo")
            detector = TrojanDetector(
                nl, spec, config=AuditConfig(jobs=2, **config),
                runner=CheckRunner.configure(check_timeout=120),
            )
            return detector.run(checkpoint=AuditCheckpoint(path))

        first = run_with_checkpoint()
        second = run_with_checkpoint()
        assert comparable(first) == comparable(second)
        assert second.findings["secret"].restored

    def test_restored_trojan_skips_all_new_audits(self, tmp_path):
        # serial quirk preserved: a restored trojan_found finding plus
        # stop_on_first means zero new checks are scheduled
        path = tmp_path / "audit.ckpt.json"
        config = dict(max_cycles=10, time_budget=60)
        nl, spec = design_for("trojan")
        detector = TrojanDetector(
            nl, spec, config=AuditConfig(jobs=2, **config),
            runner=CheckRunner.configure(check_timeout=120),
        )
        first = detector.run(checkpoint=AuditCheckpoint(path))
        assert first.trojan_found

        from repro.obs.tracer import BufferTracer, tracing

        nl2, spec2 = design_for("trojan")
        runner = CheckRunner.configure(check_timeout=120)
        detector2 = TrojanDetector(
            nl2, spec2, config=AuditConfig(jobs=2, **config), runner=runner,
        )
        buffer = BufferTracer()
        with tracing(buffer):
            second = detector2.run(checkpoint=AuditCheckpoint(path))
        assert second.trojan_found
        assert second.findings["secret"].restored
        counters = buffer.metrics.snapshot()["counters"]
        assert counters.get("runner.checks", 0) == 0


class TestMultiDesign:
    def test_many_designs_one_pool(self):
        requests = []
        expected = []
        for variant in ("trojan", "clean", "pseudo", "bypass"):
            nl, spec = design_for(variant)
            detector = TrojanDetector(
                nl, spec,
                config=AuditConfig(max_cycles=10, time_budget=60,
                                   check_pseudo_critical=True,
                                   check_bypass=True),
                runner=CheckRunner.configure(check_timeout=120),
            )
            requests.append(AuditRequest(detector))
            expected.append(variant != "clean")
        reports = AuditScheduler(requests, jobs=3).run()
        assert [r.trojan_found for r in reports] == expected
        for variant, report in zip(("trojan", "clean", "pseudo", "bypass"),
                                   reports):
            serial = audit(variant, jobs=None, check_pseudo_critical=True,
                           check_bypass=True)
            assert comparable(serial) == comparable(report), variant

    def test_bench_audit_sweep_uses_one_scheduler(self):
        from repro.bench.harness import audit_sweep

        designs = []
        for variant in ("trojan", "clean"):
            nl, spec = design_for(variant)
            designs.append((variant, nl, spec))
        rows = audit_sweep(designs, jobs=2, max_cycles=10, time_budget=60)
        assert [row.label for row in rows] == ["trojan", "clean"]
        assert rows[0].trojan_found and not rows[1].trojan_found
        # the secret core carries no bundled TrojanInfo, so ground truth
        # says "clean": the trojan row must be flagged as a mismatch
        assert not rows[0].match
        assert rows[1].match
