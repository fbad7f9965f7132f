"""Tests for the benchmark's own logic: ground truth, statistics, spans."""

from __future__ import annotations

import multiprocessing
import sys
import time
import types

import pytest

from perfbench import layers, spans, truth
from perfbench.stats import percentile, tail_percentile


# ------------------------------------------------------------ ground truth


def test_reference_table_covers_every_builtin():
    from repro.frontend import builtin_names

    assert sorted(truth.REFERENCE) == builtin_names()


def test_expected_verdicts_agree_with_bundled_ground_truth():
    from repro.frontend import build_builtin

    for design, (bound, expected) in truth.REFERENCE.items():
        _netlist, spec = build_builtin(design)
        assert bound > 0
        if design == "aes-t1200":
            # the paper's N/A: Trojaned, but not triggerable within bound
            assert spec.trojan is not None
            assert expected == truth.NOT_WITHIN_BOUND
        elif spec.trojan is None:
            assert expected == truth.CLEAN, design
        else:
            assert expected == truth.TROJAN, design
    assert not truth.expects_trojan_found("aes-t1200")


def test_risc_reference_bound_follows_trigger_formula():
    assert truth.bound("risc") == 8 + 4 * (8 + 3) == 52


def test_check_audit_flags_wrong_verdicts_and_degraded_audits():
    def report(found, degraded=False, register="acc"):
        finding = types.SimpleNamespace(trojan_found=found)
        return types.SimpleNamespace(
            trojan_found=found, degraded=degraded,
            findings={register: finding},
        )

    assert truth.check_audit("mc8051-t700", report(True), "acc") == []
    assert truth.check_audit("mc8051", report(False)) == []
    assert truth.check_audit("mc8051", report(True))
    assert truth.check_audit("aes-t1200", report(True))
    assert truth.check_audit("mc8051-t700", report(True, register="pc"), "acc")
    assert truth.check_audit("mc8051", report(False, degraded=True))


# -------------------------------------------------------------- statistics


@pytest.mark.parametrize("count, expected", [
    (9, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75),
    (100, 90), (104, 90), (199, 90), (200, 95), (1000, 99), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert round(count * (100 - expected) / 100, 6) >= 10


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile([3.0], 90) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3


# --------------------------------------------------------------- self time


def _span(ident, parent, start, end, child_s=0.0, pid=1, name="x"):
    return {"id": ident, "parent": parent, "pid": pid, "name": name,
            "start": start, "end": end, "child_s": child_s, "req": None,
            "attrs": None}


def test_self_time_subtracts_union_of_children_and_leaf_time():
    tree = [
        _span(1, None, 0.0, 10.0, child_s=1.0),  # root
        _span(2, 1, 1.0, 4.0),                    # child
        _span(3, 1, 3.0, 6.0),                    # overlapping child
        _span(4, 2, 2.0, 3.0),                    # grandchild
        _span(5, 1, 9.5, 11.0),                   # runs past the root
    ]
    selfs = spans.self_times(tree)
    # children cover [1, 6] and [9.5, 10]: 5.5 s, plus 1 s of leaf calls
    assert selfs[(1, 1)] == pytest.approx(10.0 - 5.5 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(3.0 - 1.0)
    assert selfs[(1, 3)] == pytest.approx(3.0)
    assert selfs[(1, 4)] == pytest.approx(1.0)
    assert selfs[(1, 5)] == pytest.approx(1.5)


def test_self_time_counts_remote_children_named_by_cause():
    scheduler = _span(1, None, 0.0, 10.0, pid=100)
    remote = _span(1, None, 2.0, 7.0, pid=200)  # same id, other process
    remote["cause"] = (100, 1)
    selfs = spans.self_times([scheduler, remote])
    assert selfs[(100, 1)] == pytest.approx(5.0)
    assert selfs[(200, 1)] == pytest.approx(5.0)


def test_sched_pairs_match_submits_to_worker_runs_in_order():
    submit_a = _span(2, 1, 1.0, 1.1, pid=100, name="sched.submit")
    submit_b = _span(3, 1, 2.0, 2.1, pid=100, name="sched.submit")
    for submit in (submit_a, submit_b):
        submit["attrs"] = {"worker": 200, "size": 2}
    run_b = _span(9, None, 2.5, 4.0, pid=200, name="sched.run")
    run_a = _span(8, None, 1.2, 2.4, pid=200, name="sched.run")
    pairs = layers.sched_pairs([submit_b, run_b, submit_a, run_a])
    assert pairs == [(submit_a, run_a), (submit_b, run_b)]
    assert run_a["cause"] == (100, 1)


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


# ---------------------------------------------------------------- wrappers


def _inner(x):
    time.sleep(0.01)
    return x + 1


def _outer(x):
    return _toy.inner(x) * 2  # through the module, as callers would


_toy = types.ModuleType("repro._perfbench_toy")
_toy.inner = _inner
_toy.outer = _outer


@pytest.fixture
def toy_module():
    sys.modules[_toy.__name__] = _toy
    _toy.inner, _toy.outer = _inner, _outer
    yield _toy
    sys.modules.pop(_toy.__name__, None)


def test_recorder_nests_spans_and_charges_leaf_time(toy_module):
    recorder = spans.Recorder()
    patches = spans.install(recorder, [
        spans.Spec("toy.outer", toy_module.__name__, "outer"),
        spans.Spec("toy.inner", toy_module.__name__, "inner", "leaf"),
    ])
    try:
        assert toy_module.outer(1) == 4
        assert toy_module.inner(1) == 2  # top level: a span of its own
    finally:
        spans.uninstall(patches)
    by_name = {s["name"]: s for s in recorder.spans}
    outer = by_name["toy.outer"]
    assert outer["child_s"] >= 0.01
    assert recorder.counters["toy.inner.calls"] == 1
    assert by_name["toy.inner"]["parent"] is None


def test_uninstall_leaves_no_wrapper_behind():
    import repro.frontend
    import repro.sat.native

    original_load = repro.frontend.load_design
    original_solve = vars(repro.sat.native.NativeSolver)["solve"]
    recorder = spans.Recorder()
    patches = spans.install(recorder, layers.SPECS)
    late = types.ModuleType("repro._perfbench_late_import")
    try:
        assert hasattr(repro.frontend.load_design, spans.MARK)
        assert spans.leftover_wrappers()
        # a module that imports a wrapped function after install
        late.load_design = repro.frontend.load_design
        sys.modules[late.__name__] = late
    finally:
        spans.uninstall(patches)
    try:
        assert spans.leftover_wrappers() == []
        assert repro.frontend.load_design is original_load
        assert late.load_design is original_load
        assert vars(repro.sat.native.NativeSolver)["solve"] is original_solve
    finally:
        sys.modules.pop(late.__name__, None)


def _work_in_child(toy_name):
    sys.modules[toy_name].outer(1)


def test_forked_children_dump_spans_that_merge(tmp_path, toy_module):
    recorder = spans.Recorder(str(tmp_path))
    patches = spans.install(recorder, [
        spans.Spec("toy.outer", toy_module.__name__, "outer"),
    ])
    try:
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_work_in_child, args=(toy_module.__name__,))
        child.start()
        child.join(30)
        assert child.exitcode == 0
        toy_module.outer(2)
    finally:
        spans.uninstall(patches)
    merged, _counters, _missing = spans.load_dumps(
        [str(tmp_path / "*.json*")], extra=[recorder.payload()])
    pids = sorted(s["pid"] for s in merged if s["name"] == "toy.outer")
    assert len(pids) == 2 and pids[0] != pids[1]
    assert child.pid in pids


def test_install_skips_targets_the_program_lacks(toy_module):
    recorder = spans.Recorder()
    patches = spans.install(recorder, [
        spans.Spec("toy.gone", toy_module.__name__, "renamed_away"),
        spans.Spec("toy.outer", toy_module.__name__, "outer"),
    ])
    try:
        assert recorder.missing == [toy_module.__name__ + ".renamed_away"]
        assert hasattr(toy_module.outer, spans.MARK)
    finally:
        spans.uninstall(patches)
    assert not hasattr(toy_module.outer, spans.MARK)


def test_missing_targets_travel_with_dumps(tmp_path, toy_module):
    # a probe process reports what it could not trace in its dump, so
    # the parent can fail the run on it
    recorder = spans.Recorder()
    spans.uninstall(spans.install(recorder, [
        spans.Spec("toy.gone", toy_module.__name__, "renamed_away")]))
    recorder.dump(str(tmp_path / "child-spans.json"))
    _spans, _counters, missing = spans.load_dumps(
        [str(tmp_path / "*.json*")], extra=[recorder.payload()])
    assert missing == [toy_module.__name__ + ".renamed_away"]


def _sleep_forever():
    while True:
        time.sleep(1)


def test_forked_children_keep_default_sigterm():
    import signal

    from perfbench import run

    previous = signal.getsignal(signal.SIGTERM)
    try:
        run.exit_on_sigterm()
        child = multiprocessing.get_context("fork").Process(
            target=_sleep_forever)
        child.start()
        time.sleep(0.2)
        child.terminate()
        child.join(5)
        # killed by the signal itself, not unwound into an exit status
        assert child.exitcode == -signal.SIGTERM
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_source_digest_follows_program_files_only(tmp_path):
    from perfbench.workloads import source_digest

    package = tmp_path / "src" / "repro"
    (package / "__pycache__").mkdir(parents=True)
    (package / "core.py").write_text("x = 1\n")
    before = source_digest(str(tmp_path))
    (package / "__pycache__" / "core.cpython-311.pyc").write_bytes(b"\0")
    assert source_digest(str(tmp_path)) == before
    (package / "core.py").write_text("x = 2\n")
    assert source_digest(str(tmp_path)) != before


# ------------------------------------------------------------ serve dispatch


def test_dispatch_holds_cached_jobs_while_their_cache_fills():
    from perfbench.workloads import Dispatch

    dispatch = Dispatch([("a", True), ("a", True), ("a", False), ("b", True)])
    first = dispatch.take()
    assert first == ("a", True)
    # the second cached "a" waits; the jobs behind it go ahead
    assert dispatch.take() == ("a", False)
    assert dispatch.take() == ("b", True)
    dispatch.done(first)
    assert dispatch.take() == ("a", True)
    assert dispatch.take() is None


def test_dispatch_wakes_a_client_blocked_on_a_filling_cache():
    import threading

    from perfbench.workloads import Dispatch

    dispatch = Dispatch([("a", True), ("a", True)])
    first = dispatch.take()
    taken = []
    waiter = threading.Thread(target=lambda: taken.append(dispatch.take()))
    waiter.start()
    waiter.join(0.2)
    assert waiter.is_alive() and not taken
    dispatch.done(first)
    waiter.join(5)
    assert taken == [("a", True)]
