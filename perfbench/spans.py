"""In-memory spans recorded around the program's public functions.

A :class:`Recorder` owns every span of one process. :func:`install`
replaces the listed functions and methods with wrappers that record a
span per call (name, start, end, parent span, request id) and returns
the patches so :func:`uninstall` can put the originals back; nothing in
the program itself knows it is being traced.

Two call kinds keep the cost of hot functions down:

* ``span`` — every call is a span with its own interval;
* ``leaf`` — a function that calls nothing else traced and may run a
  million times (one clause into the SAT kernel). Inside an enclosing
  span its calls are only counted and timed, and the time is charged to
  that span as child time; with no enclosing span it is recorded as a
  normal span.

Processes. A recorder re-arms itself in a forked child (fork pool
workers): the child starts with no spans and appends its spans to
``<dump_dir>/spans-<pid>.jsonl`` each time its outermost span ends, so
nothing depends on the child running exit hooks. A process started by
the benchmark (set-up probe, audit service) installs its own wrappers
and calls :meth:`Recorder.dump` before it exits. :func:`load_dumps`
merges the files, including each process's list of traced targets the
program lacks.

Clocks. Spans use ``time.perf_counter``, which is ``CLOCK_MONOTONIC``
on Linux and so comparable across the processes of one machine.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
import sys
import threading
import time

MARK = "_perfbench_span"


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, dump_dir=None):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.forked = False
        self.spans = []
        self.counters = {}
        self.missing = []  # traced targets the program does not have
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------ state

    def _after_fork(self):
        self.pid = os.getpid()
        self.forked = True
        self.spans = []
        self.counters = {}
        self._local = threading.local()
        self._id_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.leaf_depth = 0
            self._local.request = None
        return stack

    def _new_id(self):
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def count(self, key, amount=1):
        """Add ``amount`` to a process counter."""
        with self._id_lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def set_request(self, request):
        """Tag this thread's spans that have no traced caller."""
        self._stack()
        self._local.request = request

    # ------------------------------------------------------------ calls

    def call_span(self, name, fn, args, kwargs, request=None, observe=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent["req"] if parent else self._local.request
        span = {
            "id": self._new_id(),
            "parent": parent["id"] if parent else None,
            "name": name,
            "pid": self.pid,
            "req": request,
            "child_s": 0.0,
            "attrs": None,
        }
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if observe is not None:
            observe(self, span, args, result)
        if not stack and self.forked and self.dump_dir:
            self.flush()
        return result

    def call_leaf(self, name, fn, args, kwargs, observe=None):
        stack = self._stack()
        if not stack:
            return self.call_span(name, fn, args, kwargs, observe=observe)
        local = self._local
        if local.leaf_depth:
            # a leaf reached from inside another leaf: its time is
            # already inside the outer call's
            self.count(name + ".calls")
            return fn(*args, **kwargs)
        local.leaf_depth = 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            local.leaf_depth = 0
            stack[-1]["child_s"] += elapsed
            with self._id_lock:
                counters = self.counters
                calls, secs = name + ".calls", name + ".s"
                counters[calls] = counters.get(calls, 0) + 1
                counters[secs] = counters.get(secs, 0.0) + elapsed
        if observe is not None:
            observe(self, None, args, result)
        return result

    # ------------------------------------------------------------ output

    def payload(self):
        return {"pid": self.pid, "spans": self.spans,
                "counters": self.counters, "missing": self.missing}

    def flush(self):
        """Append this process's spans to its dump file and forget them."""
        path = os.path.join(self.dump_dir, "spans-{}.jsonl".format(self.pid))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.payload()) + "\n")
        self.spans = []
        self.counters = {}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.payload()) + "\n")


def load_dumps(paths, extra=()):
    """Merge dump files (and in-memory payloads) into spans, counters and
    the sorted traced targets any process found missing."""
    spans, counters, missing = [], {}, set()
    payloads = list(extra)
    for pattern in paths:
        for path in sorted(glob.glob(pattern)):
            with open(path, "r", encoding="utf-8") as handle:
                payloads.extend(json.loads(line) for line in handle if line.strip())
    for payload in payloads:
        spans.extend(payload["spans"])
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0) + value
        missing.update(payload.get("missing", ()))
    return spans, counters, sorted(missing)


# ------------------------------------------------------------- self time


def union_length(intervals):
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span key ``(pid, id)`` -> duration minus time covered by children.

    Children are the spans it called, plus spans in other processes whose
    ``cause`` names it. They are clipped to the span's interval and
    merged before subtracting, so overlapping children (threads, pool
    workers) are not counted twice; leaf time charged to the span
    (``child_s``) is subtracted too.
    """
    children = {}
    for span in spans:
        cause = span.get("cause")
        if cause is not None:
            children.setdefault(tuple(cause), []).append(span)
        elif span["parent"] is not None:
            children.setdefault((span["pid"], span["parent"]), []).append(span)
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        start, end = span["start"], span["end"]
        covered = union_length(
            (max(start, c["start"]), min(end, c["end"]))
            for c in children.get(key, ())
            if c["end"] > start and c["start"] < end
        )
        result[key] = max(0.0, end - start - covered - span["child_s"])
    return result


# ------------------------------------------------------------ wrappers


class Spec:
    """One traced callable: ``module`` + dotted ``attr`` -> span ``name``."""

    def __init__(self, name, module, attr, kind="span", observe=None,
                 request=None):
        if kind not in ("span", "leaf"):
            raise ValueError("kind must be 'span' or 'leaf'")
        self.name = name
        self.module = module
        self.attr = attr
        self.kind = kind
        self.observe = observe
        self.request = request


def _make_wrapper(recorder, spec, fn):
    name, observe, request = spec.name, spec.observe, spec.request
    if spec.kind == "leaf":
        def wrapper(*args, **kwargs):
            return recorder.call_leaf(name, fn, args, kwargs, observe)
    else:
        def wrapper(*args, **kwargs):
            req = request(args) if request is not None else None
            return recorder.call_span(name, fn, args, kwargs, req, observe)
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARK, name)
    return wrapper


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder, specs):
    """Wrap every spec'd callable; returns the patch list for uninstall.

    Module-level functions are also replaced wherever another ``repro``
    module imported them by name. A target the program no longer has is
    skipped and named in ``recorder.missing``.
    """
    patches = []
    try:
        for spec in specs:
            module = importlib.import_module(spec.module)
            *owner_path, attr = spec.attr.split(".")
            owner = module
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                recorder.missing.append("{}.{}".format(spec.module, spec.attr))
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(_make_wrapper(recorder, spec, raw.__func__))
            else:
                wrapped = _make_wrapper(recorder, spec, raw)
            setattr(owner, attr, wrapped)
            patches.append((owner, attr, raw))
            if owner is module:
                for other in _repro_modules():
                    for key, value in list(vars(other).items()):
                        if value is raw and other is not module:
                            setattr(other, key, wrapped)
                            patches.append((other, key, raw))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def _is_wrapper(value):
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    return inspect.isfunction(value) and MARK in value.__dict__


def _unwrap(value):
    if isinstance(value, (staticmethod, classmethod)):
        return type(value)(_unwrap(value.__func__))
    while _is_wrapper(value):
        value = value.__wrapped__
    return value


def _owners():
    for module in _repro_modules():
        yield module
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                yield value


def leftover_wrappers():
    """``owner.attr`` names in ``repro`` that still hold a wrapper."""
    found = set()
    for owner in _owners():
        for key, value in list(vars(owner).items()):
            if _is_wrapper(value):
                found.add("{}.{}".format(
                    getattr(owner, "__qualname__", owner.__name__), key))
    return sorted(found)


def uninstall(patches):
    """Put every original back, including copies imported after install."""
    for owner, attr, raw in reversed(patches):
        setattr(owner, attr, raw)
    for owner in _owners():
        for key, value in list(vars(owner).items()):
            if _is_wrapper(value):
                setattr(owner, key, _unwrap(value))
