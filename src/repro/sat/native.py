"""Optional compiled CDCL backend (ctypes over ``_native.c``).

The pure-Python solver in :mod:`repro.sat.solver` is the reference
implementation and always works; this module provides a drop-in
accelerated backend when a C compiler is available. The C source ships
in the package and is compiled *at runtime* — once per source revision
and compiler flags, cached as a shared object keyed by their hash — so
the repository needs no build step, no setuptools extension, and no
wheel story. On any failure (no compiler, compile error, load error)
the backend simply reports itself unavailable and callers fall back to
the Python solver; nothing in the pipeline requires it.

:class:`NativeSolver` mirrors the subset of the Python ``Solver``
surface the BMC layer consumes: ``new_var``/``new_vars``/``add_clause``/
``add_clauses``/``add_cnf``, ``solve(assumptions=, conflict_budget=,
time_budget=)`` returning a :class:`~repro.sat.solver.SolveResult`,
cumulative ``stats`` snapshots, ``num_vars``, ``len(clauses)``/
``len(learnts)``, writable ``phase`` (used by canonical witness
extraction), and ``root_unsat``. Models are snapshotted into an
immutable byte buffer at SAT exit, so — like the Python solver's dict
models — they stay valid across later solves that disturb the C
solver's assignment.

Buffered transfer. Clauses do not cross into C one by one: the variable
count lives in Python (``new_var`` and ``num_vars`` make no foreign
call), and ``add_clause``/``add_clauses`` validate their literals at
once (a bad one raises :class:`~repro.sat.solver.SolverError` and
leaves the buffer as it was), then append them 0-terminated to an
``array('i')``. The buffer is flushed — the kernel grown to the current
variable count and every buffered clause added, in order, in one
``rsat_add_clauses`` call — before anything reads or writes kernel
state: ``solve``, ``stats``, ``root_unsat``, ``len(clauses)``/
``len(learnts)`` and ``phase`` writes. A flush adds nothing but
variables when the first clause after a SAT answer arrives, so that
the kernel sees the same sequence of variable and clause additions as
an unbuffered caller would make, and searches identically. A root
contradiction inside a batch therefore shows in ``root_unsat`` and in
the next solve, not in ``add_clause``'s (absent) return value.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from array import array
from pathlib import Path

from repro.obs.tracer import get_tracer
from repro.sat.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    SolverError,
    SolverStats,
    SolveResult,
)

_SOURCE = Path(__file__).with_name("_native.c")

_CFLAGS = ("-O3", "-shared", "-fPIC")

# Cached per-process: None = not tried yet, False = unavailable,
# otherwise the loaded ctypes library.
_LIB = None


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME")
    if base:
        return Path(base) / "repro-sat"
    home = Path.home()
    if os.access(home, os.W_OK):
        return home / ".cache" / "repro-sat"
    return Path(tempfile.gettempdir()) / "repro-sat"


def _compile_library():
    """Compile ``_native.c`` to a cached .so; return its path or None."""
    if not _SOURCE.exists():
        return None
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return None
    source = _SOURCE.read_bytes()
    key = source + " ".join(_CFLAGS).encode("ascii")
    digest = hashlib.sha256(key).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / "librsat-{}.so".format(digest)
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        # Compile to a temp name and rename: concurrent processes racing
        # to build the same revision each land a complete .so.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            return None
        os.replace(tmp, target)
        return target
    except (OSError, subprocess.SubprocessError):
        return None


def _bind(lib):
    P = ctypes.c_void_p
    i32 = ctypes.c_int32
    i64 = ctypes.c_int64
    sigs = {
        "rsat_new": ([], P),
        "rsat_free": ([P], None),
        "rsat_add_clauses": ([P, i32, P, i64], None),
        "rsat_solve": ([P, ctypes.POINTER(i32), i32, i64, ctypes.c_double],
                       i32),
        "rsat_model": ([P, ctypes.POINTER(ctypes.c_uint8)], None),
        "rsat_core_size": ([P], i32),
        "rsat_core": ([P, ctypes.POINTER(i32)], None),
        "rsat_set_phase": ([P, i32, i32], None),
        "rsat_set_restart_base": ([P, i32], None),
        "rsat_conflicts": ([P], i64),
        "rsat_decisions": ([P], i64),
        "rsat_propagations": ([P], i64),
        "rsat_restarts": ([P], i64),
        "rsat_solve_calls": ([P], i64),
        "rsat_num_clauses": ([P], i64),
        "rsat_num_learnts": ([P], i64),
        "rsat_root_unsat": ([P], i32),
    }
    for name, (argtypes, restype) in sigs.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def _load_library():
    global _LIB
    if _LIB is None:
        path = _compile_library()
        if path is None:
            _LIB = False
        else:
            try:
                _LIB = _bind(ctypes.CDLL(str(path)))
            except OSError:
                _LIB = False
    return _LIB or None


def native_available():
    """True when the compiled backend can be (or already was) loaded."""
    return _load_library() is not None


class _ModelView:
    """Immutable model snapshot with the dict surface witnesses use."""

    __slots__ = ("_buf",)

    def __init__(self, buf):
        self._buf = buf

    def __getitem__(self, var):
        return bool(self._buf[var])

    def get(self, var, default=None):
        if 1 <= var < len(self._buf):
            return bool(self._buf[var])
        return default

    def __contains__(self, var):
        return 1 <= var < len(self._buf)

    def __len__(self):
        return max(0, len(self._buf) - 1)


class _PhaseArray:
    """Write-through view over the C solver's saved phases.

    Canonical witness extraction writes ``solver.phase[var] = bool`` to
    steer the next model toward lex-minimal inputs; reads mirror the
    last value written here (the C side additionally updates phases on
    every enqueue, which this shadow intentionally does not track — no
    caller reads phases back for search-state introspection).
    """

    __slots__ = ("_solver", "_shadow")

    def __init__(self, solver):
        self._solver = solver
        self._shadow = {}

    def __setitem__(self, var, value):
        self._shadow[var] = bool(value)
        solver = self._solver
        solver._flush()
        solver._lib.rsat_set_phase(solver._handle, var, int(bool(value)))

    def __getitem__(self, var):
        return self._shadow.get(var, False)


class _CountProxy:
    """``len()``-only stand-in for the Python solver's clause lists."""

    __slots__ = ("_solver", "_fn")

    def __init__(self, solver, fn):
        self._solver = solver
        self._fn = fn

    def __len__(self):
        solver = self._solver
        solver._flush()
        return int(self._fn(solver._handle))


def _bad_literal(literals, num_vars, what):
    """The first out-of-range or zero literal, as a :class:`SolverError`."""
    for lit in literals:
        if lit == 0 or abs(lit) > num_vars:
            return SolverError("bad {} {!r}".format(what, lit))
    return SolverError("bad {} 0".format(what))


class NativeSolver:
    """ctypes wrapper presenting the Python ``Solver`` interface."""

    backend = "native"

    def __init__(self, restart_base=100, **_compat_kwargs):
        lib = _load_library()
        if lib is None:
            raise SolverError("native SAT backend unavailable")
        self._lib = lib
        self._handle = lib.rsat_new()
        if restart_base != 100:
            lib.rsat_set_restart_base(self._handle, restart_base)
        self.num_vars = 0
        # clauses the kernel has not seen yet, 0-terminated
        self._buf = array("i")
        # a SAT answer leaves the kernel off its root level until the
        # next clause backtracks it
        self._after_sat = False
        self.phase = _PhaseArray(self)
        self.clauses = _CountProxy(self, lib.rsat_num_clauses)
        self.learnts = _CountProxy(self, lib.rsat_num_learnts)

    def __del__(self):
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.rsat_free(handle)
            self._handle = None

    def _flush(self):
        """Grow the kernel to ``num_vars`` and hand it the buffer."""
        address, length = self._buf.buffer_info()
        self._lib.rsat_add_clauses(self._handle, self.num_vars, address,
                                   length)
        if length:
            self._buf = array("i")

    # ------------------------------------------------------------ state

    @property
    def root_unsat(self):
        self._flush()
        return bool(self._lib.rsat_root_unsat(self._handle))

    @property
    def stats(self):
        self._flush()
        lib, h = self._lib, self._handle
        return SolverStats(
            conflicts=int(lib.rsat_conflicts(h)),
            decisions=int(lib.rsat_decisions(h)),
            propagations=int(lib.rsat_propagations(h)),
            restarts=int(lib.rsat_restarts(h)),
            learned_clauses=int(lib.rsat_num_learnts(h)),
            solve_calls=int(lib.rsat_solve_calls(h)),
        )

    # ---------------------------------------------------------- clauses

    def new_var(self):
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count):
        return [self.new_var() for _ in range(count)]

    def add_clause(self, literals):
        self.add_clauses((literals,))

    def add_clauses(self, clauses):
        """Add several clauses; all are checked before any is buffered."""
        flat = []
        count = 0
        for clause in clauses:
            flat.extend(clause)
            flat.append(0)
            count += 1
        n = self.num_vars
        if flat and (min(flat) < -n or max(flat) > n
                     or flat.count(0) != count):
            raise _bad_literal([lit for lit in flat if lit], n, "literal")
        if self._after_sat:
            # the first clause after a SAT answer backtracks the kernel:
            # the variables made before it must enter the decision heap
            # ahead of that backtrack, as they did unbuffered, or heap
            # ties break differently
            self._after_sat = False
            self._flush()
        self._buf.extend(flat)

    def add_cnf(self, cnf):
        self.num_vars = max(self.num_vars, cnf.num_vars)
        self.add_clauses(cnf.clauses)

    # ------------------------------------------------------------ solve

    def solve(self, assumptions=None, conflict_budget=None, time_budget=None):
        assumptions = list(assumptions) if assumptions else []
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve(assumptions, conflict_budget, time_budget)
        # same span/counter vocabulary as the Python solver, so the
        # telemetry encode/solve split is backend-independent
        with tracer.span("sat.solve",
                         assumptions=len(assumptions)) as extra:
            res = self._solve(assumptions, conflict_budget, time_budget)
            extra.update(
                status=res.status,
                conflicts=res.conflicts,
                decisions=res.decisions,
                propagations=res.propagations,
            )
            metrics = tracer.metrics
            metrics.counter("sat.solve_calls").inc()
            metrics.counter("sat.conflicts").inc(res.conflicts)
            metrics.counter("sat.decisions").inc(res.decisions)
            metrics.counter("sat.propagations").inc(res.propagations)
            metrics.counter("sat.status." + res.status).inc()
            metrics.histogram("sat.solve_seconds").observe(res.elapsed)
            metrics.gauge("sat.learnts").set(len(self.learnts))
        return res

    def _solve(self, assumptions, conflict_budget, time_budget):
        n = self.num_vars
        if assumptions and (min(assumptions) < -n or max(assumptions) > n
                            or 0 in assumptions):
            raise _bad_literal(assumptions, n, "assumption")
        self._flush()
        lib, h = self._lib, self._handle
        pre_conflicts = int(lib.rsat_conflicts(h))
        pre_decisions = int(lib.rsat_decisions(h))
        pre_propagations = int(lib.rsat_propagations(h))
        start = time.perf_counter()
        arr = (ctypes.c_int32 * max(1, len(assumptions)))(*assumptions)
        code = lib.rsat_solve(
            h,
            arr,
            len(assumptions),
            -1 if conflict_budget is None else int(conflict_budget),
            -1.0 if time_budget is None else float(time_budget),
        )
        elapsed = time.perf_counter() - start
        model = None
        core = None
        self._after_sat = code == 1
        if code == 1:
            status = SAT
            buf = (ctypes.c_uint8 * (n + 1))()
            lib.rsat_model(h, buf)
            model = _ModelView(bytes(buf))
        elif code == 0:
            status = UNSAT
            if assumptions:
                size = int(lib.rsat_core_size(h))
                out = (ctypes.c_int32 * max(1, size))()
                lib.rsat_core(h, out)
                core = tuple(out[i] for i in range(size))
        else:
            status = UNKNOWN
        return SolveResult(
            status=status,
            model=model,
            conflicts=int(lib.rsat_conflicts(h)) - pre_conflicts,
            decisions=int(lib.rsat_decisions(h)) - pre_decisions,
            propagations=int(lib.rsat_propagations(h)) - pre_propagations,
            elapsed=elapsed,
            core=core,
        )
