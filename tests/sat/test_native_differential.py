"""Differential fuzz: compiled CDCL backend vs the reference solver.

The native backend must be observationally equivalent to the Python
solver at the solve-semantics level: same SAT/UNSAT verdicts, models
that satisfy the formula plus assumptions, and failed-assumption cores
that are genuinely inconsistent subsets of the assumptions. Models and
cores need not be bit-identical across backends — witness byte-identity
is provided one layer up by canonical counterexample extraction.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SAT, UNKNOWN, UNSAT, Solver
from repro.sat.native import NativeSolver, native_available

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native backend"
)


def brute_force_sat(num_vars, clauses, assumptions=()):
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = {i + 1: bits[i] for i in range(num_vars)}
        if any(assignment[abs(a)] != (a > 0) for a in assumptions):
            continue
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def model_satisfies(model, clauses, assumptions=()):
    for a in assumptions:
        if model[abs(a)] != (a > 0):
            return False
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


clause_strategy = st.lists(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    min_size=1,
    max_size=4,
)
formula_strategy = st.lists(clause_strategy, min_size=0, max_size=12)


class TestNativeBasics:
    def test_empty_formula_sat(self):
        s = NativeSolver()
        s.new_vars(3)
        assert s.solve().status == SAT

    def test_unit_propagation_and_model(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a])
        s.add_clause([-a, b])
        r = s.solve()
        assert r.status == SAT
        assert r.model[a] and r.model[b]

    def test_model_survives_later_solves(self):
        # Python models are dict snapshots; the native view must be a
        # snapshot too, not a live pointer into solver state.
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        first = s.solve(assumptions=[a, -b])
        assert first.status == SAT
        second = s.solve(assumptions=[-a, b])
        assert second.status == SAT
        assert first.model[a] and not first.model[b]
        assert not second.model[a] and second.model[b]

    def test_failed_assumption_core(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        r = s.solve(assumptions=[-a, -b])
        assert r.status == UNSAT
        assert r.core is not None
        assert set(r.core) <= {-a, -b}
        assert not brute_force_sat(2, [[a, b]], r.core)

    def test_root_conflict_core_is_empty(self):
        s = NativeSolver()
        (a,) = s.new_vars(1)
        s.add_clause([a])
        s.add_clause([-a])
        assert s.solve(assumptions=[a]).core == ()

    def test_sat_and_no_assumptions_have_no_core(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        assert s.solve(assumptions=[-a]).core is None
        s.add_clause([-a])
        s.add_clause([a])
        assert s.solve().core is None

    def test_conflict_budget_unknown(self):
        s = NativeSolver()
        # pigeonhole 4 into 3: hard enough that 1 conflict cannot close it
        holes, pigeons = 3, 4
        vars_ = {}
        for p in range(pigeons):
            for h in range(holes):
                vars_[(p, h)] = s.new_var()
        for p in range(pigeons):
            s.add_clause([vars_[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-vars_[(p1, h)], -vars_[(p2, h)]])
        assert s.solve(conflict_budget=1).status == UNKNOWN
        assert s.solve().status == UNSAT

    def test_stats_are_cumulative_deltas(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        pre = s.stats.propagations
        s.solve(assumptions=[-a])
        assert s.stats.propagations > pre

    def test_bad_literal_raises(self):
        from repro.sat.solver import SolverError

        s = NativeSolver()
        s.new_vars(2)
        with pytest.raises(SolverError):
            s.add_clause([3])
        with pytest.raises(SolverError):
            s.solve(assumptions=[0])


@settings(max_examples=150, deadline=None)
@given(data=formula_strategy)
def test_fuzz_native_vs_python_verdicts(data):
    py = Solver()
    nat = NativeSolver()
    py.new_vars(6)
    nat.new_vars(6)
    for clause in data:
        py.add_clause(clause)
        nat.add_clause(clause)
    expected = brute_force_sat(6, data)
    r_py = py.solve()
    r_nat = nat.solve()
    assert r_py.status == r_nat.status
    assert (r_nat.status == SAT) == expected
    if r_nat.status == SAT:
        assert model_satisfies(r_nat.model, data)


@settings(max_examples=100, deadline=None)
@given(
    data=formula_strategy,
    assumption_rounds=st.lists(
        st.lists(
            st.integers(min_value=1, max_value=6).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=0,
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_fuzz_native_incremental_assumptions(data, assumption_rounds):
    """Interleaved add_clause/solve with assumptions, both backends."""
    py = Solver()
    nat = NativeSolver()
    py.new_vars(6)
    nat.new_vars(6)
    clauses_so_far = []
    chunk = max(1, len(data) // len(assumption_rounds))
    for i, assumptions in enumerate(assumption_rounds):
        for clause in data[i * chunk:(i + 1) * chunk]:
            clauses_so_far.append(clause)
            py.add_clause(clause)
            nat.add_clause(clause)
        expected = brute_force_sat(6, clauses_so_far, assumptions)
        r_py = py.solve(assumptions=assumptions)
        r_nat = nat.solve(assumptions=assumptions)
        assert r_py.status == r_nat.status
        assert (r_nat.status == SAT) == expected
        if r_nat.status == SAT:
            assert model_satisfies(r_nat.model, clauses_so_far, assumptions)
        elif assumptions:
            assert r_nat.core is not None
            assert set(r_nat.core) <= set(assumptions)
            assert not brute_force_sat(6, clauses_so_far, r_nat.core)


class TestBufferedTransfer:
    def test_root_unsat_inside_one_unflushed_batch(self):
        s = NativeSolver()
        (a,) = s.new_vars(1)
        s.add_clause([a])
        s.add_clause([-a])
        assert s.root_unsat
        assert s.solve().status == UNSAT

    def test_root_unsat_inside_one_add_clauses_call(self):
        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clauses([[a, b], [-a], [-b]])
        assert s.root_unsat
        assert s.solve(assumptions=[a]).status == UNSAT

    @pytest.mark.parametrize("bad", [[1, 3], [1, -3], [0], [1, 0, 2]])
    def test_bad_literal_leaves_buffer_unchanged(self, bad):
        from repro.sat.solver import SolverError

        s = NativeSolver()
        a, b = s.new_vars(2)
        s.add_clause([a, b])
        before = s._buf.tolist()
        with pytest.raises(SolverError):
            s.add_clause(bad)
        assert s._buf.tolist() == before
        with pytest.raises(SolverError):
            s.add_clauses([[-a], bad])
        assert s._buf.tolist() == before
        assert len(s.clauses) == 1
        assert s.solve(assumptions=[-a]).model[b]

    def test_variable_made_after_a_sat_answer_searches_as_unbuffered(self):
        # the SAT answer leaves the kernel off its root; variable 5 must
        # enter the decision heap before the clause's backtrack, as it did
        # when every call crossed into C on its own
        lazy, eager = NativeSolver(), NativeSolver()
        for s in (lazy, eager):
            s.new_vars(4)
            _eager(s)
            assert s.solve().status == SAT
        results = []
        for s, flush in ((lazy, lambda _s: None), (eager, _eager)):
            s.new_var()
            flush(s)
            s.add_clause([4, -3, 2])
            flush(s)
            r = s.solve(assumptions=[-5, -1])
            results.append((r.status, r.decisions, r.propagations,
                            r.model._buf))
        assert results[0] == results[1]

    def test_add_cnf_grows_variables(self):
        from repro.sat import Cnf

        cnf = Cnf()
        a, b, c = cnf.new_vars(3)
        cnf.add_clauses([[a, b], [-a, c], [-c]])
        s = NativeSolver()
        s.add_cnf(cnf)
        assert s.num_vars == 3
        r = s.solve()
        assert r.status == SAT and model_satisfies(r.model, cnf.clauses)


def _eager(solver):
    """Flush after every call, as if each one crossed into C alone."""
    len(solver.clauses)


_NVARS = 5

op_strategy = st.one_of(
    st.tuples(st.just("var")),
    st.tuples(st.just("clause"), clause_strategy),
    st.tuples(st.just("clauses"), st.lists(clause_strategy, max_size=3)),
    st.tuples(
        st.just("solve"),
        st.lists(st.integers(min_value=1, max_value=8).flatmap(
            lambda v: st.sampled_from([v, -v])), max_size=3),
    ),
    st.tuples(st.just("phase"), st.integers(min_value=1, max_value=8),
              st.booleans()),
    st.tuples(st.just("read")),
)


def _fit(lits, num_vars):
    """Map literals onto the variables allocated so far."""
    return [(abs(lit) - 1) % num_vars + 1 if lit > 0
            else -((abs(lit) - 1) % num_vars + 1) for lit in lits]


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=25))
def test_fuzz_buffered_interleaving(ops):
    """new_var, add_clause(s), solve, phase writes and state reads in any
    order: verdicts match the Python solver and brute force, and the
    buffered solver searches exactly like one flushed after every call."""
    py = Solver()
    lazy = NativeSolver()
    eager = NativeSolver()
    for s in (py, lazy, eager):
        s.new_vars(_NVARS)
    _eager(eager)
    clauses = []
    for op in ops:
        n = py.num_vars
        if op[0] == "var":
            if n >= 8:  # keeps brute force small
                continue
            assert py.new_var() == lazy.new_var() == eager.new_var()
            _eager(eager)
        elif op[0] == "clause":
            clause = _fit(op[1], n)
            clauses.append(clause)
            for s in (py, lazy, eager):
                s.add_clause(clause)
            _eager(eager)
        elif op[0] == "clauses":
            group = [_fit(c, n) for c in op[1]]
            clauses.extend(group)
            for s in (py, lazy, eager):
                s.add_clauses(group)
            _eager(eager)
        elif op[0] == "solve":
            assumptions = _fit(op[1], n)
            r_py = py.solve(assumptions=assumptions)
            r_lazy = lazy.solve(assumptions=assumptions)
            r_eager = eager.solve(assumptions=assumptions)
            expected = brute_force_sat(n, clauses, assumptions)
            assert (r_py.status == SAT) == expected
            assert r_lazy.status == r_py.status
            assert (r_lazy.conflicts, r_lazy.decisions, r_lazy.propagations,
                    r_lazy.core) == (r_eager.conflicts, r_eager.decisions,
                                     r_eager.propagations, r_eager.core)
            if r_lazy.status == SAT:
                assert model_satisfies(r_lazy.model, clauses, assumptions)
                assert r_lazy.model._buf == r_eager.model._buf
        elif op[0] == "phase":
            var = (op[1] - 1) % n + 1
            lazy.phase[var] = op[2]
            eager.phase[var] = op[2]
        else:
            assert len(lazy.clauses) == len(eager.clauses)
            assert len(lazy.learnts) == len(eager.learnts)
            assert lazy.root_unsat == eager.root_unsat
            if lazy.root_unsat:
                assert not brute_force_sat(n, clauses)
            assert lazy.stats == eager.stats
    assert lazy.num_vars == eager.num_vars == py.num_vars
