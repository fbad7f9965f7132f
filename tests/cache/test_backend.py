"""CacheBackend interface: local/memory/null backends."""

import pytest

from repro.cache import OutcomeCache
from repro.cache.backend import (
    LocalBackend,
    MemoryBackend,
    NullBackend,
    backend_for,
)


class FakeResult:
    def __init__(self, status, bound, witness=None, elapsed=0.0):
        self.status = status
        self.bound = bound
        self.witness = witness
        self.elapsed = elapsed


class TestLocalBackend:
    def test_is_the_default_for_a_cache_dir(self, tmp_path):
        backend = backend_for(tmp_path)
        assert isinstance(backend, LocalBackend)
        assert backend_for(None) is None
        assert backend_for(backend) is backend  # pass-through

    def test_roundtrip_through_the_real_store(self, tmp_path):
        backend = LocalBackend(tmp_path)
        assert backend.get("a" * 16) is None
        backend.record_result("a" * 16, FakeResult("proved", 12),
                              engine="bmc")
        entry = backend.lookup("a" * 16)
        assert entry.proved_bound == 12 and entry.engine == "bmc"
        # visible to a plain OutcomeCache on the same directory
        assert OutcomeCache(tmp_path).lookup("a" * 16).proved_bound == 12

    def test_counters_shared_with_store(self, tmp_path):
        backend = LocalBackend(tmp_path)
        backend.put("b" * 16, proved_bound=4)
        assert backend.counters["stores"] == 1

    def test_claims_delegate_to_registry(self, tmp_path):
        backend = LocalBackend(tmp_path)
        other = LocalBackend(tmp_path)
        assert backend.claim("c" * 16)
        assert not other.claim("c" * 16)  # same fingerprint, live owner
        backend.release("c" * 16)
        assert other.claim("c" * 16)
        other.release_all()


class TestMemoryBackend:
    def test_merge_semantics_match_the_store(self):
        backend = MemoryBackend()
        backend.put("k", proved_bound=4)
        backend.put("k", proved_bound=10)          # deeper proof wins
        backend.put("k", violation_bound=9, witness={"w": 1})
        backend.put("k", violation_bound=7, witness={"w": 2})  # earliest
        entry = backend.get("k")
        assert entry.proved_bound == 10
        assert entry.violation_bound == 7
        assert entry.witness == {"w": 2}

    def test_claim_exactly_one_winner(self):
        backend = MemoryBackend()
        assert backend.claim("k")
        assert not backend.claim("k")
        backend.release("k")
        assert backend.claim("k")

    def test_record_result_stores_only_conclusive_facts(self):
        backend = MemoryBackend()
        assert not backend.record_result("k", FakeResult("unknown", 0))
        assert backend.record_result("k", FakeResult("unknown", 5))
        assert backend.get("k").proved_bound == 5  # partial prefix
        assert backend.record_result("k", FakeResult("violated", 8),
                                     certified_base=5)
        entry = backend.get("k")
        assert entry.violation_bound == 8
        assert entry.proved_bound == 5  # violation claims no proof


class TestNullBackend:
    def test_remembers_nothing_claims_everything(self):
        backend = NullBackend()
        backend.put("k", proved_bound=9)
        assert backend.get("k") is None
        assert backend.claim("k") and backend.claim("k")


class TestRecordResultContract:
    """The backend-level record_result must match the store's."""

    @pytest.mark.parametrize("status,bound,base,proved,violation", [
        ("proved", 10, 0, 10, None),
        ("proved", 4, 7, 7, None),      # base deeper than this run
        ("violated", 9, 3, 3, 9),
        ("unknown", 6, 0, 6, None),     # partial prefix
    ])
    def test_semantics(self, status, bound, base, proved, violation):
        backend = MemoryBackend()
        assert backend.record_result(
            "k", FakeResult(status, bound), certified_base=base
        )
        entry = backend.get("k")
        assert entry.proved_bound == proved
        assert entry.violation_bound == violation

    def test_unknown_with_no_prefix_is_not_stored(self):
        backend = MemoryBackend()
        assert not backend.record_result("k", FakeResult("unknown", 0))
        assert backend.get("k") is None
