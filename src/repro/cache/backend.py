"""Cache backends: one interface over the verdict store and claims.

PR 3's outcome store and PR 5's claim registry are both *local-directory*
constructs: an append-only JSONL file and ``O_CREAT|O_EXCL`` claim files
under one ``--cache-dir``. :class:`CacheBackend` puts the two concerns
behind a single interface, so the supervisor and the scheduler never
touch either directly:

``get(key)``
    Merged :class:`~repro.cache.store.CacheEntry` for a fingerprint, or
    ``None`` (a miss).
``put(key, **fields)``
    Append one verdict record (deepest proved bound / earliest violation
    + witness).
``claim(key)`` / ``release(key)``
    Advisory exactly-one-solver coordination (see
    :mod:`repro.cache.claims`); ``claim`` returns ``True`` when this
    backend's owner should solve the fingerprint.

Every backend must keep one invariant, because audits *trust* it:
**cache trouble is never fatal.** A backend may lose records, return
stale entries, or refuse claims — each costs duplicate solve time,
never a wrong verdict (cached violations are replay-validated, proofs
are prefix-closed; see DESIGN.md decision 9). A backend must therefore
prefer degrading to raising.

:class:`LocalBackend` is the default and the reference implementation:
it delegates to the existing :class:`~repro.cache.store.OutcomeCache`
and :class:`~repro.cache.claims.ClaimRegistry`. :class:`MemoryBackend`
is a process-local dict, and :class:`NullBackend` remembers nothing.
"""

from __future__ import annotations

from repro.cache.claims import ClaimRegistry
from repro.cache.store import CacheEntry, OutcomeCache


def _digest(key):
    return key if isinstance(key, str) else key.digest


class CacheBackend:
    """Abstract verdict store + claim coordinator (see module docstring).

    Subclasses implement :meth:`get`, :meth:`put`, :meth:`claim` and
    :meth:`release`. The base class provides the session counters and the
    :class:`~repro.runner.execution.CheckExecution`-facing conveniences
    (``lookup`` / ``record_result``) so any backend drops into the places
    an :class:`OutcomeCache` used to go.
    """

    name = "abstract"

    def __init__(self):
        self.counters = {
            "hits": 0,
            "partial_hits": 0,
            "misses": 0,
            "stores": 0,
        }

    # ------------------------------------------------------- abstract ops

    def get(self, key):
        """Merged :class:`CacheEntry` for ``key``, or ``None``."""
        raise NotImplementedError

    def put(self, key, engine="", proved_bound=0, violation_bound=None,
            witness=None, elapsed=0.0):
        """Append one verdict record for ``key``."""
        raise NotImplementedError

    def claim(self, key):
        """Advisory claim: ``True`` when the caller should solve ``key``."""
        raise NotImplementedError

    def release(self, key):
        """Drop a claim this backend's owner holds (no-op otherwise)."""
        raise NotImplementedError

    # ----------------------------------------------------- shared surface

    def lookup(self, key):
        """Alias for :meth:`get` (the :class:`OutcomeCache` spelling)."""
        return self.get(key)

    def record_result(self, key, result, engine="", certified_base=0):
        """Absorb an engine result (same contract as the store's method)."""
        status = getattr(result, "status", None)
        bound = getattr(result, "bound", 0)
        if status == "proved":
            proved, violation = max(bound, certified_base), None
        elif status == "violated":
            proved, violation = certified_base, bound
        elif status == "unknown" and max(bound, certified_base) > 0:
            proved, violation = max(bound, certified_base), None
        else:
            return False
        witness = getattr(result, "witness", None)
        self.put(
            key,
            engine=engine,
            proved_bound=proved,
            violation_bound=violation,
            witness=witness.to_dict() if witness is not None else None,
            elapsed=getattr(result, "elapsed", 0.0),
        )
        return True

    def release_all(self):
        """Release every claim still held (shutdown hook)."""

    def close(self):
        """Release resources; the default just drops claims."""
        self.release_all()


class LocalBackend(CacheBackend):
    """The default backend: one local cache directory.

    Verdicts live in the directory's :class:`OutcomeCache`; claims in its
    :class:`ClaimRegistry`. This is exactly the pre-backend behaviour,
    re-expressed through the interface.
    """

    name = "local"

    def __init__(self, cache_dir, claim_ttl=None):
        super().__init__()
        self.cache_dir = str(cache_dir)
        self.store = OutcomeCache(cache_dir)
        kwargs = {} if claim_ttl is None else {"ttl": claim_ttl}
        self.claims = ClaimRegistry(cache_dir, **kwargs)
        # one counters dict: execution bumps ours, store bumps its own on
        # record(); mirror the store's so `stores` stays accurate
        self.counters = self.store.counters

    def get(self, key):
        return self.store.lookup(key)

    def put(self, key, **fields):
        self.store.record(key, **fields)

    def claim(self, key):
        return self.claims.acquire(key)

    def release(self, key):
        self.claims.release(key)

    def release_all(self):
        self.claims.release_all()


class MemoryBackend(CacheBackend):
    """Dict-backed backend: an ephemeral cache for runs that want
    claim coordination without touching disk."""

    name = "memory"

    def __init__(self):
        super().__init__()
        self.entries = {}  # digest -> CacheEntry
        self.claimed = set()
        self._owned = set()

    def get(self, key):
        return self.entries.get(_digest(key))

    def put(self, key, engine="", proved_bound=0, violation_bound=None,
            witness=None, elapsed=0.0):
        digest = _digest(key)
        entry = self.entries.get(digest)
        if entry is None:
            entry = self.entries[digest] = CacheEntry(key=digest)
        entry.absorb({
            "engine": engine,
            "proved": proved_bound,
            "vbound": violation_bound,
            "witness": witness,
            "elapsed": elapsed,
        })
        self.counters["stores"] += 1

    def claim(self, key):
        digest = _digest(key)
        if digest in self.claimed:
            return False
        self.claimed.add(digest)
        self._owned.add(digest)
        return True

    def release(self, key):
        digest = _digest(key)
        if digest in self._owned:
            self._owned.discard(digest)
            self.claimed.discard(digest)

    def release_all(self):
        for digest in list(self._owned):
            self.release(digest)


class NullBackend(CacheBackend):
    """Remembers nothing, claims everything: every lookup misses
    (duplicate solves possible), every claim is granted (the audit
    proceeds), nothing stalls."""

    name = "null"

    def get(self, key):
        return None

    def put(self, key, **fields):
        pass

    def claim(self, key):
        return True

    def release(self, key):
        pass


def backend_for(cache_dir):
    """The default backend for a ``--cache-dir`` (``None`` stays ``None``)."""
    if cache_dir is None:
        return None
    if isinstance(cache_dir, CacheBackend):
        return cache_dir
    return LocalBackend(cache_dir)


__all__ = [
    "CacheBackend",
    "LocalBackend",
    "MemoryBackend",
    "NullBackend",
    "backend_for",
]
