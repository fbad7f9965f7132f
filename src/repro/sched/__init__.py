"""Algorithm 1 scheduling, inline or on a persistent worker pool.

Two layers:

* :mod:`~repro.sched.pool` — :class:`PersistentWorkerPool`: N check
  workers spawned once, each serving tasks over its own pipe — the one
  process-isolation mechanism (hard timeout kill + respawn,
  ``RLIMIT_AS`` at spawn, EOF-as-crash, a one-shot fork proxy for
  tasks that cannot be pickled).
* :mod:`~repro.sched.scheduler` — :class:`AuditScheduler`: the one
  orchestrator of Algorithm 1, a dynamic task DAG across registers and
  designs, run by an inline executor (``jobs=None``) or on the pool,
  with ordered assembly so the report does not depend on the executor,
  claim-locked cache coordination on the pool, early cancellation, and
  per-design telemetry subtrees.

Entry points: every ``TrojanDetector.run()`` goes through the scheduler
(``AuditConfig(jobs=N)`` picks the pool); :class:`AuditScheduler`
directly schedules many designs at once (the ``repro bench`` path).
"""

from repro.sched.pool import PersistentWorkerPool, PoolEvent
from repro.sched.scheduler import AuditRequest, AuditScheduler

__all__ = [
    "AuditRequest",
    "AuditScheduler",
    "PersistentWorkerPool",
    "PoolEvent",
]
