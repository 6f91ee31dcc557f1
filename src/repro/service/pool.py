"""Shared pool of long-lived solver backends, leased to one job at a time.

The paper's farm assumes one run owns the whole machine; the service layer
inverts that ownership.  A :class:`SolverPool` constructs its
:class:`~repro.parallel.backends.Backend` instances once and keeps them for
its own lifetime — jobs *lease* a backend for the duration of one solve and
hand it back warm.  Because ``Backend.start()`` on a live backend reuses
the existing workers (no-op for the same problem, in-place
``REBIND_TAG`` rebind for a new one — see :mod:`repro.parallel.backends`),
consecutive jobs on one slot never re-pay process spawn, and jobs on the
same instance never re-pay arena construction either.

Leasing is affinity-aware: :meth:`acquire` prefers a free slot whose last
job ran the same instance (by content hash), which is what makes the
64-concurrent-jobs-on-one-instance benchmark regime cheap — every lease
after the first K is a pure warm reuse.

All coordination is single-threaded asyncio (the
:class:`~repro.service.jobs.JobManager`'s loop); the blocking solve itself
runs in an executor thread while holding the lease.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Sequence

from ..core.instance import MKPInstance
from ..core.tabu_search import TabuSearchConfig
from ..parallel.backends import Backend, MultiprocessingBackend, SerialBackend

__all__ = ["BackendLease", "LeaseCancelled", "PoolSlot", "SolverPool"]


class LeaseCancelled(Exception):
    """``acquire`` abandoned because the requesting job was cancelled."""


@dataclass
class PoolSlot:
    """One long-lived backend plus its lease-affinity bookkeeping."""

    slot_id: int
    backend: Backend
    #: content hash of the instance the backend is currently bound to
    bound_hash: str | None = None
    #: jobs this slot has served since pool construction
    jobs_served: int = 0
    leased: bool = field(default=False, repr=False)


@dataclass(frozen=True)
class BackendLease:
    """Exclusive right to drive one pool slot's backend for one job."""

    slot: PoolSlot

    @property
    def backend(self) -> Backend:
        return self.slot.backend


class SolverPool:
    """Fixed-size pool of warm backends with affinity-aware async leasing."""

    def __init__(self, backends: Sequence[Backend]) -> None:
        if not backends:
            raise ValueError("pool needs at least one backend")
        n_slaves = {b.n_slaves for b in backends}
        if len(n_slaves) != 1:
            raise ValueError(f"pool backends must agree on n_slaves; got {n_slaves}")
        #: slaves per backend — every job in this pool runs at this width
        self.n_slaves = n_slaves.pop()
        self._slots = [PoolSlot(i, backend) for i, backend in enumerate(backends)]
        self._cond = asyncio.Condition()
        self._closed = False
        #: total leases granted
        self.leases = 0
        #: leases that landed on a slot already bound to the same instance
        self.affinity_hits = 0

    # ------------------------------------------------------------------ #
    # Constructors for the two standard backend kinds
    # ------------------------------------------------------------------ #
    @classmethod
    def serial(
        cls,
        size: int,
        n_slaves: int,
        **backend_kwargs: object,
    ) -> "SolverPool":
        """Pool of :class:`~repro.parallel.backends.SerialBackend` slots."""
        return cls([SerialBackend(n_slaves, **backend_kwargs) for _ in range(size)])

    @classmethod
    def multiprocessing(
        cls,
        size: int,
        n_slaves: int,
        **backend_kwargs: object,
    ) -> "SolverPool":
        """Pool of :class:`~repro.parallel.backends.MultiprocessingBackend` slots."""
        return cls(
            [MultiprocessingBackend(n_slaves, **backend_kwargs) for _ in range(size)]
        )

    @classmethod
    def socket(
        cls,
        size: int,
        n_slaves: int,
        *,
        local_workers: int = 0,
        mp_context: str = "fork",
        **backend_kwargs: object,
    ) -> "SolverPool":
        """Pool of :class:`~repro.parallel.backend_socket.SocketBackend` slots.

        Leases *network* capacity: each slot listens on its own (by default
        ephemeral) port, and any ``repro worker --connect`` agent — on this
        host or another — serves the jobs that lease the slot.  Workers may
        join or leave between (and during) jobs; the slot's logical width
        stays ``n_slaves``.  ``local_workers > 0`` additionally spawns that
        many worker processes per slot on this host, which makes the pool
        self-sufficient for tests and single-machine deployments.
        """
        from ..parallel.backend_socket import SocketBackend

        backends = []
        for _ in range(size):
            backend = SocketBackend(n_slaves, **backend_kwargs)
            backend.listen()
            if local_workers:
                backend.attach_local_workers(local_workers, mp_context=mp_context)
            backends.append(backend)
        return cls(backends)

    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return len(self._slots)

    @property
    def free(self) -> int:
        return sum(1 for s in self._slots if not s.leased)

    def _pick(self, instance_hash: str | None) -> PoolSlot | None:
        """Best free slot: same-instance affinity first, then LRU-ish order."""
        free = [s for s in self._slots if not s.leased]
        if not free:
            return None
        if instance_hash is not None:
            for slot in free:
                if slot.bound_hash == instance_hash:
                    self.affinity_hits += 1
                    return slot
        # Prefer a never-bound slot over evicting another instance's warm
        # state (that state may serve a later affinity hit).
        for slot in free:
            if slot.bound_hash is None:
                return slot
        return free[0]

    async def acquire(
        self,
        instance_hash: str | None = None,
        *,
        cancelled: "asyncio.Event | None" = None,
    ) -> BackendLease:
        """Lease a backend, waiting for a free slot.

        ``cancelled`` (optional) aborts the wait: when set, the call raises
        :class:`LeaseCancelled` instead of granting a lease — how a queued
        job's cancel is observed without ever touching a backend.
        """
        async with self._cond:
            while True:
                if self._closed:
                    raise RuntimeError("pool is shut down")
                if cancelled is not None and cancelled.is_set():
                    raise LeaseCancelled()
                slot = self._pick(instance_hash)
                if slot is not None:
                    slot.leased = True
                    self.leases += 1
                    return BackendLease(slot)
                await self._cond.wait()

    async def release(self, lease: BackendLease, *, bound_hash: str | None) -> None:
        """Return a leased backend to the pool, recording what it last ran."""
        async with self._cond:
            lease.slot.leased = False
            lease.slot.bound_hash = bound_hash
            lease.slot.jobs_served += 1
            self._cond.notify_all()

    async def kick(self) -> None:
        """Wake every waiter (used to surface a cancel to queued jobs)."""
        async with self._cond:
            self._cond.notify_all()

    def shutdown(self) -> None:
        """Shut down every backend (idempotent — so are the backends)."""
        self._closed = True
        for slot in self._slots:
            slot.backend.shutdown()

    def slots(self) -> list[PoolSlot]:
        """Snapshot of the slots (stats/diagnostics)."""
        return list(self._slots)

    def prewarm(self, instance: MKPInstance, config: TabuSearchConfig | None = None) -> None:
        """Optionally bind every idle backend to ``instance`` ahead of load.

        Purely an optimization for a known-hot instance (e.g. the benchmark
        regime); leasing remains correct without it.
        """
        config = config or TabuSearchConfig()
        for slot in self._slots:
            if not slot.leased:
                slot.backend.start(instance, config)
                slot.bound_hash = instance.content_hash()
