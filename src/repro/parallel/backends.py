"""Execution backends for one master–slave search round.

A *backend* places up to ``P`` slave tasks, executes them, and returns the
reports of the slaves that survived the round, sorted by slave id.  Two
implementations:

:class:`SerialBackend`
    Runs slaves inline, one after the other, but still routes every task
    and report through the :class:`~repro.parallel.comm.MessageRouter`, so
    the communication pattern (and its byte volume) is identical to a real
    run.  This is also the engine of the *simulated farm*: the master
    driver converts the reports' evaluation counts and the router's byte
    counts into virtual time.

:class:`MultiprocessingBackend`
    Persistent worker processes connected by private duplex pipes, speaking
    the same tagged message protocol as :class:`~repro.parallel.shm.WireCodec`
    frames via :class:`~repro.parallel.shm.ShmComm`.
    This is the real-parallelism path (the Python GIL forces processes, not
    threads — see DESIGN.md).

Both produce bit-identical reports for identical tasks (same seeds), which
``tests/test_backends.py`` asserts — the property that makes the simulated
results transferable to real parallel hardware.

Warm runtimes (DESIGN.md §5.4): with ``warm_runtime=True`` (the default)
each slave owns one :class:`~repro.parallel.runtime.SlaveRuntime` for the
life of the backend — built at ``start()`` (serial) or at worker spawn
(multiprocessing) — and every task resets the cached arena in place instead
of reconstructing kernels and tabu structures per round.  Trajectories are
bit-identical either way (``tests/test_runtime.py``); the flag exists so
benchmarks can A/B the cold path.

Byte accounting: every task and report is charged at its
:class:`~repro.parallel.shm.WireCodec` frame length — the bytes the
multiprocessing backend puts on its worker pipes — so serial, pipe and
socket runs book identical ledgers and virtual seconds.

Service leasing (DESIGN.md §5.6): backends may outlive a single run.
``start()`` on an already-started backend never respawns — the same problem
(by :meth:`~repro.core.instance.MKPInstance.content_hash`) is a no-op that
keeps the warm arenas, a different problem rebinds live workers in place
(serial: rebuilt runtimes; multiprocessing: one ``REBIND_TAG`` message per
worker) — and ``shutdown()`` is idempotent, so a
:class:`~repro.service.SolverPool` can lease one backend to many
consecutive jobs with trajectories bit-identical to cold backends.

Gather (multiprocessing): a single ``multiprocessing.connection.wait()``
event loop with one round deadline replaces the old rank-ordered
``recv(timeout)`` chain.  Reports are consumed in arrival order (the return
value is still sorted), scheduled duplicates drain through the same select
with no fixed grace sleep, and dead or silent workers are buried from the
same loop without ever blocking a live one behind a slow rank.

Fault tolerance (DESIGN.md §"Fault model"): both backends accept a
:class:`~repro.parallel.faults.FaultPlan` that deterministically injects
slave crashes, dropped/duplicated/delayed messages and stragglers; a round's
return value then simply omits the reports the faults destroyed.  Task
entries may be ``None`` — the master uses that to keep a crashed slave in
exponential backoff.

Observability (DESIGN.md §5.5): after each round both backends publish one
typed :class:`~repro.obs.telemetry.RoundTelemetry` record
(``last_telemetry``) carrying the wall-clock phase split, per-slave gather
idle, master blocked time and the byte ledgers — the master consumes that
record (via :func:`~repro.obs.telemetry.collect_round_telemetry`) instead
of scraping attributes.  The legacy per-field attributes
(``last_phase_seconds``, ``last_gather_idle_s``, ``last_master_wait_s``,
``phase_totals``) remain as the raw measurement store and for third-party
consumers; ``benchmarks/bench_round_overhead.py`` builds on them.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import Counter, deque
from multiprocessing import connection as mp_connection
from typing import Protocol, Sequence

from ..core.instance import MKPInstance
from ..core.tabu_search import TabuSearchConfig
from ..obs.telemetry import RoundTelemetry
from .comm import CommClosedError, InProcComm, MessageRouter, PipeComm
from .faults import ChaosComm, FaultPlan
from .message import REBIND_TAG, RESULT_TAG, STOP_TAG, TASK_TAG, SlaveReport, SlaveTask
from .runtime import SlaveRuntime
from .shm import ShmComm, WireCodec
from .slave import execute_task

__all__ = ["Backend", "SerialBackend", "MultiprocessingBackend"]

#: Phase keys every backend reports in ``last_phase_seconds``.
PHASE_KEYS = ("scatter", "compute", "gather")


class Backend(Protocol):
    """Round-based slave executor."""

    n_slaves: int

    def start(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Distribute the problem data (Fig. 2: 'Read and send to slaves')."""
        ...  # pragma: no cover

    def run_round(self, tasks: Sequence[SlaveTask | None]) -> list[SlaveReport]:
        """Execute one search round; ``None`` entries sit the round out.

        Returns the reports that actually arrived (possibly fewer than the
        number of tasks placed, never more than one accepted per send).
        """
        ...  # pragma: no cover

    def shutdown(self) -> None:
        """Release workers/resources."""
        ...  # pragma: no cover


def _validate_round(tasks: Sequence[SlaveTask | None], n_slaves: int) -> None:
    if len(tasks) != n_slaves:
        raise ValueError(f"expected {n_slaves} tasks; got {len(tasks)}")


def _round_index_of(tasks: Sequence[SlaveTask | None]) -> int:
    return next((t.round_index for t in tasks if t is not None), -1)


def _same_problem(
    bound_instance: MKPInstance,
    bound_config: TabuSearchConfig | None,
    instance: MKPInstance,
    config: TabuSearchConfig,
) -> bool:
    """Whether a live backend's bound problem matches a ``start()`` request.

    Instance comparison is by identity first (the common warm-lease case —
    the :class:`~repro.service.cache.InstanceCache` hands out one canonical
    object) and by content hash otherwise; the structural config compares
    by value (plain dataclass equality — it carries no arrays).
    """
    if bound_config != config:
        return False
    if bound_instance is instance:
        return True
    return bound_instance.content_hash() == instance.content_hash()


class SerialBackend:
    """In-process backend; the substrate of the simulated farm.

    Rank convention: slaves are ranks ``0..P-1``, the master is rank ``P``.
    With a non-empty ``fault_plan`` the report path of every slave is
    wrapped in a :class:`~repro.parallel.faults.ChaosComm`; the no-fault
    construction is byte-for-byte the original pipeline.

    With ``warm_runtime=True`` each slave id keeps one
    :class:`~repro.parallel.runtime.SlaveRuntime` across rounds (built at
    :meth:`start`); ``False`` reconstructs per task via
    :func:`~repro.parallel.slave.execute_task`, the pre-warm behaviour.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        fault_plan: FaultPlan | None = None,
        warm_runtime: bool = True,
    ) -> None:
        if n_slaves < 1:
            raise ValueError("n_slaves must be >= 1")
        self.n_slaves = int(n_slaves)
        self.fault_plan = fault_plan or FaultPlan.none()
        self.warm_runtime = bool(warm_runtime)
        #: sizes every message at its wire frame length (the bytes the
        #: multiprocessing and socket backends ship for the same message)
        self.codec = WireCodec(0)
        self.router = MessageRouter(nbytes=self.codec.frame_nbytes)
        self.master_comm = InProcComm(self.router, rank=n_slaves)
        self._slave_comms = [InProcComm(self.router, rank=k) for k in range(n_slaves)]
        if self.fault_plan.is_empty:
            self._report_comms: list[InProcComm | ChaosComm] = list(self._slave_comms)
        else:
            self._report_comms = [
                ChaosComm(comm, self.fault_plan, direction="report")
                for comm in self._slave_comms
            ]
        self._instance: MKPInstance | None = None
        self._config: TabuSearchConfig | None = None
        self._runtimes: list[SlaveRuntime] = []
        #: ``start()`` calls that found live warm state already bound to the
        #: same problem and kept it (DESIGN.md §5.6 — the warm-lease path)
        self.warm_reuses = 0
        #: ``start()`` calls that rebound live state to a *different* problem
        self.rebinds = 0
        #: per-round message sizes by slave id, for the farm's scatter/gather model
        self.last_task_nbytes: dict[int, int] = {}
        self.last_report_nbytes: dict[int, int] = {}
        #: per-round straggler slowdown factors by slave id (virtual time)
        self.last_slowdowns: dict[int, float] = {}
        #: cumulative injected-fault tally (diagnostics for the chaos suite)
        self.fault_counters: Counter[str] = Counter()
        #: wall-clock split of the last round over ``PHASE_KEYS``
        self.last_phase_seconds: dict[str, float] = {}
        #: seconds from gather start to each slave's first accepted report
        self.last_gather_idle_s: dict[int, float] = {}
        #: master wall time blocked waiting on slaves (0 for inline slaves)
        self.last_master_wait_s: float = 0.0
        #: cumulative phase wall time across rounds (plus ``master_wait``)
        self.phase_totals: Counter[str] = Counter()
        #: typed telemetry record of the last round (DESIGN.md §5.5)
        self.last_telemetry: RoundTelemetry | None = None
        #: pipelined-mode arrival queue: ``(report, payload_nbytes)`` in
        #: dispatch order (inline execution makes arrival order equal
        #: dispatch order, which is what makes async serial replay
        #: seeded-deterministic — DESIGN.md §5.9)
        self._pending: deque[tuple[SlaveReport, int]] = deque()

    def start(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Bind the backend to a problem; idempotent on a live backend.

        Re-``start()``-ing an already-started backend on the same problem
        data (by :meth:`~repro.core.instance.MKPInstance.content_hash`) and
        config keeps the warm runtimes — this is how a leased backend
        serves many jobs without re-paying arena construction.  A different
        problem rebuilds the runtimes in place.  Either way the resulting
        trajectories are bit-identical to a cold backend (every task rebinds
        the arena before running; ``tests/test_service.py`` pins this).
        """
        if (
            self._instance is not None
            and _same_problem(self._instance, self._config, instance, config)
        ):
            self.warm_reuses += 1
            return
        if self._instance is not None:
            self.rebinds += 1
        self._instance = instance
        self._config = config
        self.codec.n_items = instance.n_items
        self._runtimes = (
            [SlaveRuntime(instance, config, slave_id=k) for k in range(self.n_slaves)]
            if self.warm_runtime
            else []
        )

    def _execute(self, k: int, task: SlaveTask) -> SlaveReport:
        assert self._instance is not None and self._config is not None
        runtime = self._runtimes[k] if self._runtimes else None
        return execute_task(
            self._instance, self._config, task, slave_id=k, runtime=runtime
        )

    def run_round(self, tasks: Sequence[SlaveTask | None]) -> list[SlaveReport]:
        if self._instance is None or self._config is None:
            raise RuntimeError("backend not started: call start() first")
        _validate_round(tasks, self.n_slaves)
        plan = self.fault_plan
        self.last_task_nbytes = {}
        self.last_report_nbytes = {}
        self.last_slowdowns = {}
        self.last_gather_idle_s = {}
        self.last_master_wait_s = 0.0
        # Reports the chaos layer delayed in an earlier round arrive now,
        # stale — the hardened master must discard them by seq id.
        for comm in self._report_comms:
            if isinstance(comm, ChaosComm):
                comm.flush_delayed()
        t_scatter = time.perf_counter()
        # Scatter phase: master -> slaves.
        for k, task in enumerate(tasks):
            if task is None:
                continue
            if plan.drops_task(task.round_index, k):
                self.fault_counters["drop_task"] += 1
                continue
            self.master_comm.send(task, dest=k, tag=TASK_TAG)
            self.last_task_nbytes[k] = self.master_comm.last_payload_nbytes
        t_compute = time.perf_counter()
        # Compute + report phase (inline execution).
        for k in range(self.n_slaves):
            while self._slave_comms[k].probe(TASK_TAG):
                task = self._slave_comms[k].recv(source=self.n_slaves, tag=TASK_TAG)
                if plan.crashes(task.round_index, k):
                    # The slave dies mid-round: the task is consumed, no
                    # report is produced.  (A fresh "process" serves the
                    # next round; warm state is rebound per task anyway.)
                    self.fault_counters["crash"] += 1
                    continue
                report = self._execute(k, task)
                factor = plan.straggle_factor(task.round_index, k)
                if factor != 1.0:
                    self.fault_counters["straggle"] += 1
                    self.last_slowdowns[k] = factor
                self._report_comms[k].send(report, dest=self.n_slaves, tag=RESULT_TAG)
        t_gather = time.perf_counter()
        # Gather phase: drain every report that actually arrived (including
        # duplicates and releases of previously delayed messages).
        reports: list[SlaveReport] = []
        while self.master_comm.probe(RESULT_TAG):
            report = self.master_comm.recv(source=-1, tag=RESULT_TAG)
            self.last_report_nbytes[report.slave_id] = (
                self.last_report_nbytes.get(report.slave_id, 0)
                + self.master_comm.last_payload_nbytes
            )
            self.last_gather_idle_s.setdefault(
                report.slave_id, time.perf_counter() - t_gather
            )
            reports.append(report)
        t_end = time.perf_counter()
        self.last_phase_seconds = {
            "scatter": t_compute - t_scatter,
            "compute": t_gather - t_compute,
            "gather": t_end - t_gather,
        }
        self.phase_totals.update(self.last_phase_seconds)
        self.last_telemetry = RoundTelemetry(
            round_index=_round_index_of(tasks),
            phase_seconds=dict(self.last_phase_seconds),
            gather_idle_s=dict(self.last_gather_idle_s),
            master_wait_s=self.last_master_wait_s,
            task_nbytes=dict(self.last_task_nbytes),
            report_nbytes=dict(self.last_report_nbytes),
            slowdowns=dict(self.last_slowdowns),
        )
        reports.sort(key=lambda r: (r.slave_id, r.seq_id))
        return reports

    # ------------------------------------------------------------------ #
    # Pipelined (bounded-staleness) API — DESIGN.md §5.9.  One task in,
    # reports out in arrival order; the master owns windows and staleness.

    def _drain_arrivals(self) -> None:
        while self.master_comm.probe(RESULT_TAG):
            report = self.master_comm.recv(source=-1, tag=RESULT_TAG)
            self._pending.append((report, self.master_comm.last_payload_nbytes))

    def dispatch(self, slave_id: int, task: SlaveTask) -> int:
        """Send one task to one slave; returns the task payload bytes.

        Inline execution: the slave runs immediately and its report (unless
        a fault destroys it) is queued for :meth:`next_report` before this
        returns.  Reports a delay fault held from an earlier burst flush
        first, so per-slave arrival order stays monotone in burst index —
        the invariant the async master's loss detection rests on.
        """
        if self._instance is None or self._config is None:
            raise RuntimeError("backend not started: call start() first")
        k = slave_id
        plan = self.fault_plan
        report_comm = self._report_comms[k]
        if isinstance(report_comm, ChaosComm):
            report_comm.flush_delayed()
        if plan.drops_task(task.round_index, k):
            self.fault_counters["drop_task"] += 1
            self._drain_arrivals()
            return 0
        self.master_comm.send(task, dest=k, tag=TASK_TAG)
        nbytes = self.master_comm.last_payload_nbytes
        self.last_task_nbytes[k] = nbytes
        self._slave_comms[k].recv(source=self.n_slaves, tag=TASK_TAG)
        if plan.crashes(task.round_index, k):
            # Inline "process death": the task is consumed, no report.
            self.fault_counters["crash"] += 1
        else:
            report = self._execute(k, task)
            factor = plan.straggle_factor(task.round_index, k)
            if factor != 1.0:
                self.fault_counters["straggle"] += 1
                self.last_slowdowns[k] = factor
            report_comm.send(report, dest=self.n_slaves, tag=RESULT_TAG)
        self._drain_arrivals()
        return nbytes

    def next_report(
        self, timeout_s: float | None = None
    ) -> tuple[SlaveReport, int] | None:
        """Pop the next ``(report, payload_nbytes)`` pair, or ``None``.

        Slaves run inline, so nothing can arrive *later*: an empty queue is
        final and the timeout is irrelevant — ``None`` returns immediately,
        which is exactly what lets the async master's timeout policy run
        deterministically under serial replay.
        """
        del timeout_s  # inline slaves: arrival already happened or never will
        self._drain_arrivals()
        if self._pending:
            return self._pending.popleft()
        return None

    def drain_dead_slaves(self) -> list[int]:
        """Slaves lost since the last call (inline slaves never die)."""
        return []

    def shutdown(self) -> None:
        """Release the warm runtimes; idempotent, and ``start()`` revives.

        Safe to call any number of times (including before ``start()``);
        after a shutdown the backend is simply unbound and a later
        ``start()`` rebuilds it from scratch.
        """
        self._runtimes = []
        self._instance = None
        self._config = None
        self._pending.clear()

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


#: Worker straggler injection sleeps ``_STRAGGLE_SLEEP_S * (factor - 1)``
#: wall seconds, capped — long enough to trip a short gather timeout in the
#: chaos tests, short enough to keep the suite fast.
_STRAGGLE_SLEEP_S = 0.05
_MAX_STRAGGLE_SLEEP_S = 1.0


def _straggle(fault_plan: FaultPlan, round_index: int, slave_id: int) -> None:
    factor = fault_plan.straggle_factor(round_index, slave_id)
    if factor > 1.0:
        time.sleep(min(_STRAGGLE_SLEEP_S * (factor - 1.0), _MAX_STRAGGLE_SLEEP_S))


def _worker_main(
    conn: "mp.connection.Connection",
    instance: MKPInstance,
    config: TabuSearchConfig,
    slave_id: int,
    fault_plan: FaultPlan,
    warm_runtime: bool = True,
) -> None:
    """Worker process entry point: serve tasks until the stop sentinel.

    The fault plan travels to the worker so crash/drop faults happen on the
    worker side of the wire — the master only ever observes their symptoms
    (silence), exactly as with a real failing host.

    Two task shapes arrive: a single task (the sync round) answered by zero
    or more single reports, and a one-entry batch envelope (the async
    ``dispatch``) answered by exactly one report batch, empty when a fault
    destroyed the report.

    Delayed reports (``FaultKind.DELAY_REPORT``) are *held*, not slept on:
    they leave with the next round's traffic, so a delay fault costs the
    master zero gather wall time and is charged to the farm clock on the
    round the stale bytes actually arrive (see ``tests/test_wall_clock.py``).
    """
    comm = ShmComm(PipeComm(conn), WireCodec(instance.n_items))
    runtime = (
        SlaveRuntime(instance, config, slave_id=slave_id) if warm_runtime else None
    )
    #: reports a delay fault held back, flushed with the next round's sends
    held: list[SlaveReport] = []

    def serve(task: SlaveTask) -> tuple[list[SlaveReport], bool]:
        """Run one task under the plan: ``(copies to deliver, held back?)``."""
        if fault_plan.crashes(task.round_index, slave_id):
            # Hard crash: no cleanup, no reply, nonzero exit code.
            os._exit(17)
        report = execute_task(instance, config, task, slave_id, runtime=runtime)
        _straggle(fault_plan, task.round_index, slave_id)
        if fault_plan.drops_report(task.round_index, slave_id):
            return [], False  # the report is lost in flight
        copies = 2 if fault_plan.duplicates_report(task.round_index, slave_id) else 1
        return [report] * copies, fault_plan.delays_report(task.round_index, slave_id)

    try:
        while True:
            tag, obj = comm.recv_message()
            if tag == STOP_TAG:
                return
            if tag == REBIND_TAG:
                # The backend was re-started on a new problem: rebuild the
                # warm arena here, once, in place of a process respawn.
                # Pipe ordering guarantees every later task sees the new
                # instance, so this needs no acknowledgement round-trip.
                instance, config = obj
                comm.codec.n_items = instance.n_items
                held = []
                if runtime is not None:
                    runtime = SlaveRuntime(instance, config, slave_id=slave_id)
                continue
            if tag != TASK_TAG:  # pragma: no cover - protocol guard
                raise RuntimeError(f"worker {slave_id}: unexpected tag {tag}")
            if isinstance(obj, list):
                # Batch envelope: one message in, one message out — always
                # sent, even when faults emptied it.
                out, held = held, []
                entries: list[tuple[int, SlaveTask]] = obj
                if runtime is not None and fault_plan.is_empty:
                    out.extend(
                        runtime.execute_batch(
                            [t for _, t in entries], [k for k, _ in entries]
                        )
                    )
                else:
                    for _k, task in entries:
                        copies, delayed = serve(task)
                        (held if delayed else out).extend(copies)
                comm.send_reports(out)
                continue
            # Single task.  Stale deliveries first: reports a delay fault
            # held from an earlier round ride out as soon as the worker
            # wakes for a new task.
            for stale in held:
                comm.send(stale, tag=RESULT_TAG)
            copies, delayed = serve(obj)
            held = copies if delayed else []
            if not delayed:
                for report in copies:
                    comm.send(report, tag=RESULT_TAG)
    except (EOFError, BrokenPipeError, CommClosedError):  # pragma: no cover - master died
        pass
    finally:
        comm.close()


class MultiprocessingBackend:
    """Real process-parallel backend (PVM stand-in; mpi4py idiom over pipes).

    One worker process per slave, forked once per run and reused across
    rounds, so the problem data crosses the process boundary a single time
    — the same optimization the paper's master applies ("Read and send to
    slaves problem data" once, outside the round loop) — and, with
    ``warm_runtime`` (default), each worker also builds its search arena
    once at spawn and rebinds it per task.

    Carrier: every task and report travels as a
    :class:`~repro.parallel.shm.WireCodec` frame in-band on the worker's
    duplex pipe (:class:`~repro.parallel.shm.ShmComm`); only the STOP and
    REBIND control messages are pickled.

    Hardened: the gather is one ``connection.wait()`` event loop bounded by
    a single ``round_timeout_s`` deadline for the whole round; reports fold
    in as they arrive, so a slow or dead rank never delays a fast one.  A
    worker that stays silent past the deadline or breaks its pipe is
    terminated and respawned (``respawns`` counts them), and the round
    returns without its report instead of deadlocking the Fig. 2 barrier.
    """

    def __init__(
        self,
        n_slaves: int,
        *,
        mp_context: str = "fork",
        fault_plan: FaultPlan | None = None,
        round_timeout_s: float | None = 60.0,
        warm_runtime: bool = True,
        shutdown_timeout_s: float = 10.0,
    ) -> None:
        if n_slaves < 1:
            raise ValueError("n_slaves must be >= 1")
        if round_timeout_s is not None and round_timeout_s <= 0:
            raise ValueError("round_timeout_s must be positive (or None)")
        if shutdown_timeout_s <= 0:
            raise ValueError("shutdown_timeout_s must be positive")
        self.n_slaves = int(n_slaves)
        self.fault_plan = fault_plan or FaultPlan.none()
        self.round_timeout_s = round_timeout_s
        self.warm_runtime = bool(warm_runtime)
        self.shutdown_timeout_s = float(shutdown_timeout_s)
        self._ctx = mp.get_context(mp_context)
        self._procs: list[mp.Process | None] = []
        self._comms: list[ShmComm | None] = []
        #: reports a delay fault will hold at the worker, owed next round
        self._stale_due: Counter[int] = Counter()
        self._instance: MKPInstance | None = None
        self._config: TabuSearchConfig | None = None
        self.last_task_nbytes: dict[int, int] = {}
        self.last_report_nbytes: dict[int, int] = {}
        #: respawn count per slave id (the chaos suite asserts recovery)
        self.respawns: Counter[int] = Counter()
        self.fault_counters: Counter[str] = Counter()
        #: ``start()`` calls served by live workers with no reship needed
        self.warm_reuses = 0
        #: ``start()`` calls that rebound live workers to a new problem
        self.rebinds = 0
        #: wall-clock split of the last round; on this backend ``compute``
        #: is the latency to the *first* report (the fastest slave) and is
        #: contained in ``gather``, which runs to the last accepted report.
        self.last_phase_seconds: dict[str, float] = {}
        #: seconds from gather start to each slave's first accepted report
        #: (silent slaves get the full gather wall — their cost to the round)
        self.last_gather_idle_s: dict[int, float] = {}
        #: master wall time blocked inside ``connection.wait``
        self.last_master_wait_s: float = 0.0
        #: cumulative phase wall time across rounds (plus ``master_wait``)
        self.phase_totals: Counter[str] = Counter()
        #: typed telemetry record of the last round (DESIGN.md §5.5)
        self.last_telemetry: RoundTelemetry | None = None
        #: pipelined-mode arrival buffer: ``(report, nbytes)`` pairs drained
        #: from worker pipes in arrival order, ahead of master consumption
        self._report_buffer: deque[tuple[SlaveReport, int]] = deque()
        #: slave ids whose worker died since the last ``drain_dead_slaves()``
        self._dead_slaves: set[int] = set()

    # ------------------------------------------------------------------ #
    def _spawn(self, k: int) -> None:
        assert self._instance is not None and self._config is not None
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._instance,
                self._config,
                k,
                self.fault_plan,
                self.warm_runtime,
            ),
            daemon=True,
            name=f"repro-slave-{k}",
        )
        proc.start()
        child_conn.close()
        self._procs[k] = proc
        self._comms[k] = ShmComm(PipeComm(parent_conn), WireCodec(self._instance.n_items))

    def _bury(self, k: int) -> None:
        """Terminate worker ``k`` and close its pipe."""
        proc = self._procs[k]
        if proc is not None:
            if proc.is_alive():  # pragma: no branch
                proc.terminate()
            proc.join(timeout=5)
            self._procs[k] = None
        comm = self._comms[k]
        if comm is not None:
            comm.close()
            self._comms[k] = None
        self._stale_due.pop(k, None)

    def _ensure_alive(self, k: int) -> ShmComm:
        """Respawn worker ``k`` if it is dead; return its live endpoint."""
        proc = self._procs[k]
        if proc is None or not proc.is_alive():
            self._bury(k)
            self._spawn(k)
            self.respawns[k] += 1
        comm = self._comms[k]
        assert comm is not None
        return comm

    # ------------------------------------------------------------------ #
    def start(self, instance: MKPInstance, config: TabuSearchConfig) -> None:
        """Bind the workers to a problem; reuses live workers when possible.

        On a cold backend this spawns the worker fleet (problem data crosses
        the process boundary once, at spawn).  On an already-started backend
        it *never* respawns: the same problem (by content hash) and config is
        a no-op — the workers' warm arenas stay valid — and a different
        problem ships one :data:`~repro.parallel.message.REBIND_TAG` message
        per live worker, which rebuilds its ``SlaveRuntime`` in place.  Dead
        workers are left to the round loop's lazy respawn, which picks up the
        new problem from the updated backend fields.
        """
        if self._procs:
            if _same_problem(self._instance, self._config, instance, config):
                self.warm_reuses += 1
                return
            self.rebinds += 1
            self._instance = instance
            self._config = config
            self._stale_due.clear()
            for k in range(self.n_slaves):
                comm = self._comms[k]
                proc = self._procs[k]
                if comm is None or comm.closed or proc is None or not proc.is_alive():
                    continue  # lazily respawned (with the new problem) on use
                try:
                    comm.send((instance, config), tag=REBIND_TAG)
                    comm.codec.n_items = instance.n_items
                except (BrokenPipeError, OSError, CommClosedError):
                    self._bury(k)
            return
        self._instance = instance
        self._config = config
        self._procs = [None] * self.n_slaves
        self._comms = [None] * self.n_slaves
        for k in range(self.n_slaves):
            self._spawn(k)

    def run_round(self, tasks: Sequence[SlaveTask | None]) -> list[SlaveReport]:
        if not self._procs:
            raise RuntimeError("backend not started: call start() first")
        _validate_round(tasks, self.n_slaves)
        plan = self.fault_plan
        self.last_task_nbytes = {}
        self.last_report_nbytes = {}
        self.last_gather_idle_s = {}
        self.last_master_wait_s = 0.0
        t_scatter = time.perf_counter()
        # Scatter: non-blocking from the master's perspective (pipes buffer).
        expected: dict[int, int] = {}
        for k, task in enumerate(tasks):
            if task is None:
                continue
            try:
                comm = self._ensure_alive(k)
                before = comm.bytes_sent
                comm.send(task, tag=TASK_TAG)
                self.last_task_nbytes[k] = comm.bytes_sent - before
                # The plan is shared with the worker, so the master knows
                # exactly how many report messages this round's task
                # produces *now*: any stale reports the worker held from a
                # delay fault flush first, a duplicate adds a copy, and a
                # delayed report adds nothing this round — it becomes stale
                # debt charged when it arrives.
                n_expected = self._stale_due.pop(k, 0)
                copies = 2 if plan.duplicates_report(task.round_index, k) else 1
                if plan.delays_report(task.round_index, k):
                    self._stale_due[k] += copies
                else:
                    n_expected += copies
                expected[k] = n_expected
            except (BrokenPipeError, OSError, CommClosedError):
                # The worker died between liveness check and send; the
                # round proceeds without it and the next round respawns.
                self.fault_counters["send_failed"] += 1
                self._bury(k)
        # Gather: one multiplexed event loop over every outstanding pipe,
        # bounded by a single whole-round deadline.  Messages are consumed
        # in arrival order; a slow worker never blocks a fast one.
        t_gather = time.perf_counter()
        deadline = (
            None if self.round_timeout_s is None else t_gather + self.round_timeout_s
        )
        got: Counter[int] = Counter()
        pending = {
            k for k, n in expected.items() if n > 0 and self._comms[k] is not None
        }
        reports: list[SlaveReport] = []
        first_report_s: float | None = None
        wait_s = 0.0
        while pending:
            live = {}
            for k in pending:
                comm = self._comms[k]
                if comm is not None and not comm.closed:
                    live[comm.connection] = k
            if not live:
                break
            timeout = None
            if deadline is not None:
                timeout = deadline - time.perf_counter()
                if timeout <= 0.0:
                    break
            t_wait = time.perf_counter()
            ready = mp_connection.wait(list(live), timeout)
            wait_s += time.perf_counter() - t_wait
            if not ready:
                break  # round deadline expired with workers still silent
            for raw in ready:
                k = live[raw]
                comm = self._comms[k]
                if comm is None or comm.closed:  # pragma: no cover - raced bury
                    pending.discard(k)
                    continue
                try:
                    while True:
                        obj = comm.recv(tag=RESULT_TAG)
                        now = time.perf_counter()
                        if first_report_s is None:
                            first_report_s = now - t_gather
                        batch = obj if isinstance(obj, list) else [obj]
                        for report, nbytes in zip(batch, comm.last_entry_nbytes):
                            self.last_gather_idle_s.setdefault(
                                report.slave_id, now - t_gather
                            )
                            self.last_report_nbytes[report.slave_id] = (
                                self.last_report_nbytes.get(report.slave_id, 0)
                                + nbytes
                            )
                            reports.append(report)
                        got[k] += 1
                        if got[k] >= expected[k]:
                            pending.discard(k)
                            break
                        if not comm.poll(0.0):
                            break  # duplicate still in flight; select again
                except (EOFError, OSError, CommClosedError):
                    # The worker died mid-round.  Messages it delivered
                    # before dying still count; total silence is a loss.
                    if got[k] == 0:
                        self.fault_counters["gather_lost"] += 1
                    self._bury(k)
                    pending.discard(k)
        # Deadline expired: bury only the workers that produced nothing.  A
        # worker whose scheduled duplicate never surfaced is still alive and
        # keeps its accepted report (idempotency is the master's job).
        t_end = time.perf_counter()
        for k in pending:
            if got[k] == 0:
                self.fault_counters["gather_lost"] += 1
                self._bury(k)
                self.last_gather_idle_s.setdefault(k, t_end - t_gather)
        self.last_master_wait_s = wait_s
        self.last_phase_seconds = {
            "scatter": t_gather - t_scatter,
            "compute": first_report_s if first_report_s is not None else 0.0,
            "gather": t_end - t_gather,
        }
        self.phase_totals.update(self.last_phase_seconds)
        self.phase_totals["master_wait"] += wait_s
        self.last_telemetry = RoundTelemetry(
            round_index=_round_index_of(tasks),
            phase_seconds=dict(self.last_phase_seconds),
            gather_idle_s=dict(self.last_gather_idle_s),
            master_wait_s=self.last_master_wait_s,
            task_nbytes=dict(self.last_task_nbytes),
            report_nbytes=dict(self.last_report_nbytes),
        )
        reports.sort(key=lambda r: (r.slave_id, r.seq_id))
        return reports

    # ------------------------------------------------------------------ #
    # Pipelined (bounded-staleness) API — DESIGN.md §5.9.

    def dispatch(self, slave_id: int, task: SlaveTask) -> int:
        """Send one task to one slave without waiting for any report.

        The task travels as a single-entry *batch* envelope, so the worker
        always answers with one batch message — possibly empty when a drop
        fault destroyed the report, which keeps the pipe's message-per-task
        cadence intact.  A dead worker is respawned lazily here; if the send
        itself fails the slave is queued for :meth:`drain_dead_slaves` and 0
        is returned.
        """
        if not self._procs:
            raise RuntimeError("backend not started: call start() first")
        try:
            comm = self._ensure_alive(slave_id)
            sizes = comm.send_tasks([(slave_id, task)])
            nbytes = sizes.get(slave_id, 0)
            self.last_task_nbytes[slave_id] = nbytes
            return nbytes
        except (BrokenPipeError, OSError, CommClosedError):
            self.fault_counters["send_failed"] += 1
            self._dead_slaves.add(slave_id)
            self._bury(slave_id)
            return 0

    def next_report(
        self, timeout_s: float | None = None
    ) -> tuple[SlaveReport, int] | None:
        """Wait for the next ``(report, payload_nbytes)`` pair in arrival order.

        One multiplexed ``connection.wait`` over every live worker pipe;
        queued messages are drained eagerly (``poll(0.0)`` loop) so a
        burst of arrivals costs one select.  Returns ``None`` when the
        timeout expires with nothing buffered, when no worker is left
        alive, or when a worker died during the wait (so the caller can
        observe the loss via :meth:`drain_dead_slaves` without blocking for
        the full timeout).  Worker death mid-drain buries the worker and
        records its slaves; reports it delivered before dying still count.
        """
        if self._report_buffer:
            return self._report_buffer.popleft()
        if not self._procs:
            return None
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        n_dead_before = len(self._dead_slaves)
        while True:
            live: dict[object, int] = {}
            for k in range(self.n_slaves):
                comm = self._comms[k]
                if comm is not None and not comm.closed:
                    live[comm.connection] = k
            if not live:
                return None
            timeout = None
            if deadline is not None:
                timeout = deadline - time.perf_counter()
                if timeout <= 0.0:
                    return None
            t_wait = time.perf_counter()
            ready = mp_connection.wait(list(live), timeout)
            self.last_master_wait_s = time.perf_counter() - t_wait
            if not ready:
                return None  # deadline expired with every worker silent
            for raw in ready:
                k = live[raw]
                comm = self._comms[k]
                if comm is None or comm.closed:  # pragma: no cover - raced bury
                    continue
                try:
                    while comm.poll(0.0):
                        obj = comm.recv(tag=RESULT_TAG)
                        batch = obj if isinstance(obj, list) else [obj]
                        for report, nbytes in zip(batch, comm.last_entry_nbytes):
                            self.last_report_nbytes[report.slave_id] = (
                                self.last_report_nbytes.get(report.slave_id, 0)
                                + nbytes
                            )
                            self._report_buffer.append((report, nbytes))
                except (EOFError, OSError, CommClosedError):
                    self.fault_counters["gather_lost"] += 1
                    self._dead_slaves.add(k)
                    self._bury(k)
            if self._report_buffer:
                return self._report_buffer.popleft()
            if len(self._dead_slaves) > n_dead_before:
                return None  # surface the loss instead of re-waiting
            # Only empty batches (drop faults) arrived; keep waiting.

    def drain_dead_slaves(self) -> list[int]:
        """Slave ids lost since the last call (send/gather failures).

        Consuming: the set is cleared.  Buffered reports those slaves
        delivered before dying remain valid and still surface through
        :meth:`next_report` — death invalidates the *in-flight*, not the
        already-arrived.
        """
        dead = sorted(self._dead_slaves)
        self._dead_slaves.clear()
        return dead

    def shutdown(self) -> None:
        """Stop every worker, bounded by one shared deadline.

        Signals *all* workers first, then joins each against the remaining
        budget of a single ``shutdown_timeout_s`` window — P hung workers
        cost the deadline once, not ``P × 10`` seconds of sequential joins.
        Whoever is still alive afterwards is terminated.

        Idempotent by contract (``tests/test_backends.py`` pins it): calling
        it twice, before ``start()``, or after workers already died/were
        buried is a no-op beyond releasing whatever is still held, and a
        later ``start()`` spawns a fresh fleet.
        """
        if not self._procs and not self._comms:
            return
        for comm in self._comms:
            if comm is None or comm.closed:
                continue
            try:
                comm.send(None, tag=STOP_TAG)
            except (BrokenPipeError, OSError, CommClosedError):  # pragma: no cover - dead worker
                pass
        deadline = time.monotonic() + self.shutdown_timeout_s
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [p for p in self._procs if p is not None and p.is_alive()]
        for proc in stragglers:  # pragma: no cover - defensive
            proc.terminate()
        for proc in stragglers:  # pragma: no cover - defensive
            proc.join(timeout=5)
        for comm in self._comms:
            if comm is not None:
                comm.close()
        self._procs = []
        self._comms = []
        self._stale_due.clear()
        self._report_buffer.clear()
        self._dead_slaves.clear()

    def __enter__(self) -> "MultiprocessingBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
