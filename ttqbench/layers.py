"""Layer spans recorded from the benchmark's own files.

The benchmark never edits the program: it replaces public functions and
methods with timing wrappers for the duration of one operation and puts
the originals back afterwards (:func:`installed`).  Each wrapper records
one span per call -- name, start, end, parent -- on the :class:`Tracer`,
kept in memory and written out when the run ends.  Boundaries that fire
hundreds of thousands of times per operation (the compound move, greedy
fill, codec and carrier calls) are *counted*: they update the same
per-layer totals but store no span record.

A layer's self time is its duration minus the part covered by its direct
children (spans or counted boundaries), so every second of a call tree is
attributed to exactly one layer.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "Boundary",
    "Tracer",
    "installed",
    "master_boundaries",
    "worker_boundaries",
]


class Tracer:
    """In-memory span recorder for the thread that created it.

    Calls from other threads (the socket backend's IO loop) pass through
    unrecorded, so the per-thread call stack needs no lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.thread = threading.get_ident()
        self._stack: list[list] = []  # [name, start, child_s, span_id]
        self._next_id = 0
        #: ``(span_id, parent_id, name, start, end)`` of span boundaries
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        #: extra counters filled by boundary hooks (bytes, restarts, ...)
        self.counts: Counter[str] = Counter()
        #: per-call durations of boundaries whose distribution is reported
        self.durations: dict[str, list[float]] = {}
        #: seconds covered by spans that have no parent (the attributed wall)
        self.root_s = 0.0

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, self.clock(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, record: bool, keep_duration: bool = False) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child_s, span_id = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            parent_id = 0
            self.root_s += duration
        if record:
            self.spans.append((span_id, parent_id, name, start, end))
        if keep_duration:
            self.durations.setdefault(name, []).append(duration)

    def summary(self) -> dict:
        """Picklable per-layer totals (what a worker process sends back)."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "root_s": self.root_s,
        }


@dataclass(frozen=True)
class Boundary:
    """One wrapped attribute: ``owner`` is ``"module"`` or ``"module:Class"``."""

    owner: str
    attr: str
    layer: str
    #: store one span record per call (False: counted boundary)
    span: bool = True
    #: keep every call's duration (for a distribution such as task size)
    durations: bool = False
    #: ``hook(tracer, args, result)`` run after a call returns
    hook: Callable[[Tracer, tuple, Any], None] | None = None


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _wrap(tracer: Tracer, boundary: Boundary, fn: Callable) -> Callable:
    layer, record, keep, hook = boundary.layer, boundary.span, boundary.durations, boundary.hook

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if threading.get_ident() != tracer.thread:
            return fn(*args, **kwargs)
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, record, keep)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer, boundaries: list[Boundary]) -> Iterator[Tracer]:
    """Wrap every boundary for the block; originals are restored on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for boundary in boundaries:
            owner = _resolve(boundary.owner)
            original = owner.__dict__[boundary.attr] if isinstance(owner, type) else getattr(
                owner, boundary.attr
            )
            saved.append((owner, boundary.attr, original))
            setattr(owner, boundary.attr, _wrap(tracer, boundary, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Boundary hooks
# ---------------------------------------------------------------------- #


def _count_restarts(tracer: Tracer, args: tuple, decisions: Any) -> None:
    tracer.counts["master.isp.random_restarts"] += sum(
        1 for d in decisions if d.rule == "restart"
    )


def _encoded_bytes(tracer: Tracer, args: tuple, frame: Any) -> None:
    tracer.counts["parallel.codec.encode.bytes"] += len(frame)


def _decoded_bytes(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counts["parallel.codec.decode.bytes"] += len(args[1])


def _tally_reports(reports: list) -> Counter:
    tally: Counter[str] = Counter()
    for report in reports:
        tally["reports"] += 1
        tally["report_moves"] += report.moves
        tally["report_evaluations"] += report.evaluations
        tally["improved_reports"] += int(report.improved)
    return tally


def _round_done(tracer: Tracer, args: tuple, reports: list) -> None:
    backend = args[0]
    tracer.counts.update(_tally_reports(reports))
    tracer.counts["rounds"] += 1
    telemetry = backend.last_telemetry
    if telemetry is None:
        return
    phases = telemetry.phase_seconds
    tracer.counts["round.scatter_s"] += phases.get("scatter", 0.0)
    tracer.counts["round.gather_s"] += phases.get("gather", 0.0)
    tracer.counts["round.master_wait_s"] += telemetry.master_wait_s
    idle = list(telemetry.gather_idle_s.values())
    if idle:
        tracer.counts["round.gather_idle_s"] += sum(idle) / len(idle)
        tracer.durations.setdefault("telemetry.gather_idle", []).extend(idle)


def _report_popped(tracer: Tracer, args: tuple, item: Any) -> None:
    if item is not None:
        tracer.counts.update(_tally_reports([item[0]]))


# ---------------------------------------------------------------------- #
# Boundary sets
# ---------------------------------------------------------------------- #

_CORE = [
    Boundary("repro.core.tabu_search:TabuSearch", "run", "core.ts"),
    Boundary("repro.core.moves:MoveEngine", "apply", "core.moves.apply", span=False),
    Boundary("repro.core.tabu_search", "swap_intensification", "core.intensify.swap"),
    Boundary("repro.core.tabu_search", "strategic_oscillation", "core.intensify.oscillation"),
    Boundary("repro.core.tabu_search", "diversify", "core.diversify"),
    # ``fill_greedily`` is looked up in each caller's module namespace.
    Boundary("repro.core.construction", "fill_greedily", "core.construction.fill", span=False),
    Boundary("repro.core.intensification", "fill_greedily", "core.construction.fill", span=False),
    Boundary("repro.core.diversification", "fill_greedily", "core.construction.fill", span=False),
]

_RUNTIME = [
    Boundary(
        "repro.parallel.runtime:SlaveRuntime", "execute", "parallel.runtime.execute",
        durations=True,
    ),
    Boundary(
        "repro.parallel.runtime:SlaveRuntime", "execute_batch",
        "parallel.runtime.execute_batch",
    ),
]

_CODEC = [
    Boundary("repro.parallel.shm:WireCodec", attr, "parallel.codec.encode", span=False,
             hook=_encoded_bytes)
    for attr in ("encode_task", "encode_report")
] + [
    Boundary("repro.parallel.shm:WireCodec", attr, "parallel.codec.decode", span=False,
             hook=_decoded_bytes)
    for attr in ("decode_task", "decode_report")
]

_CARRIER = [
    Boundary("repro.parallel.comm:InProcComm", "send", "parallel.carrier.send", span=False),
    Boundary("repro.parallel.comm:InProcComm", "recv", "parallel.carrier.recv", span=False),
    Boundary("repro.parallel.shm:ShmComm", "send", "parallel.carrier.send", span=False),
    Boundary("repro.parallel.shm:ShmComm", "send_tasks", "parallel.carrier.send", span=False),
    Boundary("repro.parallel.shm:ShmComm", "recv_message", "parallel.carrier.recv", span=False),
]

_BACKENDS = [
    Boundary(f"repro.parallel.{module}:{cls}", "run_round", "parallel.round", hook=_round_done)
    for module, cls in (
        ("backends", "SerialBackend"),
        ("backends", "MultiprocessingBackend"),
        ("backend_socket", "SocketBackend"),
    )
] + [
    Boundary(f"repro.parallel.{module}:{cls}", "dispatch", "parallel.dispatch")
    for module, cls in (
        ("backends", "SerialBackend"),
        ("backends", "MultiprocessingBackend"),
        ("backend_socket", "SocketBackend"),
    )
] + [
    Boundary(
        f"repro.parallel.{module}:{cls}", "next_report", "parallel.next_report",
        hook=_report_popped,
    )
    for module, cls in (
        ("backends", "SerialBackend"),
        ("backends", "MultiprocessingBackend"),
        ("backend_socket", "SocketBackend"),
    )
]

_MASTER = [
    Boundary("repro.master.master:MasterProcess", "run", "master.loop"),
    # The names ``repro.master.master`` looks up at call time.
    Boundary("repro.master.master", "generate_initial_solutions", "master.isp",
             hook=_count_restarts),
    Boundary("repro.master.master", "update_strategies", "master.sgp"),
]


def master_boundaries() -> list[Boundary]:
    """Every boundary the master process can reach."""
    return _MASTER + _BACKENDS + _RUNTIME + _CORE + _CODEC + _CARRIER


def worker_boundaries() -> list[Boundary]:
    """Boundaries a socket worker process reaches while serving tasks."""
    return _RUNTIME + _CORE + _CODEC
