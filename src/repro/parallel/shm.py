"""The wire format: compact binary frames and the worker-pipe endpoint.

Every task and report that crosses a process boundary travels as a
:class:`WireCodec` frame — on the multiprocessing backend's worker pipes
and on the socket backend's TCP streams alike — and the in-process serial
backend charges each message at the same frame length.  So this module is
the one place that knows the format, and every backend books the same
bytes for the same run.

:class:`WireCodec`
    Fixed binary frames (``struct``, no pickle) for
    :class:`~repro.parallel.message.SlaveTask` /
    :class:`~repro.parallel.message.SlaveReport` and their batched forms.
    Solutions travel as packed-word frames (``8 + ceil(n/8)`` bytes) and
    are rebuilt through :func:`~repro.core.solution._solution_from_wire`,
    so the decoded object seeds its ``packed_words`` memo.  Decoding is
    strict: a frame whose kind, lengths or entry count disagree with its
    bytes raises :class:`FrameError`.

:class:`ShmComm`
    A :class:`~repro.parallel.comm.PipeComm`-compatible endpoint that ships
    codec frames in-band on one worker pipe as ``(tag, nbytes, frame)``.
    Control messages (STOP, REBIND) keep the pickled pipe path: they are
    rare, local and sent only by the master.

:func:`encode_problem` / :func:`decode_problem`
    The problem frame a socket worker receives on REBIND: a JSON header
    (instance name, optimum, best-known value, array shapes and dtypes,
    the :class:`~repro.core.tabu_search.TabuSearchConfig` fields) followed
    by the raw little-endian array bytes.

The module keeps its historical name, and :class:`ShmComm` its name,
because the benchmark in ``ttqbench/`` wraps ``repro.parallel.shm:WireCodec``
and ``repro.parallel.shm:ShmComm`` by name; they move to a ``wire`` module
together with the benchmark's lookup table.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import struct
from typing import Any

import numpy as np

from ..core.instance import MKPInstance
from ..core.reduction import _pattern_from_wire
from ..core.solution import Solution, _solution_from_wire
from ..core.strategy import Strategy
from ..core.tabu_search import TabuSearchConfig
from ..core.termination import Budget
from .comm import CommTimeout, PipeComm
from .message import RESULT_TAG, TASK_TAG, SlaveReport, SlaveTask

__all__ = [
    "FrameError",
    "ShmComm",
    "WireCodec",
    "decode_problem",
    "encode_problem",
]


class FrameError(ValueError):
    """A frame's bytes disagree with its own kind, lengths or counts."""


def _unpack(fmt: struct.Struct, buf: bytes, off: int) -> tuple:
    try:
        return fmt.unpack_from(buf, off)
    except struct.error as exc:
        raise FrameError(f"truncated frame: {exc}") from None


def _take(buf: bytes, off: int, n: int) -> bytes:
    if off + n > len(buf):
        raise FrameError(f"truncated frame: {n} bytes wanted at {off}, {len(buf)} held")
    return bytes(buf[off : off + n])


# ---------------------------------------------------------------------- #
# Wire codec
# ---------------------------------------------------------------------- #

KIND_TASK = 1
KIND_REPORT = 2
KIND_TASK_BATCH = 3
KIND_REPORT_BATCH = 4

# kind, slave hint (task batches), seed, seq, round, strategy(3i), flags
_TASK_HEAD = struct.Struct("<Bqqii iii B".replace(" ", ""))
# kind, slave_id, seq, round, initial_value, evaluations, moves, n_elite
_REPORT_HEAD = struct.Struct("<BiqidqqH")
_BATCH_HEAD = struct.Struct("<BH")
_ENTRY_HEAD = struct.Struct("<iI")  # slave id, frame length
_VALUE = struct.Struct("<d")
_I64 = struct.Struct("<q")

_BUDGET_EVALS = 1
_BUDGET_MOVES = 2
_BUDGET_WALL = 4
_BUDGET_TARGET = 8
#: the strategy carries a non-unit core ratio (one <d follows the budget)
_HAS_CORE_RATIO = 16
#: the task carries a fixation pattern (two packed ceil(n/8) blocks:
#: core mask then fixed values — see repro.core.reduction)
_HAS_PATTERN = 32


class WireCodec:
    """Pickle-free binary frames for the task/report message family.

    One codec per (endpoint, instance): ``n_items`` fixes the packed
    solution width, so frames need no per-solution length field.  Frame
    sizes are deterministic functions of the message content — identical
    on both sides and on every backend, which is what makes the byte
    ledgers backend-independent.
    """

    def __init__(self, n_items: int) -> None:
        self.n_items = int(n_items)

    @property
    def solution_nbytes(self) -> int:
        return _VALUE.size + (self.n_items + 7) // 8

    def frame_nbytes(self, obj: SlaveTask | SlaveReport) -> int:
        """Length of ``obj``'s frame: the bytes every backend charges."""
        return len(self.encode(obj))

    # -- solutions ------------------------------------------------------ #
    def _put_solution(self, out: bytearray, sol: Solution) -> None:
        out += _VALUE.pack(sol.value)
        out += sol.packed_bytes()

    def _take_solution(self, buf: bytes, off: int) -> tuple[Solution, int]:
        (value,) = _unpack(_VALUE, buf, off)
        off += _VALUE.size
        nb = (self.n_items + 7) // 8
        sol = _solution_from_wire(_take(buf, off, nb), self.n_items, value)
        return sol, off + nb

    # -- tasks ----------------------------------------------------------- #
    def encode_task(self, task: SlaveTask) -> bytes:
        budget = task.budget
        flags = 0
        if budget.max_evaluations is not None:
            flags |= _BUDGET_EVALS
        if budget.max_moves is not None:
            flags |= _BUDGET_MOVES
        if budget.wall_seconds is not None:
            flags |= _BUDGET_WALL
        if budget.target_value is not None:
            flags |= _BUDGET_TARGET
        if task.strategy.core_ratio != 1.0:
            flags |= _HAS_CORE_RATIO
        if task.pattern is not None:
            flags |= _HAS_PATTERN
        lt, drop, local = task.strategy.as_tuple()
        out = bytearray(
            _TASK_HEAD.pack(
                KIND_TASK, task.seed, task.seq_id, task.round_index, 0,
                lt, drop, local, flags,
            )
        )
        if flags & _BUDGET_EVALS:
            out += _I64.pack(budget.max_evaluations)
        if flags & _BUDGET_MOVES:
            out += _I64.pack(budget.max_moves)
        if flags & _BUDGET_WALL:
            out += _VALUE.pack(budget.wall_seconds)
        if flags & _BUDGET_TARGET:
            out += _VALUE.pack(budget.target_value)
        if flags & _HAS_CORE_RATIO:
            out += _VALUE.pack(task.strategy.core_ratio)
        if flags & _HAS_PATTERN:
            out += task.pattern.packed_mask_bytes()
            out += task.pattern.packed_values_bytes()
        self._put_solution(out, task.x_init)
        return bytes(out)

    def decode_task(self, frame: bytes) -> SlaveTask:
        kind, seed, seq_id, round_index, _, lt, drop, local, flags = _unpack(
            _TASK_HEAD, frame, 0
        )
        if kind != KIND_TASK:
            raise FrameError(f"not a task frame (kind={kind})")
        off = _TASK_HEAD.size
        max_evaluations = max_moves = None
        wall_seconds = target_value = None
        if flags & _BUDGET_EVALS:
            (max_evaluations,) = _unpack(_I64, frame, off)
            off += _I64.size
        if flags & _BUDGET_MOVES:
            (max_moves,) = _unpack(_I64, frame, off)
            off += _I64.size
        if flags & _BUDGET_WALL:
            (wall_seconds,) = _unpack(_VALUE, frame, off)
            off += _VALUE.size
        if flags & _BUDGET_TARGET:
            (target_value,) = _unpack(_VALUE, frame, off)
            off += _VALUE.size
        core_ratio = 1.0
        if flags & _HAS_CORE_RATIO:
            (core_ratio,) = _unpack(_VALUE, frame, off)
            off += _VALUE.size
        pattern = None
        if flags & _HAS_PATTERN:
            nb = (self.n_items + 7) // 8
            pattern = _pattern_from_wire(
                _take(frame, off, nb), _take(frame, off + nb, nb), self.n_items
            )
            off += 2 * nb
        x_init, off = self._take_solution(frame, off)
        if off != len(frame):
            raise FrameError(f"task frame has {len(frame) - off} trailing bytes")
        return SlaveTask(
            x_init=x_init,
            strategy=Strategy(lt, drop, local, core_ratio),
            budget=Budget(max_evaluations, max_moves, wall_seconds, target_value),
            seed=seed,
            round_index=round_index,
            seq_id=seq_id,
            pattern=pattern,
        )

    # -- reports --------------------------------------------------------- #
    def encode_report(self, report: SlaveReport) -> bytes:
        out = bytearray(
            _REPORT_HEAD.pack(
                KIND_REPORT, report.slave_id, report.seq_id, report.round_index,
                report.initial_value, report.evaluations, report.moves,
                len(report.elite),
            )
        )
        self._put_solution(out, report.best)
        for sol in report.elite:
            self._put_solution(out, sol)
        return bytes(out)

    def decode_report(self, frame: bytes) -> SlaveReport:
        kind, slave_id, seq_id, round_index, initial_value, evaluations, moves, n_elite = (
            _unpack(_REPORT_HEAD, frame, 0)
        )
        if kind != KIND_REPORT:
            raise FrameError(f"not a report frame (kind={kind})")
        off = _REPORT_HEAD.size
        best, off = self._take_solution(frame, off)
        elite = []
        for _ in range(n_elite):
            sol, off = self._take_solution(frame, off)
            elite.append(sol)
        if off != len(frame):
            raise FrameError(f"report frame has {len(frame) - off} trailing bytes")
        return SlaveReport(
            slave_id=slave_id,
            best=best,
            elite=elite,
            initial_value=initial_value,
            evaluations=evaluations,
            moves=moves,
            round_index=round_index,
            seq_id=seq_id,
        )

    # -- batches ---------------------------------------------------------- #
    def encode_task_batch(
        self, entries: list[tuple[int, SlaveTask]]
    ) -> tuple[bytes, dict[int, int]]:
        """Pack ``(slave_id, task)`` entries; also returns per-slave sizes.

        The per-entry sizes are the *individual* task-frame lengths (the
        batch envelope is uncharged), so a batched send books exactly the
        bytes the same tasks would as single frames.
        """
        out = bytearray(_BATCH_HEAD.pack(KIND_TASK_BATCH, len(entries)))
        sizes: dict[int, int] = {}
        for slave_id, task in entries:
            frame = self.encode_task(task)
            out += _ENTRY_HEAD.pack(slave_id, len(frame))
            out += frame
            sizes[slave_id] = len(frame)
        return bytes(out), sizes

    def _entries(self, frame: bytes, want_kind: int) -> list[tuple[int, bytes]]:
        """Split a batch envelope into ``(slave_id, entry frame)`` pairs."""
        kind, count = _unpack(_BATCH_HEAD, frame, 0)
        if kind != want_kind:
            raise FrameError(f"batch kind {kind} where {want_kind} was expected")
        off = _BATCH_HEAD.size
        entries = []
        for _ in range(count):
            slave_id, length = _unpack(_ENTRY_HEAD, frame, off)
            off += _ENTRY_HEAD.size
            entries.append((slave_id, _take(frame, off, length)))
            off += length
        if off != len(frame):
            raise FrameError(f"batch frame has {len(frame) - off} trailing bytes")
        return entries

    def decode_task_batch(
        self, frame: bytes
    ) -> tuple[list[tuple[int, SlaveTask]], list[int]]:
        """Unpack a task batch; returns the entries and per-entry sizes."""
        entries = self._entries(frame, KIND_TASK_BATCH)
        return (
            [(slave_id, self.decode_task(sub)) for slave_id, sub in entries],
            [len(sub) for _, sub in entries],
        )

    def encode_report_batch(
        self, reports: list[SlaveReport]
    ) -> tuple[bytes, list[int]]:
        """Pack reports into one frame; also returns per-entry sizes."""
        out = bytearray(_BATCH_HEAD.pack(KIND_REPORT_BATCH, len(reports)))
        sizes: list[int] = []
        for report in reports:
            frame = self.encode_report(report)
            out += _ENTRY_HEAD.pack(report.slave_id, len(frame))
            out += frame
            sizes.append(len(frame))
        return bytes(out), sizes

    def decode_report_batch(
        self, frame: bytes
    ) -> tuple[list[SlaveReport], list[int]]:
        """Unpack a report batch; returns the reports and per-entry sizes."""
        entries = self._entries(frame, KIND_REPORT_BATCH)
        return (
            [self.decode_report(sub) for _, sub in entries],
            [len(sub) for _, sub in entries],
        )

    # -- dispatch ---------------------------------------------------------- #
    def encode(self, obj: Any) -> bytes:
        if isinstance(obj, SlaveTask):
            return self.encode_task(obj)
        if isinstance(obj, SlaveReport):
            return self.encode_report(obj)
        raise TypeError(f"codec cannot encode {type(obj).__name__}")

    def decode(self, frame: bytes) -> Any:
        """Decode any codec frame by its kind byte (batches drop sizes)."""
        kind = frame[0] if frame else None
        if kind == KIND_TASK:
            return self.decode_task(frame)
        if kind == KIND_REPORT:
            return self.decode_report(frame)
        if kind == KIND_TASK_BATCH:
            return self.decode_task_batch(frame)[0]
        if kind == KIND_REPORT_BATCH:
            return self.decode_report_batch(frame)[0]
        raise FrameError(f"unknown frame kind {kind}")


# ---------------------------------------------------------------------- #
# Worker-pipe endpoint
# ---------------------------------------------------------------------- #


class ShmComm:
    """Pipe endpoint that moves task/report traffic as codec frames.

    Wraps one :class:`~repro.parallel.comm.PipeComm`.  Message-family
    traffic (tasks, reports, batches) is codec-encoded and ships in-band as
    ``(tag, nbytes, frame)``; control messages (STOP, REBIND) keep the
    pickled pipe path.  ``nbytes`` is always the codec frame length (the
    per-entry lengths for a batch), so ``bytes_sent`` / ``bytes_received``
    agree with every other backend's ledger.
    """

    def __init__(self, pipe: PipeComm, codec: WireCodec) -> None:
        self._pipe = pipe
        self.codec = codec
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_payload_nbytes = 0
        #: per-entry codec sizes of the last received message family frame
        self.last_entry_nbytes: list[int] = []

    @property
    def connection(self) -> Any:
        return self._pipe.connection

    @property
    def closed(self) -> bool:
        return self._pipe.closed

    def poll(self, timeout: float = 0.0) -> bool:
        return self._pipe.poll(timeout)

    def close(self) -> None:
        self._pipe.close()

    # -- send ------------------------------------------------------------- #
    def _dispatch(self, frame: bytes, tag: int, nbytes: int) -> None:
        self.bytes_sent += nbytes
        self.last_payload_nbytes = nbytes
        # Raw push: PipeComm.send would re-size the frame by pickling it.
        self._pipe._check_open()
        self._pipe.connection.send((tag, nbytes, frame))

    def send(self, obj: Any, dest: int = 0, tag: int = 0) -> None:
        if tag in (TASK_TAG, RESULT_TAG):
            frame = self.codec.encode(obj)
            self._dispatch(frame, tag, len(frame))
            return
        # Control plane (STOP/REBIND): plain pickled pipe message.
        before = self._pipe.bytes_sent
        self._pipe.send(obj, dest, tag)
        self.bytes_sent += self._pipe.bytes_sent - before
        self.last_payload_nbytes = self._pipe.bytes_sent - before

    def send_tasks(self, entries: list[tuple[int, SlaveTask]]) -> dict[int, int]:
        """Send one batched task message; returns per-slave charged sizes."""
        frame, sizes = self.codec.encode_task_batch(entries)
        self._dispatch(frame, TASK_TAG, sum(sizes.values()))
        return sizes

    def send_reports(self, reports: list[SlaveReport]) -> None:
        """Send one batched report message (worker side)."""
        frame, sizes = self.codec.encode_report_batch(reports)
        self._dispatch(frame, RESULT_TAG, sum(sizes))

    # -- receive ----------------------------------------------------------- #
    def recv(self, source: int = 0, tag: int = 0, timeout: float | None = None) -> Any:
        """Receive one message with ``tag``; mirrors ``PipeComm.recv``."""
        got_tag, obj = self.recv_message(timeout=timeout)
        if got_tag != tag:
            raise RuntimeError(
                f"protocol error: expected message tag {tag}, received {got_tag}"
            )
        return obj

    def recv_message(self, timeout: float | None = None) -> tuple[int, Any]:
        """Receive the next message of any tag as ``(tag, obj)``."""
        self._pipe._check_open()
        conn = self._pipe.connection
        if timeout is not None and not conn.poll(timeout):
            raise CommTimeout(
                f"no message within {timeout:.3f}s; peer crashed or hung?"
            )
        tag, nbytes, body = conn.recv()
        if tag not in (TASK_TAG, RESULT_TAG):
            # Control plane: body is the pickled object itself.
            self.bytes_received += nbytes
            self.last_payload_nbytes = nbytes
            self.last_entry_nbytes = [nbytes]
            return tag, body
        kind = body[0]
        if kind == KIND_TASK_BATCH:
            obj, sizes = self.codec.decode_task_batch(body)
        elif kind == KIND_REPORT_BATCH:
            obj, sizes = self.codec.decode_report_batch(body)
        else:
            obj = self.codec.decode(body)
            sizes = [len(body)]
        self.last_entry_nbytes = sizes
        self.bytes_received += sum(sizes)
        self.last_payload_nbytes = sum(sizes)
        return tag, obj


# ---------------------------------------------------------------------- #
# Problem frame (socket REBIND)
# ---------------------------------------------------------------------- #

_PROBLEM_HEAD = struct.Struct("<I")  # JSON header length
_PROBLEM_KEYS = {"name", "optimum", "best_known", "arrays", "config"}
_PROBLEM_ARRAYS = ("weights", "capacities", "profits")
_PROBLEM_DTYPE = "<f8"


def _to_json(obj: Any) -> Any:
    """A config dataclass as plain JSON values (enums by value)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [_to_json(v) for v in obj]
    return obj


def _from_json(cls: type, data: Any) -> Any:
    """Rebuild config dataclass ``cls``, typed after its field defaults."""
    if not isinstance(data, dict):
        raise FrameError(f"{cls.__name__} fields must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if set(data) != set(fields):
        raise FrameError(f"{cls.__name__} fields {sorted(data)} != {sorted(fields)}")
    kwargs = {}
    for name, f in fields.items():
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        kwargs[name] = _typed_like(default, data[name], f"{cls.__name__}.{name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"invalid {cls.__name__}: {exc}") from None


def _typed_like(default: Any, value: Any, where: str) -> Any:
    if dataclasses.is_dataclass(default):
        return _from_json(type(default), value)
    if isinstance(default, enum.Enum):
        try:
            return type(default)(value)
        except ValueError:
            raise FrameError(f"{where}: unknown value {value!r}") from None
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise FrameError(f"{where}: expected {len(default)} values")
        return tuple(_typed_like(d, v, where) for d, v in zip(default, value))
    if isinstance(default, float):  # an int may stand in for a float
        ok = type(value) in (int, float)
    else:
        ok = type(value) is type(default)
    if not ok:
        raise FrameError(f"{where}: {type(value).__name__} is not {type(default).__name__}")
    return value


def encode_problem(instance: MKPInstance, config: TabuSearchConfig) -> bytes:
    """The REBIND frame: JSON header, then the raw little-endian arrays."""
    arrays = [
        np.ascontiguousarray(getattr(instance, name), dtype=_PROBLEM_DTYPE)
        for name in _PROBLEM_ARRAYS
    ]
    header = json.dumps(
        {
            "name": instance.name,
            "optimum": instance.optimum,
            "best_known": instance.best_known,
            "arrays": [
                [name, _PROBLEM_DTYPE, list(a.shape)]
                for name, a in zip(_PROBLEM_ARRAYS, arrays)
            ],
            "config": _to_json(config),
        }
    ).encode()
    return b"".join([_PROBLEM_HEAD.pack(len(header)), header, *(a.tobytes() for a in arrays)])


def decode_problem(frame: bytes) -> tuple[MKPInstance, TabuSearchConfig]:
    """Inverse of :func:`encode_problem`; rejects any inconsistent frame."""
    (head_len,) = _unpack(_PROBLEM_HEAD, frame, 0)
    off = _PROBLEM_HEAD.size
    try:
        header = json.loads(_take(frame, off, head_len))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"problem header is not JSON: {exc}") from None
    off += head_len
    if not isinstance(header, dict) or set(header) != _PROBLEM_KEYS:
        raise FrameError(f"problem header keys must be {sorted(_PROBLEM_KEYS)}")
    specs = header["arrays"]
    if not isinstance(specs, list) or len(specs) != len(_PROBLEM_ARRAYS):
        raise FrameError(f"problem arrays must be {list(_PROBLEM_ARRAYS)}")
    arrays = []
    for name, spec in zip(_PROBLEM_ARRAYS, specs):
        if not isinstance(spec, list) or len(spec) != 3 or spec[:2] != [name, _PROBLEM_DTYPE]:
            raise FrameError(f"array spec {spec!r} is not [{name!r}, {_PROBLEM_DTYPE!r}, shape]")
        shape = spec[2]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise FrameError(f"array {name!r}: bad shape {shape!r}")
        nbytes = math.prod(shape) * np.dtype(_PROBLEM_DTYPE).itemsize
        data = np.frombuffer(_take(frame, off, nbytes), dtype=_PROBLEM_DTYPE)
        arrays.append(data.reshape(shape).copy())  # copy: aligned, owned memory
        off += nbytes
    if off != len(frame):
        raise FrameError(f"problem frame has {len(frame) - off} trailing bytes")
    for key in ("optimum", "best_known"):
        if header[key] is not None and type(header[key]) not in (int, float):
            raise FrameError(f"{key} must be a number or null")
    if not isinstance(header["name"], str):
        raise FrameError("name must be a string")
    try:
        instance = MKPInstance(
            *arrays,
            name=header["name"],
            optimum=header["optimum"],
            best_known=header["best_known"],
        )
    except ValueError as exc:
        raise FrameError(f"invalid instance: {exc}") from None
    return instance, _from_json(TabuSearchConfig, header["config"])
