"""Point-to-point communication in the mpi4py idiom.

The guides' mpi4py tutorial fixes the API shape we mirror: lowercase
``send(obj, dest, tag)`` / ``recv(source, tag)`` moving pickled Python
objects.  Two realisations:

:class:`InProcComm`
    Per-(endpoint, tag) FIFO queues inside one process.  Used by the serial
    and simulated backends; :attr:`InProcComm.bytes_sent` feeds the farm's
    crossbar cost model.  The router sizes each message with the function
    it was built with: the serial backend passes
    :meth:`~repro.parallel.shm.WireCodec.frame_nbytes`, so it books the
    bytes the other backends put on the wire.

:class:`PipeComm`
    A thin wrapper over a ``multiprocessing`` duplex pipe, giving worker
    processes the same two-method surface.

Both enforce *message conservation*: every ``recv`` returns an object that
was ``send``-ed exactly once (property-tested).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Callable, Protocol

from .message import payload_nbytes

__all__ = [
    "Comm",
    "InProcComm",
    "PipeComm",
    "MessageRouter",
    "CommTimeout",
    "CommClosedError",
]


class CommTimeout(TimeoutError):
    """A bounded ``recv`` expired before any message arrived."""


class CommClosedError(RuntimeError):
    """Send/recv attempted on an endpoint that was already closed."""


class Comm(Protocol):
    """Minimal point-to-point protocol (mpi4py lowercase subset)."""

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:  # pragma: no cover
        ...

    def recv(self, source: int, tag: int = 0) -> Any:  # pragma: no cover
        ...


class MessageRouter:
    """Shared mailbox fabric for a set of in-process endpoints.

    Endpoint ``r``'s inbox for tag ``t`` is keyed ``(r, t)``.  The router
    also keeps byte counters per (src, dest) pair and per tag so the
    simulated farm can charge the exact traffic to the crossbar and the
    benchmarks can attribute it to task/report streams.  ``nbytes`` sizes
    each message (default: its pickle, for arbitrary payloads).
    """

    def __init__(self, nbytes: Callable[[Any], int] = payload_nbytes) -> None:
        self._nbytes = nbytes
        self._queues: dict[tuple[int, int], deque[tuple[Any, int]]] = defaultdict(deque)
        self.bytes_by_pair: dict[tuple[int, int], int] = defaultdict(int)
        self.messages_by_pair: dict[tuple[int, int], int] = defaultdict(int)
        self.bytes_by_tag: dict[int, int] = defaultdict(int)
        self.messages_by_tag: dict[int, int] = defaultdict(int)

    def push(self, src: int, dest: int, tag: int, obj: Any) -> int:
        """Enqueue and return the charged payload size in bytes."""
        nbytes = self._nbytes(obj)
        self._queues[(dest, tag)].append((obj, nbytes))
        self.bytes_by_pair[(src, dest)] += nbytes
        self.messages_by_pair[(src, dest)] += 1
        self.bytes_by_tag[tag] += nbytes
        self.messages_by_tag[tag] += 1
        return nbytes

    def pop(self, dest: int, tag: int) -> tuple[Any, int]:
        """Dequeue one ``(obj, nbytes)`` pair.

        The payload size measured at :meth:`push` rides along, so the
        receive side never re-pickles the object just to re-derive a number
        already known — a measurable cost in the round loop's hot path.
        """
        queue = self._queues[(dest, tag)]
        if not queue:
            raise RuntimeError(
                f"recv on empty mailbox: endpoint {dest}, tag {tag} "
                "(in-process comm is synchronous; send before recv)"
            )
        return queue.popleft()

    def pending(self, dest: int, tag: int) -> int:
        return len(self._queues[(dest, tag)])

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_pair.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_pair.values())


class InProcComm:
    """One endpoint (rank) attached to a :class:`MessageRouter`."""

    def __init__(self, router: MessageRouter, rank: int) -> None:
        self.router = router
        self.rank = int(rank)
        self.bytes_sent = 0
        self.bytes_received = 0
        self.last_payload_nbytes = 0

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        nbytes = self.router.push(self.rank, dest, tag, obj)
        self.bytes_sent += nbytes
        self.last_payload_nbytes = nbytes

    def recv(self, source: int, tag: int = 0) -> Any:
        # ``source`` is advisory for in-process FIFOs (single mailbox per
        # (dest, tag)); kept for API parity with MPI.
        obj, nbytes = self.router.pop(self.rank, tag)
        self.bytes_received += nbytes
        self.last_payload_nbytes = nbytes
        return obj

    def probe(self, tag: int = 0) -> bool:
        """Non-blocking check whether a message is waiting (iprobe)."""
        return self.router.pending(self.rank, tag) > 0


class PipeComm:
    """mpi4py-style facade over one end of a ``multiprocessing`` pipe.

    Each master↔worker pair owns a private duplex pipe, so ``dest`` /
    ``source`` are fixed by construction and the arguments are accepted
    only for API parity.  Messages are framed as ``(tag, nbytes, obj)``,
    where ``nbytes`` is the sender-measured payload size (so both ends book
    the same byte charge with a single pickle); a recv with a mismatched
    tag is a protocol error, loudly reported.

    Hardened surface (chaos-test requirements): ``recv`` takes an optional
    ``timeout`` in seconds and raises :class:`CommTimeout` instead of
    blocking forever on a dead peer; ``close`` is idempotent; operations on
    a closed endpoint raise :class:`CommClosedError` rather than hitting
    the raw OS handle.
    """

    def __init__(self, connection: Any) -> None:
        self._conn = connection
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def connection(self) -> Any:
        """The underlying OS connection (for ``multiprocessing.connection.wait``).

        The multiplexed gather selects over many endpoints at once; exposing
        the raw handle read-only keeps the event loop out of this class
        while the tagged-protocol framing stays behind :meth:`recv`.
        """
        return self._conn

    def _check_open(self) -> None:
        if self._closed:
            raise CommClosedError("operation on closed PipeComm endpoint")

    def send(self, obj: Any, dest: int = 0, tag: int = 0) -> None:
        self._check_open()
        nbytes = payload_nbytes(obj)
        self.bytes_sent += nbytes
        # The charged size rides in the frame so the receive side books the
        # identical number without re-pickling the payload (hot-path cost).
        try:
            self._conn.send((tag, nbytes, obj))
        except (BrokenPipeError, OSError) as exc:
            raise CommClosedError(
                f"peer gone while sending tag {tag}: {exc}"
            ) from exc

    def recv(self, source: int = 0, tag: int = 0, timeout: float | None = None) -> Any:
        """Receive one tagged message; bounded wait when ``timeout`` is set.

        ``timeout=None`` preserves the original blocking semantics (the
        synchronous barrier); any finite value converts a hung or crashed
        peer into a :class:`CommTimeout` the caller can act on.

        Crash-window hardening: ``poll(timeout)`` can report a readable
        handle and the peer then die before (or while) the frame is read —
        ``Connection.recv`` raises a bare ``EOFError``/``OSError`` in that
        window.  Both are normalised into :class:`CommClosedError` so the
        gather loops take the existing dead-rank path instead of crashing
        the master on a raw OS exception.  ``CommTimeout`` is raised
        *outside* the normalising handler: since Python 3.3 ``TimeoutError``
        *is* an ``OSError`` subclass, and a naive ``except OSError`` around
        the poll would silently re-label the timeout as a closed peer.
        """
        self._check_open()
        if timeout is not None:
            try:
                has_message = self._conn.poll(timeout)
            except OSError as exc:
                raise CommClosedError(
                    f"peer gone while polling tag {tag}: {exc}"
                ) from exc
            if not has_message:
                raise CommTimeout(
                    f"no message within {timeout:.3f}s (tag {tag}); "
                    "peer crashed or hung?"
                )
        try:
            got_tag, nbytes, obj = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise CommClosedError(
                f"peer closed mid-frame while receiving tag {tag}: {exc}"
            ) from exc
        if got_tag != tag:
            raise RuntimeError(
                f"protocol error: expected message tag {tag}, received {got_tag}"
            )
        self.bytes_received += nbytes
        return obj

    def poll(self, timeout: float = 0.0) -> bool:
        """Non-blocking (or bounded) check for a waiting message."""
        if self._closed:
            return False
        return bool(self._conn.poll(timeout))

    def close(self) -> None:
        """Release the underlying connection; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down by the OS
            pass
