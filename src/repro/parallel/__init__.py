"""Message-passing substrate: PVM/MPI-style comm + execution backends."""

from .backend_socket import SocketBackend, run_worker
from .backends import Backend, MultiprocessingBackend, SerialBackend
from .comm import (
    Comm,
    CommClosedError,
    CommTimeout,
    InProcComm,
    MessageRouter,
    PipeComm,
)
from .faults import ChaosComm, FaultEvent, FaultKind, FaultPlan
from .message import (
    PROBLEM_TAG,
    RESULT_TAG,
    SlaveReport,
    SlaveTask,
    payload_nbytes,
)
from .runtime import SlaveRuntime
from .shm import FrameError, ShmComm, WireCodec
from .slave import execute_task

__all__ = [
    "ShmComm",
    "WireCodec",
    "FrameError",
    "SlaveRuntime",
    "Backend",
    "SerialBackend",
    "MultiprocessingBackend",
    "SocketBackend",
    "run_worker",
    "Comm",
    "InProcComm",
    "PipeComm",
    "MessageRouter",
    "CommTimeout",
    "CommClosedError",
    "ChaosComm",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "SlaveTask",
    "SlaveReport",
    "payload_nbytes",
    "execute_task",
    "PROBLEM_TAG",
    "RESULT_TAG",
]
