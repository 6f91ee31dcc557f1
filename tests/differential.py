"""Reusable differential harness: every backend runs the same trajectory.

The tabu-search reproduction defines correctness as *bit-identical
incumbent trajectories*: two executions of the same (instance, seed,
variant) must agree on every solution, every round statistic, and every
byte charged to the farm clock — regardless of which backend carried the
messages.  Every backend charges a message at its wire-codec frame length,
so the byte ledgers (and the virtual seconds built on them) agree too.
This module packages that contract so any test can assert it in one call:

``run_canonical``
    Solve a variant with an optional externally-constructed backend and
    return the **canonical serialization**: the FORMAT_VERSION-2
    ``result_to_dict`` payload with every wall-measured field zeroed
    (wall time is the one thing two runs legitimately disagree on).

``assert_differential``
    Run one case under several backend factories and assert every
    canonical payload is byte-identical to the reference's, reporting
    the first differing JSON path on failure.

``backend_matrix``
    The standard factories: serial, multiprocessing under fork and spawn,
    and the socket backend with two local workers.

Wall-measured fields canonicalized away (everything else — virtual
seconds, byte ledgers, value histories, per-slave accounting — must
match exactly):

* top-level ``wall_seconds``;
* per-round ``phase_wall_seconds`` and ``gather_idle_s``;
* the trace's ``wall_phases`` records.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Callable, Mapping

from repro.analysis.serialize import result_to_dict
from repro.core.instance import MKPInstance
from repro.master.result import ParallelRunResult
from repro.parallel.backend_socket import SocketBackend
from repro.parallel.backends import Backend, MultiprocessingBackend, SerialBackend
from repro.variants.runner import solve_cts1, solve_cts2, solve_its

__all__ = [
    "VARIANTS",
    "assert_differential",
    "backend_matrix",
    "canonical_bytes",
    "canonicalize",
    "first_difference",
    "run_canonical",
]

VARIANTS: Mapping[str, Callable[..., ParallelRunResult]] = {
    "its": solve_its,
    "cts1": solve_cts1,
    "cts2": solve_cts2,
}


def canonicalize(data: dict) -> dict:
    """Strip wall-clock measurements from a ``result_to_dict`` payload."""
    out = copy.deepcopy(data)
    out["wall_seconds"] = 0.0
    for rnd in out.get("rounds", []):
        rnd["phase_wall_seconds"] = {}
        rnd["gather_idle_s"] = {}
    trace = out.get("trace")
    if isinstance(trace, dict):
        trace["wall_phases"] = []
    return out


def canonical_bytes(result: ParallelRunResult) -> bytes:
    """Canonical serialized form of a run, suitable for equality asserts."""
    return json.dumps(
        canonicalize(result_to_dict(result)), sort_keys=True
    ).encode()


def run_canonical(
    instance: MKPInstance,
    *,
    variant: str = "cts2",
    backend_factory: Callable[[], Backend] | None = None,
    n_slaves: int = 4,
    n_rounds: int = 3,
    rng_seed: int = 7,
    max_evaluations: int = 1_500,
) -> bytes:
    """Solve ``variant`` once and return its canonical serialization.

    ``backend_factory`` builds the backend to run on (``None`` = the
    runner's default serial backend); the harness owns its shutdown, so
    factories can hand over freshly-constructed multiprocessing backends
    without leaking workers on assertion failure.
    """
    solver = VARIANTS[variant]
    backend = backend_factory() if backend_factory is not None else None
    try:
        result = solver(
            instance,
            n_slaves=n_slaves,
            n_rounds=n_rounds,
            rng_seed=rng_seed,
            max_evaluations=max_evaluations,
            backend=backend,
        )
    finally:
        if backend is not None:
            backend.shutdown()
    return canonical_bytes(result)


def first_difference(a: Any, b: Any, path: str = "$") -> str | None:
    """Human-readable JSON path of the first disagreement (None if equal)."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: present in only one payload"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def assert_differential(
    instance: MKPInstance,
    factories: Mapping[str, Callable[[], Backend] | None],
    **case_kwargs: Any,
) -> None:
    """Assert every factory's run is byte-identical to the first's.

    ``factories`` maps a label (used in the failure message) to a backend
    factory; the first entry is the reference path.  ``case_kwargs``
    forward to :func:`run_canonical` (variant, seed, budgets, ...).
    """
    if len(factories) < 2:
        raise ValueError("need a reference and at least one candidate")
    labels = list(factories)
    payloads = {
        label: run_canonical(
            instance, backend_factory=factories[label], **case_kwargs
        )
        for label in labels
    }
    reference = payloads[labels[0]]
    for label in labels[1:]:
        if payloads[label] != reference:
            diff = first_difference(
                json.loads(reference), json.loads(payloads[label])
            )
            raise AssertionError(
                f"run {label!r} diverged from reference {labels[0]!r}: {diff}"
            )


def _socket(n_slaves: int, mp_context: str) -> SocketBackend:
    backend = SocketBackend(n_slaves, min_workers=2, round_timeout_s=30.0)
    backend.attach_local_workers(2, mp_context=mp_context)
    return backend


def backend_matrix(
    n_slaves: int = 4, socket_context: str = "fork"
) -> dict[str, Callable[[], Backend]]:
    """Serial reference, mp over fork and spawn, socket with 2 local workers."""
    return {
        "serial": lambda: SerialBackend(n_slaves),
        "mp-fork": lambda: MultiprocessingBackend(n_slaves, mp_context="fork"),
        "mp-spawn": lambda: MultiprocessingBackend(n_slaves, mp_context="spawn"),
        "socket": lambda: _socket(n_slaves, socket_context),
    }
