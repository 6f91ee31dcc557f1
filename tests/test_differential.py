"""Differential pins: every backend is bit-identical to the serial run.

Every test here runs one (instance, seed, variant) case under several
backends and asserts the **canonical serializations** match byte-for-byte
(see ``tests/differential`` for what "canonical" strips — wall-clock
measurements only).  The reference is always the serial backend; byte
ledgers and virtual seconds are included in the comparison, because
every backend charges a message at its wire-codec frame length.

Matrix covered across the module:

* serial vs multiprocessing under **fork and spawn** vs the socket backend
  with two local workers, for ITS, CTS1 and CTS2;
* one seeded chaos plan (drops/duplicates/delays/straggles, crash-free)
  replayed on two fresh multiprocessing backends.
"""

from __future__ import annotations

import pytest

from repro.instances import gk_instance
from repro.parallel import MultiprocessingBackend, SerialBackend
from repro.parallel.faults import FaultKind, FaultPlan

from tests.differential import assert_differential, backend_matrix, run_canonical

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


class TestSerialDifferential:
    def test_runner_default_backend_matches_external_serial(self):
        # ``backend_factory=None`` exercises the runner-owned default path.
        reference = run_canonical(gk_instance(5))
        external = run_canonical(
            gk_instance(5), backend_factory=lambda: SerialBackend(4)
        )
        assert external == reference


class TestBackendDifferential:
    @pytest.mark.parametrize("variant", ["its", "cts1", "cts2"])
    def test_serial_mp_and_socket_are_byte_identical(self, variant, mp_context):
        assert_differential(
            gk_instance(5),
            backend_matrix(socket_context=mp_context),
            variant=variant,
            n_rounds=2,
            max_evaluations=1_000,
        )


class TestMultiprocessingDifferential:
    def test_mp_matches_serial_trajectory(self, mp_context):
        # One wire format: serial and mp agree on everything canonical,
        # byte ledgers and virtual seconds included.
        assert_differential(
            gk_instance(5),
            {
                "serial": lambda: SerialBackend(4),
                "mp": lambda: MultiprocessingBackend(4, mp_context=mp_context),
            },
            max_evaluations=1_200,
        )


class TestChaosDifferential:
    """One seeded crash-free chaos plan replayed on two fresh backends.

    Crash faults are excluded on purpose: a buried-and-respawned worker is
    pinned elsewhere (``tests/test_fault_injection.py``); here the plan
    must perturb *message flow* (drops, duplicates, delays, straggles)
    while leaving the trajectory a pure function of the plan — so two
    replays must agree byte-for-byte.
    """

    @staticmethod
    def _plan() -> FaultPlan:
        return FaultPlan.from_seed(
            101,
            n_slaves=4,
            n_rounds=3,
            report_drop_rate=0.15,
            duplicate_rate=0.2,
            delay_rate=0.2,
            straggle_rate=0.2,
        )

    def test_chaos_plan_replays_byte_identically(self):
        plan = self._plan()
        assert not any(
            e.kind is FaultKind.CRASH for e in plan.events
        ), "chaos differential requires a crash-free plan"

        def factory():
            return MultiprocessingBackend(4, fault_plan=plan, round_timeout_s=2.0)

        assert_differential(
            gk_instance(5),
            {"first": factory, "replay": factory},
            max_evaluations=1_000,
        )
