"""The wire format: codec frames, the worker-pipe endpoint, the problem frame.

Three layers, matching :mod:`repro.parallel.shm`:

* **WireCodec** — property round-trips for tasks, reports and their
  batched envelopes (every budget-flag combination), the per-entry size
  ledger, and strict decoding: truncated, padded or mislabelled frames
  raise :class:`~repro.parallel.shm.FrameError`;
* **ShmComm** — a live master↔worker endpoint pair over a real pipe:
  frames travel in-band, both ends book the codec lengths, control
  messages keep the pickled path;
* **problem frame** — the socket REBIND payload round-trips an instance
  and a non-default config, and rejects any frame whose lengths, shapes
  or dtypes disagree with its header.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diversification import DiversificationConfig
from repro.core.solution import Solution
from repro.core.strategy import Strategy, StrategyBounds
from repro.core.tabu_search import IntensificationKind, TabuSearchConfig
from repro.core.termination import Budget
from repro.parallel.comm import PipeComm
from repro.parallel.message import RESULT_TAG, TASK_TAG, SlaveReport, SlaveTask
from repro.parallel.shm import (
    FrameError,
    ShmComm,
    WireCodec,
    decode_problem,
    encode_problem,
)


def _random_solution(rnd: random.Random, n_items: int) -> Solution:
    x = np.array([rnd.randint(0, 1) for _ in range(n_items)], dtype=np.int8)
    return Solution.trusted(x, float(rnd.randint(0, 10**6)))


def _random_task(rnd: random.Random, n_items: int) -> SlaveTask:
    return SlaveTask(
        x_init=_random_solution(rnd, n_items),
        strategy=Strategy(rnd.randint(1, 50), rnd.randint(1, 20), rnd.randint(1, 99)),
        budget=Budget(
            max_evaluations=rnd.choice([None, rnd.randint(0, 2**40)]),
            max_moves=rnd.choice([None, rnd.randint(0, 2**40)]),
            wall_seconds=rnd.choice([None, rnd.random() * 100]),
            target_value=rnd.choice([None, float(rnd.randint(0, 10**6))]),
        ),
        seed=rnd.randint(-(2**62), 2**62),
        round_index=rnd.randint(0, 10_000),
        seq_id=rnd.randint(0, 2**40),
    )


def _random_report(rnd: random.Random, n_items: int) -> SlaveReport:
    return SlaveReport(
        slave_id=rnd.randint(0, 1000),
        best=_random_solution(rnd, n_items),
        elite=[_random_solution(rnd, n_items) for _ in range(rnd.randint(0, 5))],
        initial_value=float(rnd.randint(0, 10**6)),
        evaluations=rnd.randint(0, 2**40),
        moves=rnd.randint(0, 2**40),
        round_index=rnd.randint(0, 10_000),
        seq_id=rnd.randint(0, 2**40),
    )


def _assert_tasks_equal(a: SlaveTask, b: SlaveTask) -> None:
    assert np.array_equal(a.x_init.x, b.x_init.x)
    assert a.x_init.value == b.x_init.value
    assert a.strategy.as_tuple() == b.strategy.as_tuple()
    assert (
        a.budget.max_evaluations,
        a.budget.max_moves,
        a.budget.wall_seconds,
        a.budget.target_value,
    ) == (
        b.budget.max_evaluations,
        b.budget.max_moves,
        b.budget.wall_seconds,
        b.budget.target_value,
    )
    assert (a.seed, a.round_index, a.seq_id) == (b.seed, b.round_index, b.seq_id)


def _assert_reports_equal(a: SlaveReport, b: SlaveReport) -> None:
    assert a.slave_id == b.slave_id
    assert np.array_equal(a.best.x, b.best.x)
    assert a.best.value == b.best.value
    assert len(a.elite) == len(b.elite)
    for ea, eb in zip(a.elite, b.elite):
        assert np.array_equal(ea.x, eb.x)
        assert ea.value == eb.value
    assert a.initial_value == b.initial_value
    assert (a.evaluations, a.moves) == (b.evaluations, b.moves)
    assert (a.round_index, a.seq_id) == (b.round_index, b.seq_id)


# ---------------------------------------------------------------------- #
# Codec frames
# ---------------------------------------------------------------------- #


class TestWireCodec:
    @given(st.integers(1, 300), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_task_round_trip(self, n_items, seed):
        rnd = random.Random(seed)
        codec = WireCodec(n_items)
        task = _random_task(rnd, n_items)
        frame = codec.encode_task(task)
        _assert_tasks_equal(codec.decode_task(frame), task)
        assert codec.decode(frame).seq_id == task.seq_id  # kind dispatch
        assert codec.frame_nbytes(task) == len(frame)

    @given(st.integers(1, 300), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_report_round_trip(self, n_items, seed):
        rnd = random.Random(seed)
        codec = WireCodec(n_items)
        report = _random_report(rnd, n_items)
        frame = codec.encode_report(report)
        _assert_reports_equal(codec.decode_report(frame), report)
        assert codec.frame_nbytes(report) == len(frame)

    @given(st.integers(1, 120), st.integers(1, 6), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_batch_round_trips_and_size_ledger(self, n_items, count, seed):
        rnd = random.Random(seed)
        codec = WireCodec(n_items)
        entries = [(k, _random_task(rnd, n_items)) for k in range(count)]
        frame, sizes = codec.encode_task_batch(entries)
        decoded, entry_sizes = codec.decode_task_batch(frame)
        assert [k for k, _ in decoded] == [k for k, _ in entries]
        for (_, a), (_, b) in zip(entries, decoded):
            _assert_tasks_equal(b, a)
        # Per-entry sizes must equal the standalone frame lengths: a batch
        # books the same bytes as its tasks sent one by one.
        assert entry_sizes == [len(codec.encode_task(t)) for _, t in entries]
        assert sizes == {k: len(codec.encode_task(t)) for k, t in entries}

        reports = [_random_report(rnd, n_items) for _ in range(count)]
        rframe, rsizes = codec.encode_report_batch(reports)
        rdecoded, rentry_sizes = codec.decode_report_batch(rframe)
        for a, b in zip(reports, rdecoded):
            _assert_reports_equal(b, a)
        assert rentry_sizes == rsizes
        assert rsizes == [len(codec.encode_report(r)) for r in reports]

    def test_kind_mismatch_is_loud(self):
        codec = WireCodec(10)
        rnd = random.Random(0)
        task_frame = codec.encode_task(_random_task(rnd, 10))
        with pytest.raises(ValueError, match="not a report frame"):
            codec.decode_report(task_frame)
        with pytest.raises(ValueError, match="unknown frame kind"):
            codec.decode(bytes([99]) + task_frame[1:])

    @given(st.integers(1, 80), st.integers(0, 3), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_every_truncation_and_padding_is_rejected(self, n_items, count, seed):
        rnd = random.Random(seed)
        codec = WireCodec(n_items)
        frame, _ = codec.encode_report_batch(
            [_random_report(rnd, n_items) for _ in range(count)]
        )
        for cut in range(len(frame)):
            with pytest.raises(FrameError):
                codec.decode_report_batch(frame[:cut])
        with pytest.raises(FrameError, match="trailing"):
            codec.decode_report_batch(frame + b"\x00")
        task = codec.encode_task(_random_task(rnd, n_items))
        with pytest.raises(FrameError):
            codec.decode_task(task[:-1])
        with pytest.raises(FrameError, match="trailing"):
            codec.decode_task(task + b"\x00")

    def test_decoded_solution_arrives_with_packing_memo(self):
        rnd = random.Random(5)
        codec = WireCodec(130)
        report = codec.decode_report(codec.encode_report(_random_report(rnd, 130)))
        assert "_packed_words" in report.best.__dict__


# ---------------------------------------------------------------------- #
# Worker-pipe endpoint
# ---------------------------------------------------------------------- #


@pytest.fixture
def comm_pair():
    parent_conn, child_conn = multiprocessing.Pipe()
    master = ShmComm(PipeComm(parent_conn), WireCodec(40))
    worker = ShmComm(PipeComm(child_conn), WireCodec(40))
    try:
        yield master, worker
    finally:
        master.close()
        worker.close()


class TestShmComm:
    def test_task_and_report_round_trip_with_matching_ledgers(self, comm_pair):
        master, worker = comm_pair
        rnd = random.Random(7)
        task = _random_task(rnd, 40)
        master.send(task, tag=TASK_TAG)
        tag, got = worker.recv_message(timeout=5.0)
        assert tag == TASK_TAG
        _assert_tasks_equal(got, task)

        report = _random_report(rnd, 40)
        worker.send(report, tag=RESULT_TAG)
        _assert_reports_equal(master.recv(tag=RESULT_TAG, timeout=5.0), report)
        codec = WireCodec(40)
        assert master.bytes_sent == worker.bytes_received == len(codec.encode(task))
        assert worker.bytes_sent == master.bytes_received == len(codec.encode(report))

    def test_batched_send_charges_per_entry_sizes(self, comm_pair):
        master, worker = comm_pair
        rnd = random.Random(11)
        entries = [(k, _random_task(rnd, 40)) for k in range(4)]
        sizes = master.send_tasks(entries)
        tag, got = worker.recv_message(timeout=5.0)
        assert tag == TASK_TAG
        assert [k for k, _ in got] == [0, 1, 2, 3]
        assert worker.last_entry_nbytes == [sizes[k] for k, _ in entries]
        assert master.bytes_sent == sum(sizes.values())
        assert worker.bytes_received == sum(sizes.values())

    def test_control_messages_keep_the_pickled_path(self, comm_pair):
        master, worker = comm_pair
        master.send(("instance", "config"), tag=5)
        tag, body = worker.recv_message(timeout=5.0)
        assert tag == 5
        assert body == ("instance", "config")
        assert master.bytes_sent > 0


# ---------------------------------------------------------------------- #
# Problem frame (socket REBIND)
# ---------------------------------------------------------------------- #

_CONFIG = TabuSearchConfig(
    nb_div=7,
    elite_size=5,
    intensification=IntensificationKind.SWAP,
    oscillation_depth=2,
    diversification=DiversificationConfig(0.7, 0.1, 12),
    bounds=StrategyBounds(lt_length=(3, 30), core_ratio=(0.5, 1.0), load_balanced=False),
    add_candidates=3,
)


def _split(frame: bytes) -> tuple[dict, bytes]:
    (head_len,) = struct.unpack_from("<I", frame, 0)
    return json.loads(frame[4 : 4 + head_len]), frame[4 + head_len :]


def _misshape(header: dict) -> None:
    """Same total byte count, but capacities no longer match the weights."""
    (m, n) = header["arrays"][0][2]
    header["arrays"][0][2] = [m - 1, n]
    header["arrays"][1][2] = [m + n]


def _join(header: dict, body: bytes) -> bytes:
    head = json.dumps(header).encode()
    return struct.pack("<I", len(head)) + head + body


class TestProblemFrame:
    def test_round_trip(self, small_instance):
        instance, config = decode_problem(encode_problem(small_instance, _CONFIG))
        assert config == _CONFIG
        assert instance.name == small_instance.name
        assert instance.optimum == small_instance.optimum
        assert instance.best_known == small_instance.best_known
        assert instance.content_hash() == small_instance.content_hash()

    def test_arrays_travel_as_raw_bytes(self, small_instance):
        header, body = _split(encode_problem(small_instance, TabuSearchConfig()))
        m, n = small_instance.shape
        assert header["arrays"] == [
            ["weights", "<f8", [m, n]], ["capacities", "<f8", [m]], ["profits", "<f8", [n]],
        ]
        assert len(body) == 8 * (m * n + m + n)

    def test_truncated_or_padded_frame_is_rejected(self, small_instance):
        frame = encode_problem(small_instance, TabuSearchConfig())
        for cut in (0, 3, 10, len(frame) - 1):
            with pytest.raises(FrameError):
                decode_problem(frame[:cut])
        with pytest.raises(FrameError, match="trailing"):
            decode_problem(frame + b"\x00" * 8)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["arrays"][0].__setitem__(1, "<i8"),
            lambda h: h["arrays"][0].__setitem__(2, [1, 1]),
            lambda h: h["arrays"][1].__setitem__(2, [-1]),
            lambda h: h["arrays"].reverse(),
            lambda h: h["config"].__setitem__("nb_div", "7"),
            lambda h: h["config"].__setitem__("intensification", "sideways"),
            lambda h: h["config"]["bounds"].__setitem__("core_ratio", [0.5]),
            lambda h: h["config"].pop("add_candidates"),
            lambda h: h.__setitem__("name", 5),
            lambda h: h.__setitem__("extra", 1),
            _misshape,
        ],
    )
    def test_header_disagreeing_with_body_is_rejected(self, small_instance, edit):
        header, body = _split(encode_problem(small_instance, _CONFIG))
        edit(header)
        with pytest.raises(FrameError):
            decode_problem(_join(header, body))
