"""Metric definitions: every name, its unit, and how an operation yields it.

``END_TO_END`` and ``PER_LAYER`` are the names and units ``BENCHMARK.json``
declares; ``test_selftest.py`` keeps the two in step.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from typing import Any

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end_metrics", "layer_metrics", "peak_rss_mb"]

END_TO_END: dict[str, str] = {
    "time_to_target_s.p50": "s",
    "solve_s.p50": "s",
    "deviation_pct": "%",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: dict[str, str] = {
    "core.ts.self_s": "s",
    "core.moves.apply.calls": "count",
    "core.moves.apply.self_s": "s",
    "core.intensify.swap.calls": "count",
    "core.intensify.swap.self_s": "s",
    "core.intensify.oscillation.calls": "count",
    "core.intensify.oscillation.self_s": "s",
    "core.diversify.calls": "count",
    "core.diversify.self_s": "s",
    "core.evaluations": "count",
    "core.evals_per_move": "ratio",
    "core.construction.fill.calls": "count",
    "core.construction.fill.self_s": "s",
    "parallel.runtime.execute.calls": "count",
    "parallel.runtime.execute.self_s": "s",
    "parallel.runtime.task_s.p50": "s",
    "parallel.codec.encode.calls": "count",
    "parallel.codec.encode.self_s": "s",
    "parallel.codec.encode.bytes": "B",
    "parallel.codec.decode.calls": "count",
    "parallel.codec.decode.self_s": "s",
    "parallel.codec.decode.bytes": "B",
    "parallel.carrier.send_s": "s",
    "parallel.carrier.recv_s": "s",
    "parallel.bytes_per_round": "B",
    "parallel.messages_per_round": "count",
    "parallel.round.scatter_s": "s",
    "parallel.round.gather_s": "s",
    "parallel.round.master_wait_s": "s",
    "parallel.round.gather_idle_s": "s",
    "parallel.dispatch.calls": "count",
    "parallel.dispatch.self_s": "s",
    "parallel.next_report.calls": "count",
    "parallel.next_report.wait_s": "s",
    "parallel.pipeline.max_staleness": "count",
    "parallel.pipeline.mean_queue_depth": "count",
    "parallel.pipeline.reclaimed_idle_s": "s",
    "parallel.failed_reports": "count",
    "master.isp.calls": "count",
    "master.isp.self_s": "s",
    "master.isp.random_restarts": "count",
    "master.sgp.calls": "count",
    "master.sgp.self_s": "s",
    "master.loop.self_s": "s",
    "master.rounds": "count",
    "master.improved_ratio": "ratio",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
}

#: layers whose calls and self time are reported under their own name
_TIMED_LAYERS = (
    "core.moves.apply",
    "core.intensify.swap",
    "core.intensify.oscillation",
    "core.diversify",
    "core.construction.fill",
    "parallel.codec.encode",
    "parallel.codec.decode",
    "parallel.dispatch",
    "master.isp",
    "master.sgp",
)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end_metrics(ops: list[Any], rss_mb: float) -> dict[str, float]:
    return {
        "time_to_target_s.p50": statistics.median([op.time_to_target_s for op in ops]),
        "solve_s.p50": statistics.median([op.solve_s for op in ops]),
        "deviation_pct": statistics.median([op.deviation_pct for op in ops]),
        "setup_s": statistics.median([op.setup_s for op in ops]),
        "peak_rss_mb": rss_mb,
    }


def _merge(summaries: list[dict]) -> dict[str, Counter]:
    merged: dict[str, Counter] = {k: Counter() for k in ("calls", "self_s", "total_s", "counts")}
    durations: dict[str, list[float]] = {}
    for summary in summaries:
        for key in merged:
            merged[key].update(summary[key])
        for name, values in summary["durations"].items():
            durations.setdefault(name, []).extend(values)
    merged["durations"] = durations  # type: ignore[assignment]
    return merged


def layer_metrics(op: Any) -> dict[str, float]:
    """Per-layer values of one traced operation (both solves together).

    ``op.layer_summaries[0]`` is the master's tracer; any further entries
    come from socket workers.  Durations and counts add across processes.
    """
    master = op.layer_summaries[0]
    merged = _merge(op.layer_summaries)
    calls, self_s, total_s, counts = (
        merged["calls"], merged["self_s"], merged["total_s"], merged["counts"]
    )
    results = (op.target, op.budget)
    rounds = sum(r.n_rounds for r in results)
    out: dict[str, float] = {}
    for layer in _TIMED_LAYERS:
        out[f"{layer}.calls"] = float(calls[layer])
        out[f"{layer}.self_s"] = self_s[layer]
    out["core.ts.self_s"] = self_s["core.ts"]
    out["core.evaluations"] = float(sum(r.total_evaluations for r in results))
    moves = counts["report_moves"]
    out["core.evals_per_move"] = counts["report_evaluations"] / moves if moves else 0.0
    out["parallel.runtime.execute.calls"] = float(calls["parallel.runtime.execute"])
    out["parallel.runtime.execute.self_s"] = (
        self_s["parallel.runtime.execute"] + self_s["parallel.runtime.execute_batch"]
    )
    # Worker-side task size: traced executes where workers are traced,
    # else the per-slave gather idle the backend publishes per round.
    task_s = merged["durations"].get("parallel.runtime.execute") or merged["durations"].get(
        "telemetry.gather_idle", []
    )
    out["parallel.runtime.task_s.p50"] = statistics.median(task_s) if task_s else 0.0
    out["parallel.codec.encode.bytes"] = float(counts["parallel.codec.encode.bytes"])
    out["parallel.codec.decode.bytes"] = float(counts["parallel.codec.decode.bytes"])
    out["parallel.carrier.send_s"] = self_s["parallel.carrier.send"]
    out["parallel.carrier.recv_s"] = self_s["parallel.carrier.recv"]
    out["parallel.bytes_per_round"] = sum(r.bytes_sent for r in results) / rounds
    # Master-side messages: carrier calls where a carrier is wrapped
    # (in-process and shm/pipe comms), else codec frames (socket).
    m_calls = Counter(master["calls"])
    carrier = m_calls["parallel.carrier.send"] + m_calls["parallel.carrier.recv"]
    codec = m_calls["parallel.codec.encode"] + m_calls["parallel.codec.decode"]
    out["parallel.messages_per_round"] = (carrier or codec) / rounds
    for key in ("scatter_s", "gather_s", "master_wait_s", "gather_idle_s"):
        out[f"parallel.round.{key}"] = float(counts[f"round.{key}"])
    out["parallel.next_report.calls"] = float(calls["parallel.next_report"])
    out["parallel.next_report.wait_s"] = total_s["parallel.next_report"]
    stats = [r.pipeline_stats for r in results if r.pipeline_stats]
    out["parallel.pipeline.max_staleness"] = max(
        (s["max_staleness"] for s in stats), default=0.0
    )
    out["parallel.pipeline.mean_queue_depth"] = (
        sum(s["mean_queue_depth"] for s in stats) / len(stats) if stats else 0.0
    )
    out["parallel.pipeline.reclaimed_idle_s"] = sum(s["reclaimed_idle_s"] for s in stats)
    out["parallel.failed_reports"] = float(
        sum(r.fault_summary.get("failed", 0) for r in results)
        + sum(s["burst_failures"] for s in stats)
    )
    out["master.isp.random_restarts"] = float(counts["master.isp.random_restarts"])
    out["master.loop.self_s"] = self_s["master.loop"]
    out["master.rounds"] = float(rounds)
    reports = counts["reports"]
    out["master.improved_ratio"] = counts["improved_reports"] / reports if reports else 0.0
    wall = op.time_to_target_s + op.solve_s
    out["trace.unattributed_pct"] = 100.0 * (wall - master["root_s"]) / wall
    return out
