"""Time-to-quality benchmark on GK24 (CTS2) -- see README.md next to this file.

Run from the root of a source checkout::

    python3 ttqbench/run.py --workload gk24-serial --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A human-readable report goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

#: where a traced run writes its spans, relative to the checkout
TRACE_DIR = ".ttqbench-trace"
#: share of the traced wall that may lie outside every layer span
UNATTRIBUTED_TOLERANCE_PCT = 5.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` on the path and import the solver package."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"ttqbench: no solver sources under {src}; run from the repository root"
        )
    sys.path.insert(0, src)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _write_spans(path: str, traced_ops: list) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        for index, op in enumerate(traced_ops):
            for process, spans in op.spans:
                for span_id, parent, name, start, end in spans:
                    fh.write(
                        json.dumps(
                            {
                                "op": index,
                                "seed": op.seed,
                                "process": process,
                                "id": span_id,
                                "parent": parent,
                                "name": name,
                                "start": start,
                                "end": end,
                            }
                        )
                        + "\n"
                    )


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _import_program()

    import workloads as wl
    from measure import FailureLedger, SeedSchedule, tail
    from report import END_TO_END, PER_LAYER, end_to_end_metrics, layer_metrics, peak_rss_mb

    if args.workload not in wl.WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
        return 2
    workload = wl.WORKLOADS[args.workload]
    problem = wl.Problem.load()
    pin = problem.pin_reasons()
    if pin:
        for reason in pin:
            _log(f"pinned input changed: {reason}")
        return 3

    schedule = SeedSchedule(workload.panel, args.seed)
    ledger = FailureLedger()

    # Untimed warm-up on a seed outside the panel: imports, forks and lazy
    # tables are paid here, never inside a measured operation.
    warm = wl.run_operation(
        workload, problem, schedule.warmup_seed,
        budget_rounds=2, with_target=False,
    )
    warm_reasons = wl.verify_result(problem, "warm-up solve", warm.budget)

    references: dict[int, tuple[float, int]] = {}

    def reference(seed: int) -> tuple[float, int] | None:
        if not workload.check_serial:
            return None
        if seed not in references:
            references[seed] = wl.serial_reference(workload, problem, seed)
        return references[seed]

    untraced: list = []
    traced: list = []
    # A traced run solves every seed traced; the first half of the pass
    # order is also solved untraced, just before, for trace.overhead_pct.
    order = schedule.order()
    twins = set(order[: (len(order) + 1) // 2]) if args.trace else set()

    def operation(seed: int) -> None:
        modes = ((False, True) if seed in twins else (True,)) if args.trace else (False,)
        for is_traced in modes:
            try:
                op = wl.run_operation(workload, problem, seed, traced=is_traced)
            except Exception as exc:  # one failed operation, counted once
                _log(traceback.format_exc())
                ledger.record(f"seed {seed}", [f"raised {type(exc).__name__}: {exc}"])
                continue
            if ledger.record(f"seed {seed}", wl.check_operation(
                workload, problem, op, reference(seed)
            )):
                (traced if is_traced else untraced).append(op)
            _log(
                f"  seed {seed}{' traced' if is_traced else ''}: setup {op.setup_s:.4f} s, "
                f"target in {op.target.n_rounds} rounds {op.time_to_target_s:.4f} s, "
                f"budget solve {op.solve_s:.4f} s, deviation {op.deviation_pct:.4f} %"
            )

    visited = schedule.visit(args.seconds, operation)
    if warm_reasons:
        ledger.record("warm-up", warm_reasons)

    correct = ledger.failed == 0
    for reason in ledger.reasons:
        _log(f"FAILED {reason}")
    _log(
        f"{workload.name}: {len(visited) // len(workload.panel)} pass(es) over "
        f"{len(workload.panel)} seeds, {ledger.attempted} operations, {ledger.failed} failed"
    )

    metrics: dict[str, float] = {}
    if args.trace:
        if not traced:
            correct = False
        else:
            per_op = [layer_metrics(op) for op in traced]
            metrics = {name: statistics.median([m[name] for m in per_op]) for name in PER_LAYER
                       if name != "trace.overhead_pct"}
            walls = {op.seed: op.time_to_target_s + op.solve_s for op in untraced}
            ratios = [
                (op.time_to_target_s + op.solve_s) / walls[op.seed] - 1.0
                for op in traced if op.seed in walls
            ]
            metrics["trace.overhead_pct"] = 100.0 * statistics.median(ratios) if ratios else 0.0
            path = os.path.join(TRACE_DIR, f"{workload.name}-seed{args.seed}.jsonl")
            _write_spans(path, traced)
            _log(f"spans written to {path}")
            if metrics["trace.unattributed_pct"] > UNATTRIBUTED_TOLERANCE_PCT:
                _log(
                    f"  trace.unattributed_pct exceeds the {UNATTRIBUTED_TOLERANCE_PCT} % "
                    "tolerance: the layer spans do not account for the traced wall"
                )
        units = PER_LAYER
    else:
        if not untraced:
            correct = False
        else:
            metrics = end_to_end_metrics(untraced, peak_rss_mb())
            for name, values in (
                ("time_to_target_s", [op.time_to_target_s for op in untraced]),
                ("solve_s", [op.solve_s for op in untraced]),
            ):
                t = tail(values)
                stated = f"p{t[0]:.0f} {t[1]:.4f} s" if t else "no tail (too few samples)"
                _log(f"  {name}: n={len(values)} p50 {statistics.median(values):.4f} s, {stated}")
        units = END_TO_END

    for name, value in metrics.items():
        _log(f"  {name:40s} {value:14.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bool(correct and metrics),
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in metrics
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    t_start = time.perf_counter()
    code = main()
    _log(f"ttqbench: {time.perf_counter() - t_start:.1f} s")
    sys.exit(code)
