"""Tracked benchmarks for the packed-bitset codec and move-selection layer.

Three numbers, all folded into ``benchmarks/results/BENCH_bitset.json``:

* **hot-path moves/sec** on the pinned GK24 instance (same compound-move
  workload as ``bench_kernels.measure_hot_path``), compared against the
  PR-1 flat-array kernel baseline re-measured on this host — target >= 1.5x;
* **wire bytes per master round**: the packed-solution codec frames the
  serial backend charges (``MessageRouter.total_bytes``) over synchronous
  rounds;
* **master-round latency** for the same run (wall seconds per round).

``--smoke`` shrinks every budget to a seconds-scale run and *asserts* that
the wire bytes stay packed (about ``n/8`` bytes per solution) without
writing the results file — that mode is wired into CI so hot-path
regressions fail the build instead of silently landing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import time
from pathlib import Path

from bench_kernels import measure_hot_path
from repro.core.termination import Budget
from repro.instances import gk_suite
from repro.master.master import MasterConfig, MasterProcess
from repro.parallel.backends import SerialBackend

DEFAULT_OUT = Path(__file__).parent / "results" / "BENCH_bitset.json"

#: PR-1 kernel baseline for the identical workload, re-measured on the same
#: host immediately before the bitset layer landed (fastest of 3x3s windows,
#: ``git checkout <pr1>; python -c 'measure_hot_path(...)'``).  The tracked
#: speedup divides against this number, not the original BENCH_kernels.json
#: entry, so host drift between sessions cannot fake a win.
PR1_BASELINE = {
    "instance": "GK24-25x500",
    "seconds": 3.006,
    "repeats": 3,
    "moves": 22500,
    "evaluations": 13287551,
    "moves_per_sec": 7486.0,
    "evals_per_sec": 4420916.0,
}


def measure_master_round(
    *,
    n_slaves: int = 4,
    n_rounds: int = 4,
    evals_per_slave: int = 200_000,
    rng_seed: int = 42,
) -> dict:
    """Run a synchronous master over the serial backend; report bytes + time."""
    instance = gk_suite()[23]
    cfg = MasterConfig(n_slaves=n_slaves, n_rounds=n_rounds)
    backend = SerialBackend(cfg.n_slaves)
    master = MasterProcess(instance, cfg, backend, rng_seed=rng_seed)
    t0 = time.perf_counter()
    result = master.run(budget_per_slave=Budget(max_evaluations=evals_per_slave))
    elapsed = time.perf_counter() - t0
    router = backend.router
    return {
        "instance": instance.name,
        "n_items": instance.n_items,
        "n_slaves": n_slaves,
        "n_rounds": n_rounds,
        "evals_per_slave": evals_per_slave,
        "best_value": result.best.value,
        "best_x_sha": hashlib.sha256(result.best.x.tobytes()).hexdigest()[:16],
        "total_bytes": router.total_bytes,
        "bytes_per_round": round(router.total_bytes / n_rounds, 1),
        "bytes_by_tag": {str(k): v for k, v in sorted(router.bytes_by_tag.items())},
        "total_messages": router.total_messages,
        "wall_seconds": round(elapsed, 3),
        "seconds_per_round": round(elapsed / n_rounds, 4),
    }


def run_suite(*, seconds: float, repeats: int, rounds: int, evals: int) -> dict:
    hot = measure_hot_path(seconds=seconds, repeats=repeats)
    return {
        "pr1_baseline": PR1_BASELINE,
        "bitset_hot_path": hot,
        "moves_per_sec_speedup": round(
            hot["moves_per_sec"] / PR1_BASELINE["moves_per_sec"], 2
        ),
        "master_round": measure_master_round(n_rounds=rounds, evals_per_slave=evals),
    }


def smoke() -> None:
    """Seconds-scale CI gate: packed wire bytes always, throughput as a soft floor."""
    data = run_suite(seconds=1.0, repeats=1, rounds=2, evals=50_000)
    speedup = data["moves_per_sec_speedup"]
    rnd = data["master_round"]
    per_message = rnd["total_bytes"] / rnd["total_messages"]
    print(
        f"smoke: {data['bitset_hot_path']['moves_per_sec']:.0f} moves/s "
        f"({speedup:.2f}x vs the same-host kernel baseline), "
        f"{per_message:.0f} wire bytes/message"
    )
    # The byte count is deterministic -> hard-gate it: a task carries one
    # packed solution and a report 1 + elite_size, so the mean message must
    # stay below a single dense int8 vector (n bytes).  The throughput floor
    # is deliberately loose because CI hosts are noisy and differ from the
    # tracked-benchmark host.
    assert per_message < rnd["n_items"], f"wire frames not packed: {per_message} B/message"
    assert speedup >= 0.8, f"hot path regressed catastrophically: {speedup}x"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale CI gate")
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--evals", type=int, default=200_000)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.smoke:
        smoke()
        return

    data = run_suite(
        seconds=args.seconds, repeats=args.repeats, rounds=args.rounds, evals=args.evals
    )
    data["python"] = platform.python_version()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(data, indent=2) + "\n")
    print(
        f"bitset hot path: {data['bitset_hot_path']['moves_per_sec']:.0f} moves/s "
        f"({data['moves_per_sec_speedup']:.2f}x vs the kernel baseline), "
        f"{data['master_round']['bytes_per_round']:.0f} wire bytes/round -> {args.out}"
    )


if __name__ == "__main__":
    main()
