"""Run one workload once, in this interpreter, and print its measurements.

``run.py`` starts this file in a fresh interpreter with
``PYTHONHASHSEED`` pinned; the last line of standard output is one JSON
object: the end-to-end metrics, the simulated quantities the
determinism guard compares, the gate results and, for a traced run,
the per-layer metrics.

    python3 perfbench/worker.py --workload file_churn --seed 1 --seconds 10 --traced 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from hostclock import HostClock  # noqa: E402
from layers import LAYERS, NullRecorder, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Meter, nearest_rank  # noqa: E402

#: The simulated-clock end-to-end metrics: deterministic for one
#: (workload, seed, seconds), whatever the host and whether traced.
SIM_METRICS = (
    "sim_ops_per_s",
    "sim_op_p50_us",
    "sim_op_p99_us",
    "disk_refs_per_op",
    "device_bytes_per_user_byte",
    "sim_recovery_ms",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum_counters(counters: dict, prefix: str, suffix: str, exclude: str = "\0") -> int:
    return sum(
        value
        for name, value in counters.items()
        if name.startswith(prefix) and name.endswith(suffix) and exclude not in name
    )


def layer_metrics(recorder: SpanRecorder, meter: Meter, setup_repeats: int) -> dict:
    """The per-layer metrics of a traced run (see ``metrics.json``)."""
    timed = recorder.phase_totals("timed")
    recovery = recorder.phase_totals("recovery")
    setup = recorder.totals["setup"]
    counters = meter.counters
    ops = meter.attempted - meter.failed

    def us_per_op(layer: str) -> float:
        return _ratio(timed[layer].self_ns / 1000.0, ops)

    def per_call_us(layer: str) -> float:
        return _ratio(timed[layer].self_ns / 1000.0, timed[layer].entries)

    def calls_per_op(layer: str) -> float:
        return _ratio(timed[layer].entries, ops)

    # Spans read the raw host clock, so the accounting is in raw ns.
    attributed_ns = sum(totals.self_ns for totals in timed.values())
    residual_ns = meter.raw_timed_ns - attributed_ns
    unattributed_ns = recorder.idle_ns
    commits = counters.get("transactions.committed", 0)
    aborts = counters.get("transactions.aborted", 0)
    cycles = len(meter.recovery_wall_ns)
    recovered = [result for result in recovery["recovery"].results if result]
    metrics = {
        "agents.self_us_per_op": us_per_op("agents"),
        "agents.calls_per_op": calls_per_op("agents"),
        "agents.client_cache_hit_ratio": _ratio(
            _sum_counters(counters, "file_agent.", ".cache.hits"),
            _sum_counters(counters, "file_agent.", ".cache.hits")
            + _sum_counters(counters, "file_agent.", ".cache.misses"),
        ),
        "naming.self_us_per_op": us_per_op("naming"),
        "naming.calls_per_op": calls_per_op("naming"),
        "naming.shard_ops_per_op": _ratio(
            _sum_counters(counters, "naming_shard.", ".ops"), ops
        ),
        "rpc.self_us_per_op": us_per_op("rpc"),
        "rpc.calls_per_op": calls_per_op("rpc"),
        "rpc.messages_per_op": _ratio(counters.get("rpc.messages", 0), ops),
        "rpc.retransmit_ratio": _ratio(
            counters.get("rpc.retransmissions", 0), counters.get("rpc.messages", 0)
        ),
        "file_service.self_us_per_op": us_per_op("file_service"),
        "file_service.calls_per_op": calls_per_op("file_service"),
        "file_service.pool_hit_ratio": _ratio(
            _sum_counters(counters, "file_server.", ".block_pool.hits"),
            _sum_counters(counters, "file_server.", ".block_pool.hits")
            + _sum_counters(counters, "file_server.", ".block_pool.misses"),
        ),
        "file_service.fit_stores_per_op": _ratio(
            _sum_counters(counters, "file_server.", ".fit_stores"), ops
        ),
        "disk_alloc.calls_per_op": calls_per_op("disk_alloc"),
        "disk_alloc.self_us_per_call": per_call_us("disk_alloc"),
        "disk_alloc.setup_self_ms": setup["disk_alloc"].self_ns / 1e6 / setup_repeats,
        "disk_flush.calls_per_op": calls_per_op("disk_flush"),
        "disk_flush.self_us_per_call": per_call_us("disk_flush"),
        "disk_flush.stable_sectors_per_call": _ratio(
            timed["disk_flush"].counted, timed["disk_flush"].entries
        ),
        "disk_io.self_us_per_op": us_per_op("disk_io"),
        "disk_io.calls_per_op": calls_per_op("disk_io"),
        "disk_io.track_cache_hit_ratio": _ratio(
            _sum_counters(counters, "disk_cache.", ".hits"),
            _sum_counters(counters, "disk_cache.", ".hits")
            + _sum_counters(counters, "disk_cache.", ".misses"),
        ),
        "disk_io.queue_wait_p50_us": nearest_rank(
            meter.samples["disk_service.queue_wait_us"], 50
        ),
        "disk_io.queue_wait_p99_us": nearest_rank(
            meter.samples["disk_service.queue_wait_us"], 99
        ),
        "simdisk.self_us_per_op": us_per_op("simdisk"),
        "simdisk.calls_per_op": calls_per_op("simdisk"),
        "simdisk.data_sectors_written_per_op": _ratio(
            _sum_counters(counters, "disk.", ".sectors_written", exclude=".stable_"), ops
        ),
        "simdisk.stable_sectors_written_per_op": _ratio(
            _sum_counters(counters, "disk.", ".stable_a.sectors_written")
            + _sum_counters(counters, "disk.", ".stable_b.sectors_written"),
            ops,
        ),
        "simdisk.busy_us_per_op": _ratio(_sum_counters(counters, "disk.", ".busy_us"), ops),
        "transactions.self_us_per_commit": _ratio(
            timed["transactions"].self_ns / 1000.0, commits
        ),
        "transactions.calls_per_op": calls_per_op("transactions"),
        "transactions.commit_ratio": _ratio(commits, commits + aborts),
        "transactions.lock_waits_per_commit": _ratio(meter.lock_waits, commits),
        "transactions.commit_p50_us": nearest_rank(
            meter.samples["transactions.commit_us"], 50
        ),
        "replication.self_us_per_call": per_call_us("replication"),
        "replication.calls_per_op": calls_per_op("replication"),
        "replication.replica_writes_per_write": _ratio(
            meter.run_counters.get("replication.replica_writes", 0),
            meter.run_counters.get("replication.writes", 0),
        ),
        "simkernel.self_us_per_op": us_per_op("simkernel"),
        "recovery.self_ms_per_cycle": _ratio(recovery["recovery"].self_ns / 1e6, cycles),
        "recovery.redone_per_cycle": _ratio(sum(r[0] for r in recovered), cycles),
        "recovery.discarded_per_cycle": _ratio(sum(r[1] for r in recovered), cycles),
        "verify.self_ms_per_call": _ratio(
            recovery["verify"].self_ns / 1e6, recovery["verify"].calls
        ),
        "verify.disk_gets_per_call": _ratio(
            sum(meter.fsck_disk_gets), len(meter.fsck_disk_gets)
        ),
        "verify.orphaned_fragments": meter.orphaned_fragments,
        "bench.self_us_per_op": us_per_op("bench"),
        "unattributed.self_us_per_op": _ratio(unattributed_ns / 1000.0, ops),
        "trace.unattributed_share": _ratio(unattributed_ns, meter.raw_timed_ns),
    }
    return {
        "metrics": metrics,
        "self_us_by_layer": {
            layer: timed[layer].self_ns / 1000.0 for layer in LAYERS
        },
        "unattributed_us": unattributed_ns / 1000.0,
        "residual_us": residual_ns / 1000.0,
        "timed_us": meter.raw_timed_ns / 1000.0,
        "accounting_problems": accounting_problems(unattributed_ns, residual_ns),
    }


def accounting_problems(unattributed_ns: int, residual_ns: int) -> list:
    """The span-free time of the timed windows must equal what the
    layers' self times leave of the windows, and be non-negative."""
    problems = []
    if unattributed_ns != residual_ns:
        problems.append(
            f"trace accounting: {unattributed_ns} ns outside spans, but the "
            f"windows less the layers' self times leave {residual_ns} ns"
        )
    if unattributed_ns < 0:
        problems.append(f"trace accounting: negative unattributed time {unattributed_ns} ns")
    return problems


def run(workload_name: str, seed: int, seconds: int, traced: bool, out: Path = OUT) -> dict:
    """Set up, run and check one workload; returns the measurements."""
    workload_cls = WORKLOADS[workload_name]
    recorder = SpanRecorder() if traced else NullRecorder()
    if traced:
        recorder.install()
    # Set-up is timed several times and reported as the median; the
    # traced run sets up once (its set-up time is not reported).
    repeats = 1 if traced else workload_cls.setup_repeats
    clock = HostClock()

    def tick() -> None:
        kernel_ns = clock.tick()
        if kernel_ns:
            recorder.exclude(kernel_ns)

    setup_ns = []
    for _ in range(repeats):
        workload = None  # let the previous set-up's cluster go first
        gc.collect()
        clock.calibrate()
        workload = workload_cls(seed, seconds)
        clock.begin_window(time.perf_counter_ns())
        workload.setup(tick)
        setup_ns.append(clock.end_window(time.perf_counter_ns())[0])
    meter = Meter(workload.cluster, recorder, clock)
    recorder.set_phase("other")
    workload.run(meter)
    workload.finish(meter)
    meter.run_counters = workload.cluster.metrics.snapshot()
    summary = meter.summary(setup_ns)
    summary["e2e"]["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    result = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "attempted": meter.attempted,
        "failed": meter.failed,
        "errors": meter.errors,
        "gate_failures": meter.gate_failures,
        "e2e": summary["e2e"],
        "extra": summary["extra"],
        "sim": {name: summary["e2e"][name] for name in SIM_METRICS},
        "sim_digest": meter.sim_digest(),
    }
    if traced:
        recorder.uninstall()
        result["layers"] = layer_metrics(recorder, meter, repeats)
        spans_path = out / f"spans-{workload_name}-{seed}.json"
        recorder.write_spans(spans_path)
        result["spans_file"] = str(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, default=OUT, help="directory for the span file")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.traced), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
