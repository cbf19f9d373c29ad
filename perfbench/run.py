"""The repository benchmark: one command, three workloads, two clocks.

    python3 perfbench/run.py --workload file_churn --seed 1 --seconds 10 --trace 0

Each invocation runs the workload in a fresh interpreter
(``worker.py``) with ``PYTHONHASHSEED`` pinned.  ``--trace 0`` reports
the end-to-end metrics of an untraced run.  ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer metrics
of the traced run together with the tracing overhead (traced over
untraced ops/s).  Every run checks the workload's gates and the
determinism guard:

* the simulated quantities of the traced run must equal the untraced
  run's, bit for bit;
* the simulated quantities of every run must equal those of any
  earlier run of the same program with the same workload, seed and
  seconds in this checkout.  Runs are kept in
  ``perfbench/.out/ledger.json``, keyed by a digest of the program's
  sources (``src/``) and the benchmark's own modules, so a change to
  the modelled design starts a fresh entry instead of failing.

A difference is flagged by ``"correct": false``, never averaged away.
The program digest and the digest of the simulated counters are
printed with the details, for comparing runs across checkouts.
The last line of standard output is the result object; the lines
before it print every metric with its unit.  Metric meanings, and
which layer metric should move which end-to-end metric on which
workload, are in ``metrics.json``.

Seeds 1-99 are for tuning.  Confirm a claimed gain on ``HELD_OUT_SEED``
as well, a seed not used while the change was written.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
WORKLOAD_NAMES = ("file_churn", "mixed_rw", "txn_crash")
HASH_SEED = "0"
HELD_OUT_SEED = 1_000_003
#: personality(2) flag: no address-space randomisation after exec.
ADDR_NO_RANDOMIZE = 0x0040000
#: Every run must finish within 180 s; leave room to report.
BUDGET_S = 170.0


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def pin_address_layout() -> bool:
    """Turn off address-space randomisation for the workers this process starts.

    Object addresses feed ``id``-based hashing and allocator placement;
    with them randomised, two runs of identical work differed by up to
    30% in host time on a 2-core VM, against about 5% with them pinned.
    Linux only; elsewhere the workers run with the default layout.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        return current != -1 and libc.personality(current | ADDR_NO_RANDOMIZE) != -1
    except (OSError, AttributeError):
        return False


def program_digest() -> str:
    """A digest of the code that decides the simulated results: the
    program's sources and the benchmark's own modules (tests excluded)."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(args, traced: bool, deadline: float):
    """Run one workload in a fresh interpreter; its result, or None."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--traced", "1" if traced else "0",
        "--out", str(args.out),
    ]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out ({'traced' if traced else 'untraced'})", file=sys.stderr)
        return None
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        print(f"worker exited with {completed.returncode}", file=sys.stderr)
        return None
    return json.loads(completed.stdout.strip().splitlines()[-1])


def ledger_problems(result: dict, program: str, out: Path) -> list:
    """Compare simulated results with earlier runs of the same program
    on the same inputs."""
    key = f"{program}/{result['workload']}/{result['seed']}/{result['seconds']}"
    path = out / "ledger.json"
    ledger = load_json(path) if path.exists() else {}
    entry = {"sim": result["sim"], "sim_digest": result["sim_digest"]}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = entry
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        return []
    if earlier != entry:
        return [f"determinism: {key} simulated results differ from an earlier run: {earlier} != {entry}"]
    return []


def gate_problems(result: dict) -> list:
    label = "traced" if result["traced"] else "untraced"
    return [f"{label} gate: {failure}" for failure in result["gate_failures"]]


def main(argv=None) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=OUT, help="directory for the ledger and span files"
    )
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + BUDGET_S
    layout_pinned = pin_address_layout()

    untraced = run_worker(args, traced=False, deadline=deadline)
    if untraced is None:
        return 1
    program = program_digest()
    problems = gate_problems(untraced) + ledger_problems(untraced, program, args.out)
    details = {
        "program_digest": program,
        "sim_digest": untraced["sim_digest"],
        "hash_seed": untraced["hash_seed"],
        "address_layout_pinned": layout_pinned,
        "failed_op_ratio": untraced["extra"]["failed_op_ratio"],
        "fsck_wall_ms": untraced["extra"]["fsck_wall_ms"],
        "op_samples": untraced["extra"]["op_samples"],
        "raw_ops_per_s": untraced["extra"]["raw_ops_per_s"],
        "calibrations": untraced["extra"]["calibrations"],
        "errors": untraced["errors"],
    }
    if args.trace:
        traced = run_worker(args, traced=True, deadline=deadline)
        if traced is None:
            return 1
        problems += gate_problems(traced)
        if (traced["sim"], traced["sim_digest"]) != (untraced["sim"], untraced["sim_digest"]):
            problems.append(
                f"determinism: traced run differs from untraced: {traced['sim']} != {untraced['sim']}"
            )
        metrics = dict(traced["layers"]["metrics"])
        metrics["op_wall_growth"] = untraced["extra"]["op_wall_growth"]
        metrics["trace.traced_over_untraced_ops_per_s"] = (
            traced["e2e"]["ops_per_s"] / untraced["e2e"]["ops_per_s"]
        )
        details["self_us_by_layer"] = traced["layers"]["self_us_by_layer"]
        details["unattributed_us"] = traced["layers"]["unattributed_us"]
        details["residual_us"] = traced["layers"]["residual_us"]
        details["traced_timed_us"] = traced["layers"]["timed_us"]
        problems += traced["layers"]["accounting_problems"]
        details["spans_file"] = traced["spans_file"]
        wanted = spec["per_layer"]
    else:
        metrics = untraced["e2e"]
        wanted = spec["end_to_end"]

    report = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    for name, item in report.items():
        print(f"{name:42s} {item['value']:>16.6g} {item['unit']}")
    if details["fsck_wall_ms"] is not None:
        print(f"{'fsck_wall_ms':42s} {details['fsck_wall_ms']:>16.6g} ms")
    print(f"{'failed_op_ratio':42s} {details['failed_op_ratio']:>16.6g} ratio")
    print(f"{'raw_ops_per_s':42s} {details['raw_ops_per_s']:>16.6g} ops/s")
    details["problems"] = problems
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": untraced["attempted"],
                "failed": untraced["failed"],
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
