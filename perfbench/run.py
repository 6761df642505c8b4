"""Benchmark of the ``noumenal`` CLI: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-d8 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

With ``--trace 0`` a run starts ``PROCESSES`` fresh processes
(``worker.py``), one after another; process ``k`` runs the workload's input
for program seed ``PROCESSES * seed + k``, sets up, and then times
invocations for its share of ``--seconds``.  Pooling the invocations of
several processes spreads the samples over the whole run, which steadies the
median on a host whose speed drifts, and over several inputs, which steadies
it against seed-dependent cost.  With ``--trace 1`` a single process (program
seed ``PROCESSES * seed``) times untraced, then traced invocations and the
result holds the per-layer metrics.  The last line of stdout is the JSON result; the lines before it
print every metric with its unit, and a JSON record of the environment,
sizes and sample counts.

Exit codes: 0 all outputs correct, 1 an output check failed, 2 the
benchmark could not run (for instance no ``src/noumenal`` beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Fresh processes per trace-0 run; ``setup_s`` is the median of their set-up
#: times and ``peak_rss_mb`` the largest of their peaks.
PROCESSES = 3

#: A run must end within this many seconds.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Percentiles reported when at least ten samples lie beyond them.
PERCENTILES = (50, 90, 99, 99.9)


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker(name: str, args, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--size", args.size, *flags]
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        requested = env.get(var, "")
        if not requested.isdigit() or not 0 < int(requested) <= nproc:
            env[var] = str(nproc)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name}: worker ran past the {RUN_BUDGET_S}s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{name}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def git_record() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*argv: str) -> str | None:
        try:
            proc = subprocess.run(["git", *argv], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {"sha": sha, "dirty": None if status is None else bool(status)}


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of :data:`PERCENTILES` with at least ten samples above it."""
    ordered = sorted(samples)
    best = None
    for pct in PERCENTILES:
        rank = int(len(ordered) * pct / 100)  # samples at or below the percentile
        if len(ordered) - rank >= 10 and rank >= 1:
            best = (pct, ordered[rank - 1])
    return best


def run_workload(name: str, args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    first = PROCESSES * args.seed
    if args.trace:
        records = [_worker(name, args, first, args.seconds, deadline, "--trace")]
    else:
        records = [_worker(name, args, first + k, args.seconds / PROCESSES, deadline)
                   for k in range(PROCESSES)]
    ops = records[0]["ops"]

    problems, calls, failed_calls = [], 0, 0
    for rec in records:
        warmup = rec["warmup_problems"]
        failures = rec["failures"] + rec.get("trace_failures", [])
        problems += warmup + failures
        calls += 1 + len(rec["wall_s"]) + len(rec.get("traced_wall_s", ()))
        failed_calls += bool(warmup) + len(failures)
    failed_calls = min(failed_calls, calls)
    walls = [w for rec in records for w in rec["wall_s"]]

    if args.trace:
        metrics = {key: {"value": records[0]["layers"][key], "unit": unit}
                   for key, unit in spans.PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(rec["setup_s"] for rec in records),
            "wall_s": statistics.median(walls),
            "ops_per_s": ops * len(walls) / sum(walls),
            "cpu_s": statistics.median(c for rec in records for c in rec["cpu_s"]),
            "peak_rss_mb": max(rec["peak_rss_mb"] for rec in records),
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": not problems,
        "attempted": ops * calls,
        "failed": ops * failed_calls,
        "metrics": metrics,
    }
    tail = tail_percentile(walls)
    detail = {
        "workload": name,
        "seed": args.seed,
        "program_seeds": [rec["seed"] for rec in records],
        "size": args.size,
        "params": [rec["params"] for rec in records],
        "ops_per_invocation": ops,
        "output_bytes": [rec["output_bytes"] for rec in records],
        "wall_s_samples": len(walls),
        "wall_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "setup_s_samples": [rec["setup_s"] for rec in records],
        "error_rate": result["failed"] / result["attempted"],
        "problems": list(dict.fromkeys(problems))[:20],
        "env": records[0]["env"],
        "git": git_record(),
    }
    return result, detail


def print_table(name: str, result: dict, detail: dict) -> None:
    print(f"{name}  seed {detail['seed']}  {detail['params'][0]}  "
          f"({detail['wall_s_samples']} timed invocations)")
    for key, metric in result["metrics"].items():
        print(f"  {key:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<48} {detail['error_rate']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark the noumenal CLI")
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'smoke' runs the smallest inputs (used by selftest.py)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "noumenal" / "__init__.py").is_file():
        print(f"run.py: no program source at {ROOT / 'src' / 'noumenal'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(name, args)
            print_table(name, result, detail)
            print(json.dumps({"detail": detail}))
            results[name] = result
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
