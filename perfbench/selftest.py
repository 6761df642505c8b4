"""Quick self-test of the benchmark (about half a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names the metrics and workloads the code
emits, that the generator reproduces the checked-in circuit, that the output
check rejects crafted outputs with a NaN or ``-1.0`` residual even when the
exit code is 0, that every workload runs at its smallest size with every
metric present, and that the benchmark refuses to run without the program's
source.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import check
import gen_circuit
import run
import spans
import workloads
from worker import invocation_problems

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in manifest["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json workloads match workloads.py")
    expect({m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end metrics match run.py")
    expect({m["name"]: m["unit"] for m in manifest["per_layer"]} == spans.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer metrics match spans.py")


def check_generator() -> None:
    stored = (BENCH_DIR / "inputs" / "simulate-7q-seed0.json").read_text()
    expect(gen_circuit.dumps(gen_circuit.make_circuit(0, 7)) == stored,
           "generator reproduces inputs/simulate-7q-seed0.json")


def _verify_text(residual) -> str:
    laws = [{"law_id": law_id, "status": "pass", "trials": 2, "max_residual": 0.0}
            for law_id in check.LAW_IDS]
    laws[5]["max_residual"] = residual
    return json.dumps({"command": "verify", "laws": laws, "passed": True}, indent=2)


def _simulate_text(circuit: dict, residual, phenomenal) -> str:
    steps = [{"step": k, "tracked": [{"system": ids, "phenomenal": phenomenal,
                                      "cross_check_residual": 0.0} for ids in circuit["track"]]}
             for k in range(len(circuit["gates"]) + 1)]
    steps[1]["tracked"][0]["cross_check_residual"] = residual
    return json.dumps({"steps": steps, "passed": True}, indent=2)


def check_crafted_outputs() -> None:
    verify = workloads.Prepared(["verify"], 60, {"trials": 2})
    expect(not invocation_problems(0, _verify_text(1e-15), verify), "a clean verify output passes")
    for bad in (math.nan, -1.0, math.inf, 1e-3):
        expect(bool(invocation_problems(0, _verify_text(bad), verify)),
               f"verify output with residual {bad!r} and exit code 0 counts as failed")
    missing = json.loads(_verify_text(0.0))
    missing["laws"].pop()
    expect(bool(invocation_problems(0, json.dumps(missing), verify)),
           "verify output missing a law counts as failed")

    demo = workloads.Prepared(["demo"], 1, {"trials": 1})
    findings = {"trials": 1, "noumenal_max_residual": 0.0, "phenomenal_max_residual": math.nan}
    expect(bool(invocation_problems(0, json.dumps({"passed": True, "findings": findings}), demo)),
           "demo output with a NaN residual and exit code 0 counts as failed")

    circuit = gen_circuit.make_circuit(3, 3)
    sim = workloads.Prepared(["simulate"], 4, {}, circuit)
    rho = check.reference_density(circuit, circuit["track"][-1])
    good = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    wrong = [[[float(z.real), float(z.imag)] for z in row] for row in rho[::-1]]
    expect(not invocation_problems(0, _simulate_text(circuit, 0.0, good), sim),
           "a clean simulate output passes")
    expect(bool(invocation_problems(0, _simulate_text(circuit, math.nan, good), sim)),
           "simulate output with a NaN residual and exit code 0 counts as failed")
    expect(bool(invocation_problems(0, _simulate_text(circuit, 0.0, wrong), sim)),
           "simulate output whose last state misses the reference counts as failed")


def _run(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_smoke_runs() -> None:
    for name in workloads.NAMES:
        for trace, expected in ((0, run.END_TO_END_UNITS), (1, spans.PER_LAYER_UNITS)):
            proc = _run(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.2",
                        "--trace", str(trace), "--size", "smoke")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {}
            metrics = result.get("metrics", {})
            expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
                   and {k: m.get("unit") for k, m in metrics.items()} == expected,
                   f"{name} --trace {trace} at smoke size: every metric present, outputs correct")


def check_refuses_without_source() -> None:
    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, "--workload", workloads.NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without src/noumenal the benchmark exits non-zero and prints no result")


def main() -> int:
    check_manifest()
    check_generator()
    check_crafted_outputs()
    check_smoke_runs()
    check_refuses_without_source()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
