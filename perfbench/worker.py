"""Run one workload in this (fresh) process and print one JSON line.

Started by ``run.py``; not meant to be run by hand.  The process:

1. imports numpy and ``noumenal`` (from the ``src/`` beside this directory),
   builds the workload's inputs and makes one untimed warm-up invocation of
   ``noumenal.cli.main``; the time from the start of this script to here is
   ``setup_s``;
2. checks the warm-up's output (``check.py``); its bytes are the reference
   every later invocation in this process must repeat exactly;
3. invokes ``cli.main`` repeatedly within ``--seconds`` (at least once),
   timing each invocation from argv to exit code with its output written to
   a counting, hashing sink;
4. with ``--trace``, does step 3 twice, untraced and then traced
   (``spans.py``), and reports per-layer figures.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"


class CountingSink(io.TextIOBase):
    """Stdout replacement: counts and hashes the UTF-8 bytes written; keeps
    the text only when asked (the warm-up, whose output is checked)."""

    def __init__(self, keep: bool = False):
        self.bytes = 0
        self._digest = hashlib.sha256()
        self._parts: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.bytes += len(data)
        self._digest.update(data)
        if self._parts is not None:
            self._parts.append(text)
        return len(text)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def text(self) -> str:
        return "".join(self._parts or ())


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def invoke(cli, argv: list[str], keep: bool = False):
    """One ``cli.main(argv)`` call: (exit code, wall s, cpu s, sink).

    An exception escaping ``cli.main`` is reported as exit code ``None``."""
    sink = CountingSink(keep)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
    wall = time.perf_counter() - t0
    return code, wall, _cpu_seconds() - cpu0, sink


def invocation_problems(code, text: str, prepared) -> list[str]:
    """Why one invocation failed: a non-zero exit or a failed output check."""
    import check

    problems = [] if code == 0 else [f"exit code {code!r}"]
    kind = prepared.argv[0]
    if kind == "verify":
        problems += check.check_verify(text, prepared.params["trials"])
    elif kind == "demo":
        problems += check.check_demo(text, prepared.params["trials"])
    else:
        problems += check.check_simulate(text, prepared.circuit)
    return problems


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read through numpy's own BLAS library."""
    import numpy as np

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return int(fn())
    return None


def _read_proc(path: str, key: str) -> str | None:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_kb = _read_proc("/proc/meminfo", "MemTotal")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_proc("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_gb": round(int(mem_kb.split()[0]) / 2**20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def timed_loop(cli, prepared, seconds: float, ref, ref_failed: bool):
    """Invoke at least once, and again while the next call, if it lasts as
    long as the last one, ends within ``seconds``; returns wall and cpu lists
    and the failure reasons of each failed call.  A call fails when it exits
    non-zero, when its output differs from ``ref``, or when ``ref_failed``
    (the warm-up's output, which it repeats, failed its check)."""
    walls, cpus, failures = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        code, wall, cpu, sink = invoke(cli, prepared.argv)
        walls.append(wall)
        cpus.append(cpu)
        if code != 0:
            failures.append(f"exit code {code!r}")
        elif (sink.digest, sink.bytes) != ref:
            failures.append("output differs from the warm-up's output")
        elif ref_failed:
            failures.append("output repeats the warm-up's failed output")
    return walls, cpus, failures


def main() -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload in this process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (part of the measured set-up)

    try:
        from noumenal import cli
    except ImportError as exc:
        print(f"worker: cannot import noumenal from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"worker: noumenal was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    prepared = workloads.prepare(args.workload, args.seed, args.size, WORK_DIR)
    code, _, _, warm_sink = invoke(cli, prepared.argv, keep=True)
    setup_s = time.perf_counter() - _T_START

    problems = invocation_problems(code, warm_sink.text(), prepared)
    ref = (warm_sink.digest, warm_sink.bytes)
    del warm_sink
    env = environment()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        problems.append(f"BLAS uses {env['blas_threads']} threads on {env['nproc']} cpus")
    result = {
        "setup_s": setup_s,
        "seed": args.seed,
        "output_bytes": ref[1],
        "ops": prepared.ops,
        "params": prepared.params,
        "env": env,
        "warmup_problems": problems,
    }
    seconds = args.seconds / 2 if args.trace else args.seconds
    walls, cpus, failures = timed_loop(cli, prepared, seconds, ref, bool(problems))
    result.update(wall_s=walls, cpu_s=cpus, failures=failures)
    if args.trace:
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.update(trace_run(cli, prepared, seconds, (ref, bool(problems)),
                                statistics.median(walls), spans_path))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def trace_run(cli, prepared, seconds: float, ref_check: tuple, untraced_wall: float,
              spans_path: Path) -> dict:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        walls, _, failures = timed_loop(cli, prepared, seconds, *ref_check)
    finally:
        tracer.restore()
    layers, self_ns, root_ns = tracer.summary(len(walls), ref_check[0][1])
    layers["trace_overhead_s"] = statistics.median(walls) - untraced_wall
    if self_ns != root_ns:
        failures.append(f"span self times sum to {self_ns} ns, root spans to {root_ns} ns")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return {"traced_wall_s": walls, "trace_failures": failures, "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
