"""Command-line front end.

Three commands:

* ``simulate`` runs a circuit file and emits both state descriptions of
  every tracked system after each gate;
* ``verify`` runs the randomized law suite on a lattice, or one trial of it;
* ``demo`` runs one of the named demonstrations.

Output is JSON or aligned text; runs are deterministic under a fixed seed
and configuration.  Exit codes: 0 all checks pass, 1 a law or verdict
failed, 2 bad input or out of memory, 141 stdout closed before the output
was written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .circuits import load_circuit, simulate_circuit
from .demos import bell_incompleteness_demo, no_signalling_demo
from .errors import NoumenalError, ParseError
from .lattice import SystemLattice
from .laws import run_law_suite
from .linalg import TOL_EQ
from .reports import dump_json, render_law_table, render_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PIPE = 128 + 13  # the shell's code for a process ended by SIGPIPE

DEMO_NAMES = ("bell-incompleteness", "no-signalling")


def _parse_ints(text: str, sep: str, option: str, example: str) -> list[int]:
    try:
        return [int(part) for part in text.split(sep)]
    except ValueError as exc:
        raise ParseError(f"{option} expects integers like {example!r}, got {text!r}") from exc


def _parse_dims(text: str) -> list[int]:
    return _parse_ints(text, "x", "--atoms", "2x2x2")


def _parse_track(text: str) -> list[list[int]]:
    return [_parse_ints(group.strip(), ",", "--track", "0;0,1") for group in text.split(";")]


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        dump_json(payload, sys.stdout)
        print()
    else:
        print(text)


def _validate_config(args: argparse.Namespace) -> None:
    if getattr(args, "trials", 0) < 0:
        raise NoumenalError(f"--trials must be >= 0, got {args.trials}")
    if getattr(args, "seed", 0) < 0:
        raise NoumenalError(f"--seed must be >= 0, got {args.seed}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ParseError(f"--tol must be finite and > 0, got {args.tol}")


def cmd_simulate(args: argparse.Namespace) -> int:
    circuit = load_circuit(args.file)
    if args.track is not None:
        circuit.track = [circuit.lattice.system(ids) for ids in _parse_track(args.track)]
    record = simulate_circuit(circuit, tol=args.tol)
    lines = []
    for step in record["steps"]:
        gate = step["gate"] if step["gate"] is not None else "(initial)"
        for entry in step["tracked"]:
            lines.append(
                f"step {step['step']:>3}  {gate:<8} system {entry['system']}: "
                f"cross-check residual {entry['cross_check_residual']:.3e}"
            )
    lines.append(f"max cross-check residual: {record['max_cross_check_residual']:.3e}")
    lines.append("PASS" if record["passed"] else "FAIL")
    _emit(record, "\n".join(lines), args.format)
    return EXIT_PASS if record["passed"] else EXIT_FAIL


def cmd_verify(args: argparse.Namespace) -> int:
    lattice = SystemLattice.from_dims(_parse_dims(args.atoms))
    reports = run_law_suite(
        lattice, args.trials, args.seed, args.tol, args.self_test_bug, args.law, args.trial
    )
    verdicts = {report.passed for report in reports}  # all None: no law ran, so nothing passed
    passed = None if verdicts <= {None} else False not in verdicts
    payload = {
        "command": "verify",
        "atoms": list(lattice.dims),
        "trials": args.trials,
        "seed": args.seed,
        "tolerance": args.tol,
        "self_test_bug": args.self_test_bug,
        "laws": [report.to_json() for report in reports],
        "passed": passed,
    }
    _emit(payload, render_law_table(reports), args.format)
    return EXIT_FAIL if passed is False else EXIT_PASS


def cmd_demo(args: argparse.Namespace) -> int:
    lattice = SystemLattice.from_dims(_parse_dims(args.atoms))
    a_atoms = None if args.bipartition is None else _parse_ints(args.bipartition, ",", "--bipartition", "0,2")
    if args.name == "bell-incompleteness":
        if a_atoms not in (None, [0], [1]):
            raise ParseError(f"bell-incompleteness takes --bipartition 0 or 1, got {args.bipartition!r}")
        result = bell_incompleteness_demo(lattice, swap=a_atoms == [1])
    else:
        result = no_signalling_demo(lattice, args.trials, args.seed, a_atoms=a_atoms, tol=args.tol)
    _emit(result.to_json(), render_scenario(result), args.format)
    return EXIT_FAIL if result.passed is False else EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noumenal",
        description="Dual-representation simulation of unitary quantum systems "
        "and randomized verification of its algebraic laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--tol", type=float, default=TOL_EQ, help="equality tolerance")

    p_sim = sub.add_parser("simulate", help="run a circuit file, tracking both descriptions")
    p_sim.add_argument("--file", required=True, help="circuit JSON file")
    p_sim.add_argument("--track", help="systems to track, e.g. '0;0,1' (overrides the file)")
    add_common(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the randomized law suite")
    p_ver.add_argument("--atoms", default="2x2", help="atom dims, e.g. '2x2x2'")
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--self-test-bug",
        action="store_true",
        help="perturb every grid to prove the suite can fail",
    )
    p_ver.add_argument("--law", help="run only the law with this id")
    p_ver.add_argument("--trial", type=int, help="run only this trial index (< --trials), exactly")
    add_common(p_ver)
    p_ver.set_defaults(handler=cmd_verify)

    p_demo = sub.add_parser("demo", help="run a named demonstration")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--atoms", default="2x2", help="atom dims, e.g. '2x2'")
    p_demo.add_argument("--trials", type=int, default=100)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--bipartition", help="atom ids of system A, e.g. '0,2'")
    add_common(p_demo)
    p_demo.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        _validate_config(args)
        return args.handler(args)
    except NoumenalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: send what is left to devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: out of memory: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
