"""Report types for law checks and scripted demonstrations, and their JSON text.

Reports are value objects with a stable JSON form; rendering them with the
same inputs twice produces byte-identical output, which the command-line
front end relies on for reproducibility checks.  ``dump_json`` writes a
record as ``json.dumps`` would, chunk by chunk, and renders its float arrays
in runs of rows from the cached text of all-zero runs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LawReport:
    """Outcome of randomized trials of one algebraic law.

    ``passed`` is ``None`` when no trials ran (reported as "skipped").
    ``counterexample`` holds the worst failing trial, when there is one: its
    index, its replay command, its systems and named draws, and the
    ``error`` it raised, if any.  A non-finite ``max_residual`` (a trial
    raised, or its residual was NaN) is written as JSON ``null`` and read
    back as ``inf``.
    """

    law_id: str
    description: str
    trials: int
    max_residual: float | None
    passed: bool | None
    seed: int
    counterexample: dict | None = None

    @property
    def status(self) -> str:
        if self.passed is None:
            return "skipped"
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        payload = {
            "law_id": self.law_id,
            "description": self.description,
            "trials": self.trials,
            "max_residual": self.max_residual if self.max_residual is None or math.isfinite(self.max_residual) else None,
            "status": self.status,
            "seed": self.seed,
        }
        if self.counterexample is not None:
            payload["counterexample"] = self.counterexample
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "LawReport":
        status, residual = payload["status"], payload["max_residual"]
        return cls(
            law_id=payload["law_id"],
            description=payload["description"],
            trials=payload["trials"],
            max_residual=math.inf if residual is None and status == "fail" else residual,
            passed=None if status == "skipped" else status == "pass",
            seed=payload["seed"],
            counterexample=payload.get("counterexample"),
        )


@dataclass
class ScenarioResult:
    """Outcome of one scripted demonstration.

    ``findings`` maps names to record values: matrices as ``matrix_to_json``
    arrays, verdict booleans and margins, all written by ``dump_json``;
    ``summary`` holds human-oriented lines, one per key step.  ``passed`` is
    ``None`` when nothing was checked (reported as "skipped").
    """

    scenario_id: str
    findings: dict
    summary: list[str] = field(default_factory=list)
    passed: bool | None = True

    def to_json(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "passed": self.passed,
            "findings": self.findings,
            "summary": self.summary,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ScenarioResult":
        return cls(
            scenario_id=payload["scenario_id"],
            findings=payload["findings"],
            summary=list(payload["summary"]),
            passed=payload["passed"],
        )


def render_law_table(reports: list[LawReport]) -> str:
    """Aligned-column text rendering of a batch of law reports."""
    rows = [("LAW", "STATUS", "TRIALS", "MAX RESIDUAL")]
    for report in reports:
        residual = "-" if report.max_residual is None else f"{report.max_residual:.3e}"
        if "error" in (report.counterexample or {}):
            residual = "error"
        rows.append((report.law_id, report.status, str(report.trials), residual))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for report in reports:
        counts[report.status] += 1
    lines.append("")
    lines.append(
        f"{len(reports)} laws: {counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['skipped']} skipped"
    )
    return "\n".join(lines)


def render_scenario(result: ScenarioResult) -> str:
    lines = [f"scenario: {result.scenario_id}"]
    lines.extend(f"  {line}" for line in result.summary)
    lines.append(f"  verdict: {({True: 'PASS', False: 'FAIL', None: 'SKIPPED'})[result.passed]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON text.
# ---------------------------------------------------------------------------

#: Leaves of the longest run: a bigger float array is written in runs of whole
#: rows, so no string or write grows with the payload.
BLOCK_FLOATS = 1024


def dump_json(payload, stream) -> None:
    """Write exactly ``json.dumps(payload, indent=2, default=np.ndarray.tolist, allow_nan=False)``
    to ``stream``, one write per chunk, without the per-value generators of
    the pure-Python encoder that ``indent`` selects.

    Dicts with ``str`` keys, lists and tuples are walked.  A non-empty finite
    float64 array of rank >= 1 whose rows fit in a run is written by ``_runs``;
    any other array of more than ``BLOCK_FLOATS`` entries is walked along its
    first axis, and every other value is handed to ``json.dumps`` itself.
    """
    stream.writelines(_chunks(payload, 0))


def _chunks(value, depth: int):
    """The text of ``value`` at nesting ``depth``, in order, as strings."""
    kind = type(value)
    if kind is np.ndarray:
        if value.dtype == np.float64 and value.ndim and value.size and value.size // len(value) <= BLOCK_FLOATS and np.isfinite(value).all():
            yield from _runs(value, depth)
            return
        if value.size > BLOCK_FLOATS:
            # A vector's items are numpy scalars, which json.dumps refuses; its list holds Python ones.
            kind, value = list, list(value) if value.ndim > 1 else value.tolist()
    if kind is dict and value and all(type(key) is str for key in value):
        brackets = "{}"
        entries = ((json.dumps(key) + ": ", item) for key, item in value.items())
    elif (kind is list or kind is tuple) and value:
        brackets = "[]"
        entries = (("", item) for item in value)
    else:
        # JSON strings never hold a raw newline, so every newline here is a line
        # break that json.dumps would indent by the enclosing depth.
        yield json.dumps(value, indent=2, default=np.ndarray.tolist, allow_nan=False).replace("\n", "\n" + "  " * depth)
        return
    inner = "\n" + "  " * (depth + 1)
    separator = brackets[0] + inner
    for prefix, item in entries:
        yield separator + prefix
        yield from _chunks(item, depth + 1)
        separator = "," + inner
    yield "\n" + "  " * depth + brackets[1]


def _runs(value: np.ndarray, depth: int):
    """The text at ``depth`` of a non-empty finite float64 array of rank >= 1
    whose rows hold at most ``BLOCK_FLOATS`` leaves, in runs of as many whole
    rows as fit, each one string with its ``"["`` or ``","`` in front.  A run
    is the cached all-zero body of its shape, with ``repr`` in place of
    ``"0.0"`` at each leaf whose bits are not all zero, so ``-0.0`` is
    formatted and only ``+0.0`` is skipped.  Even an all-zero run is a new
    string, never the cached body, so a stream that keeps its writes holds the
    output's size whatever its zeros."""
    flat = value.ravel()
    rows = min(len(value), BLOCK_FLOATS // (flat.size // len(value)))
    run = flat.size // len(value) * rows
    leaves = np.flatnonzero(flat.view(np.uint64))
    # Each run's leaves, by one search; a shorter last run's body is a prefix of a full one's.
    cuts = np.searchsorted(leaves, np.arange(0, flat.size + run, run)).tolist()
    body, offsets = _zero_text((rows, *value.shape[1:]), depth)
    ats, numbers = offsets[leaves % run].tolist(), flat[leaves].tolist()
    for start, low, high in zip(range(0, len(value), rows), cuts, cuts[1:]):
        if start + rows > len(value):
            body = _zero_text(value[start:].shape, depth)[0]
        pieces, end = ["," if start else "["], 0
        for at, number in zip(ats[low:high], numbers[low:high]):
            pieces += body[end:at], repr(number)
            end = at + 3
        pieces.append(body[end:])
        yield "".join(pieces)
    yield "\n" + "  " * depth + "]"


@functools.lru_cache(maxsize=128)
def _zero_text(shape: tuple[int, ...], depth: int) -> tuple[str, np.ndarray]:
    """The body of an all-zero float array of ``shape`` at ``depth``, the text
    inside its outer brackets, and the read-only offsets of its leaves'
    ``"0.0"``, in row-major order."""
    text = "0.0"
    for level in reversed(range(len(shape))):
        inner = "\n" + "  " * (depth + level + 1)
        text = "[" + inner + ("," + inner).join([text] * shape[level]) + "\n" + "  " * (depth + level) + "]"
    text = text[1 : -2 * depth - 2]
    # Each leaf holds the text's only kind of ".", one character in.
    offsets = np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == ord(".")) - 1
    offsets.flags.writeable = False
    return text, offsets
