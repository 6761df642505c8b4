"""Report types for law checks and scripted demonstrations.

Reports are value objects with a stable JSON form; rendering them with the
same inputs twice produces byte-identical output, which the command-line
front end relies on for reproducibility checks.
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

#: Entries of the largest array rendered as one string.  Bigger arrays are
#: rendered in runs of whole rows of at most this many entries, so no string,
#: list or write grows with the payload.
BLOCK_FLOATS = 1024

#: ``dump_json`` writes once this many characters have accumulated.
WRITE_CHARS = 1 << 16


def dump_json(payload, stream) -> None:
    """Write exactly ``json.dumps(payload, indent=2, default=np.ndarray.tolist, allow_nan=False)``
    to ``stream``, without the per-value generators of the pure-Python encoder
    that ``indent`` selects, in pieces of about ``WRITE_CHARS`` characters.

    Dicts with ``str`` keys, lists and tuples are walked; an array of more than
    ``BLOCK_FLOATS`` entries renders in runs of whole rows of at most that many,
    or is walked along its first axis when a row does not fit.  A non-empty
    finite float64 array or run is rendered from the cached all-zero text of
    its shape; every other value is handed to ``json.dumps`` itself.
    """
    pending: list[str] = []
    size = 0
    for chunk in _chunks(payload, 0):
        pending.append(chunk)
        size += len(chunk)
        if size >= WRITE_CHARS:
            stream.write("".join(pending))
            pending, size = [], 0
    stream.write("".join(pending))


def _chunks(value, depth: int):
    """The text of ``value`` at nesting ``depth``, in order, as strings."""
    kind = type(value)
    if kind is np.ndarray and value.size > BLOCK_FLOATS:
        rows = BLOCK_FLOATS // (value.size // len(value))
        if rows:
            # Runs share the array's outer brackets; each writes its block's body.
            yield "["
            for start in range(0, len(value), rows):
                yield from ("," if start else "", _block(value[start : start + rows], depth, True))
            yield "\n" + "  " * depth + "]"
            return
        kind, value = list, list(value)
    if kind is dict and value and all(type(key) is str for key in value):
        brackets = "{}"
        entries = ((json.dumps(key) + ": ", item) for key, item in value.items())
    elif (kind is list or kind is tuple) and value:
        brackets = "[]"
        entries = (("", item) for item in value)
    else:
        yield _block(value, depth)
        return
    inner = "\n" + "  " * (depth + 1)
    separator = brackets[0] + inner
    for prefix, item in entries:
        yield separator + prefix
        yield from _chunks(item, depth + 1)
        separator = "," + inner
    yield "\n" + "  " * depth + brackets[1]


def _block(value, depth: int, body: bool = False) -> str:
    """The text of a value that is not walked, at nesting ``depth``; ``body`` as in ``_float_block``."""
    if type(value) is np.ndarray and value.dtype == np.float64 and value.ndim and value.size and np.isfinite(value).all():
        return _float_block(value, depth, body)
    # JSON strings never hold a raw newline, so every newline here is a line
    # break that json.dumps would indent by the enclosing depth.
    text = json.dumps(value, indent=2, default=np.ndarray.tolist, allow_nan=False)
    text = text.replace("\n", "\n" + "  " * depth)
    return text[1 : -2 * depth - 2] if body else text


def _float_block(value: np.ndarray, depth: int, body: bool = False) -> str:
    """A non-empty finite float64 array of rank >= 1 rendered at ``depth``
    (with ``body``, inside its outer brackets only): the cached all-zero
    text, with ``repr`` in place of ``"0.0"`` at each leaf whose bits are not
    all zero, so ``-0.0`` is formatted and only ``+0.0`` is skipped.  An
    all-zero block is the cached string itself."""
    text, offsets = _zero_text(value.shape, depth, True) if body else _zero_text(value.shape, depth)
    flat = value.ravel()
    leaves = flat.view(np.uint64).nonzero()[0]
    if not leaves.size:
        return text
    pieces, end = [], 0
    for at, leaf in zip(offsets[leaves].tolist(), flat[leaves].tolist()):
        pieces += text[end:at], repr(leaf)
        end = at + 3
    pieces.append(text[end:])
    return "".join(pieces)


@functools.lru_cache(maxsize=128)
def _zero_text(shape: tuple[int, ...], depth: int, body: bool = False) -> tuple[str, np.ndarray]:
    """The text of an all-zero float block of ``shape`` at ``depth``, or its
    ``body``, and the read-only offsets of its leaves' ``"0.0"``, in row-major
    order.  ``body`` is passed only when true, so no text has two keys."""
    text = "0.0"
    for level in reversed(range(len(shape))):
        inner = "\n" + "  " * (depth + level + 1)
        text = "[" + inner + ("," + inner).join([text] * shape[level]) + "\n" + "  " * (depth + level) + "]"
    text = text[1 : -2 * depth - 2] if body else text
    # Each leaf holds the text's only kind of ".", one character in.
    offsets = np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == ord(".")) - 1
    offsets.flags.writeable = False
    return text, offsets
