"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions listed in :data:`FUNCTIONS`
with timing wrappers, without editing any file of the program:

* modules bind names with ``from .evolution import ...``, so every
  module-level binding in ``noumenal.*`` that *is* the original function
  object is replaced, including the defining module's own global (which
  calls inside that module go through);
* methods (``SystemLattice.system``, ``OperatorMatrix.to_json``) are
  replaced on their class;
* each law check is wrapped by rebinding ``noumenal.laws.LAWS`` to wrapped
  ``Law`` copies, since ``run_law_suite`` reads it at call time.

Spans (name, start, end, parent) are kept in memory and written out by the
caller at the end; :meth:`Tracer.restore` puts the originals back.  A span's
self time is its duration minus the durations of its child spans, which do
not overlap because the program is single-threaded; so the self times of
all spans add up exactly to the duration of the root ``cli.main`` spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import Counter

from check import LAW_IDS

#: Instrumented functions, named ``<module>.<function>`` or
#: ``<module>.<Class>.<method>`` after the modules of ``src/noumenal/``.
FUNCTIONS = (
    "lattice.SystemLattice.system",
    "linalg.index_map",
    "linalg.embed_operator",
    "linalg.haar_unitary",
    "linalg.partial_trace",
    "linalg.matrix_to_json",
    "evolution.from_global_unitary",
    "evolution.noumenal_action",
    "evolution.change_of_basis",
    "evolution.noumenal_partial_trace",
    "evolution.noumenal_product",
    "evolution.consistency_check",
    "evolution.noumenal_distance",
    "evolution.OperatorMatrix.to_json",
    "phenomenal.phi",
    "phenomenal.surjectivity_witness",
    "extension.ext_product",
    "extension.ext_epimorphism",
    "demos.no_signalling_demo",
    "circuits.load_circuit",
    "circuits.simulate_circuit",
    "cli.main",
)

#: Functions whose returned grid counts towards ``evolution.grid_mb``.
GRID_PRODUCERS = frozenset({
    "evolution.from_global_unitary",
    "evolution.noumenal_action",
    "evolution.change_of_basis",
    "evolution.noumenal_partial_trace",
    "evolution.noumenal_product",
})

MB = 2**20

#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    **{f"{fn}.{field}": unit for fn in FUNCTIONS for field, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"laws.{law_id}.total_s": "s" for law_id in LAW_IDS},
    "evolution.grid_mb": "MB",
    "cli.output_mb": "MB",
    "trace_overhead_s": "s",
}


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "noumenal" or name.startswith("noumenal."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.grid_bytes = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        counts_grids = name in GRID_PRODUCERS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counts_grids:
                self.grid_bytes += result.entries.nbytes
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name in FUNCTIONS:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"noumenal.{module_name}")
            if len(path) == 2:
                owner = getattr(module, path[0])
                self._set(owner, path[1], self._wrap(owner.__dict__[path[1]], name))
                continue
            original = getattr(module, path[0])
            wrapper = self._wrap(original, name)
            for mod in _package_modules():
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    self._set(mod, attr, wrapper)
        laws = importlib.import_module("noumenal.laws")
        self._set(laws, "LAWS", tuple(
            dataclasses.replace(law, check=self._wrap(law.check, f"laws.{law.law_id}"))
            for law in laws.LAWS
        ))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, invocations: int, output_bytes: int) -> tuple[dict, int, int]:
        """Per-invocation layer metrics, the summed self time and the summed
        root-span time (both in ns; equal when the spans nest)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        root_ns = 0
        for (name, start, end, parent), children in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - children
            total_ns[name] += end - start
            if parent < 0:
                root_ns += end - start
        n = max(invocations, 1)
        metrics = {}
        for fn in FUNCTIONS:
            metrics[f"{fn}.calls"] = calls[fn] / n
            metrics[f"{fn}.self_s"] = self_ns[fn] / n / 1e9
        for law_id in LAW_IDS:
            metrics[f"laws.{law_id}.total_s"] = total_ns[f"laws.{law_id}"] / n / 1e9
        metrics["evolution.grid_mb"] = self.grid_bytes / n / MB
        metrics["cli.output_mb"] = output_bytes / MB
        return metrics, sum(self_ns.values()), root_ns

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
