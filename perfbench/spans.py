"""In-memory span tracer for hamrec's module boundaries.

While installed, the tracer replaces the module-level names through which
one hamrec layer calls another (``hamrec.reconstruct.chs_from_arrays``,
``hamrec.cli.sample_noisy``, ...) with timing wrappers, and puts the
originals back when it is removed. Nothing inside the package is edited.
A name that no longer exists is recorded as absent and its metrics read 0;
the run goes on.

Spans are ``[name, start, end, parent, op]`` rows kept in memory and
written out once, when the benchmark ends. A span's self time is its
duration minus that of its children; calls are sequential in one thread,
so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict

import numpy as np


def _count_pairs(tracer, args, kwargs, result):
    counts = tracer.counts[tracer.op]
    counts["core.pairwise_calls"] += 1
    counts["core.pairs_computed"] += int(result.size)
    counts["core.pairs_in_range"] += int(np.count_nonzero(result < tracer.n_bins))
    arrays = [a for a in (*args, *kwargs.values(), result) if isinstance(a, np.ndarray)]
    counts["core.pairwise_bytes"] += sum(a.nbytes for a in arrays)


def _count_hammer(tracer, args, kwargs, result):
    steps = ("pair_evaluations_step1", "pair_evaluations_step3")
    tracer.counts[tracer.op]["reconstruct.pairs_logical"] += sum(
        getattr(result, s, 0) for s in steps
    )


def _count_sample(tracer, args, kwargs, result):
    counts = tracer.counts[tracer.op]
    counts["synth.trials"] += args[2] if len(args) > 2 else kwargs.get("trials", 0)
    counts["synth.outcomes"] += len(result)


# (module, attribute, span name, counter). A pairwise call is named after
# the pass whose module makes it: analysis for CHS, reconstruct for scores.
BOUNDARIES = (
    ("hamrec.cli", "sample_noisy", "synth.sample", _count_sample),
    ("hamrec.cli", "hammer", "reconstruct.hammer", _count_hammer),
    ("hamrec.reconstruct", "hammer", "reconstruct.hammer", _count_hammer),
    ("hamrec.cli", "merit_report", "metrics.merit", None),
    ("hamrec.cli", "c_min", "qaoa_cost.c_min", None),
    ("hamrec.cli", "quality_curve", "qaoa_cost.curve", None),
    ("hamrec.cli", "load_distribution", "core.parse", None),
    ("hamrec.cli", "distribution_from_json_obj", "core.parse", None),
    ("hamrec.cli", "save_distribution", "core.write", None),
    ("hamrec.core", "Distribution", "core.distribution", None),
    ("hamrec.synth", "Distribution", "core.distribution", None),
    ("hamrec.reconstruct", "Distribution", "core.distribution", None),
    ("hamrec.reconstruct", "pack_outcomes", "core.pack", None),
    ("hamrec.reconstruct", "chs_from_arrays", "analysis.chs_pass", None),
    ("hamrec.analysis", "pairwise_distances", "core.pairwise.chs", _count_pairs),
    ("hamrec.reconstruct", "pairwise_distances", "core.pairwise.score", _count_pairs),
)

# Work a counter does after its span ends; a span of its own, so that it
# leaves the parent's self time.
COUNT_SPAN = "trace.count"


class Tracer:
    """Spans and counts of one benchmark run, grouped by operation id."""

    def __init__(self, n_bins: int):
        self.n_bins = n_bins  # distances below this are in range (d < n/2)
        self.spans: list[list] = []
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, module, attr: str, name: str, counter) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                with self.span(COUNT_SPAN):
                    counter(self, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        self.absent.clear()
        try:
            for module_name, attr, name, counter in BOUNDARIES:
                self._wrap(importlib.import_module(module_name), attr, name, counter)
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def times(self, op: int) -> tuple[Counter, Counter]:
        """Total and self seconds per span name within one operation.

        Totals leave out the counters' own work; self times leave out all
        children, counters included.
        """
        total, own = Counter(), Counter()
        children, counting = defaultdict(float), defaultdict(float)
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == op]
        for _, (name, start, end, parent, _) in rows:
            if parent >= 0:
                children[parent] += end - start
            while name == COUNT_SPAN and parent >= 0:
                counting[parent] += end - start
                parent = self.spans[parent][3]
        for i, (name, start, end, _, _) in rows:
            total[name] += end - start - counting[i]
            own[name] += end - start - children[i]
        return total, own

    def to_json_obj(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
            "absent": sorted(set(self.absent)),
        }
