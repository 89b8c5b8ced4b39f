"""Per-layer tracing for the benchmark's traced runs.

The program is traced from the outside: :class:`Tracer` replaces public
functions and methods of each layer with timing wrappers for the length of a
``with tracer.installed():`` block and restores the originals on exit.  Every
wrapped call appends one span ``[name, start_ns, duration_ns, parent]`` to an
in-memory list; ``parent`` is the index of the enclosing traced call (-1 for a
root), so a span's self time is its duration minus its direct children's.
Untraced runs never install anything, so end-to-end metrics see the program
exactly as a user runs it.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import repro.core.kernels as kernels
import repro.heuristics.base as heuristics_base
import repro.simulator.machine as sim_machine
import repro.simulator.mapping as sim_mapping
import repro.simulator.state as sim_state
from repro.core.pmf import DiscretePMF
from repro.heuristics.base import ScoreTable, TwoPhaseBatchHeuristic, VirtualSystemState
from repro.pruning.pruner import Pruner
from repro.serve.service import SchedulerCore
from repro.simulator.engine import HCSimulator
from repro.simulator.state import SystemState

#: Modules that bind ``chain_step`` by name; each binding is wrapped, so every
#: chain step is counted whichever layer takes it.
CHAIN_STEP_MODULES = (sim_state, heuristics_base, sim_machine, sim_mapping)

#: (owner, attribute, span name) of every wrapped method.
METHOD_SPANS = (
    (HCSimulator, "run", "engine"),
    (HCSimulator, "advance_until", "engine"),
    (HCSimulator, "finish_stream", "engine"),
    (TwoPhaseBatchHeuristic, "map_tasks", "heuristics.map_tasks"),
    (VirtualSystemState, "__init__", "virtual.fork"),
    (VirtualSystemState, "assign", "virtual.assign"),
    (ScoreTable, "best_pairs", "score_table.best_pairs"),
    (Pruner, "select_queue_drops", "pruner.select_queue_drops"),
    (Pruner, "prune_machine_queue", "pruner.prune_machine_queue"),
    (SystemState, "prune_prefix_meta", "state.prune_prefix_meta"),
    (SystemState, "availability", "state.availability"),
    (SystemState, "availability_excluding", "state.availability_excluding"),
    (DiscretePMF, "convolve", "pmf.convolve"),
    (SchedulerCore, "submit", "serve.core_submit"),
    (SchedulerCore, "flush", "serve.core_flush"),
    (SchedulerCore, "close", "serve.core_close"),
)

KERNEL_METHODS = (
    "shift",
    "convolve",
    "convolve_ragged",
    "sequential_sum",
    "success_probability",
    "expected_completion",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        #: Work counts recorded at layer boundaries (not spans).
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns() - start
                record[1] = start
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every layer wrapper; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attribute, replacement):
            saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)

        try:
            for owner, attribute, name in METHOD_SPANS:
                patch(owner, attribute, self.wrap(name, owner.__dict__[attribute]))
            patch(ScoreTable, "refresh_machines", self._score_table_fill())
            for module in CHAIN_STEP_MODULES:
                patch(module, "chain_step", self.wrap("completion.chain_step", module.chain_step))
            previous_backend = kernels.active_backend()
            kernels.set_active_backend(_TracedBackend(previous_backend, self))
            try:
                yield self
            finally:
                kernels.set_active_backend(previous_backend)
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def _score_table_fill(self):
        """``ScoreTable.refresh_machines`` traced, counting pairs scored."""
        original = ScoreTable.__dict__["refresh_machines"]
        counts = self.counts

        def refresh_machines(table, machine_indices, virtual):
            indices = list(machine_indices)
            original(table, indices, virtual)
            if indices:
                counts["score_table.pairs_scored"] += table.n * int(
                    table.machine_open[indices].sum()
                )

        return self.wrap("score_table.fill", functools.wraps(original)(refresh_machines))

    # ------------------------------------------------------------------
    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        ``total_s`` counts only outermost calls of a name, so a recursive or
        re-entrant name (``engine`` wraps ``run`` and the ``finish_stream`` it
        calls) is not counted twice.
        """
        child_ns = [0] * len(self.spans)
        for _, _, duration, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += duration
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for index, (name_id, _, duration, parent) in enumerate(self.spans):
            entry = stats[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += (duration - child_ns[index]) / 1e9
            if not self._has_ancestor_named(parent, name_id):
                entry["total_s"] += duration / 1e9
        return stats

    def _has_ancestor_named(self, parent: int, name_id: int) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == name_id:
                return True
            parent = span[3]
        return False

    def write(self, path: Path) -> None:
        """Write the spans as compact JSON (names table plus span rows)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "dur_ns", "parent"], "names": self.names,
                 "spans": self.spans, "counts": dict(self.counts)},
                handle,
                separators=(",", ":"),
            )


class _TracedBackend:
    """Kernel backend delegating to ``inner`` with each call traced.

    Installed process-wide through :func:`repro.core.kernels.set_active_backend`
    so every ``active_backend()`` dispatch site goes through it.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self.rtol = inner.rtol
        self.atol = inner.atol
        for method in KERNEL_METHODS:
            setattr(self, method, tracer.wrap(f"kernels.{method}", getattr(inner, method)))
