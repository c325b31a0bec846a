"""Step timing and layer spans, taken from outside the engine.

Both work by rebinding public names: a module-level function is replaced
in every ``svcgov`` module that holds it (``orchestrator.admissible``,
``bench.admissible``, ...), a method is replaced on its class.  Nothing
under ``src/`` is edited, and ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

#: (module, attribute) of every traced module-level function.
FUNCTIONS = (
    ("svcgov.ontology", "is_refinement"),
    ("svcgov.ontology", "load_schema"),
    ("svcgov.model", "semantic_lift"),
    ("svcgov.model", "type_soundness"),
    ("svcgov.transform", "generate_candidates"),
    ("svcgov.transform", "apply"),
    ("svcgov.transform", "edit_distance"),
    ("svcgov.evaluation", "evaluate"),
    ("svcgov.evaluation", "core_value"),
    ("svcgov.evaluation", "identity_breakdown"),
    ("svcgov.evaluation", "detect_regime"),
    ("svcgov.certificates", "environment_digest"),
    ("svcgov.canon", "canonical_dumps"),
    ("svcgov.certify", "admissible"),
    ("svcgov.certify", "certify_closure"),
    ("svcgov.certify", "certify_stability"),
    ("svcgov.certify", "certify_capacity"),
    ("svcgov.certify", "certify_invariance"),
    ("svcgov.certify", "certify_substitution"),
    ("svcgov.certify", "structural_charge"),
    ("svcgov.memory", "find_transportable"),
    ("svcgov.memory", "transport_certificate"),
    ("svcgov.memory", "reuse_score"),
    ("svcgov.memory", "match_failure"),
    ("svcgov.memory", "record"),
    ("svcgov.orchestrator", "registry_from_state"),
    ("svcgov.orchestrator", "_record_failures"),
    ("svcgov.harness.bench", "scan_run"),
    ("svcgov.harness.scenario", "scenario_from_data"),
)

#: (module, class, method) of every traced method.
METHODS = (
    ("svcgov.ontology", "OntologySchema", "ancestors"),
    ("svcgov.model", "Hypothesis", "digest"),
    ("svcgov.orchestrator", "Orchestrator", "step"),
)

#: Span names whose calls belong to a decision step.
STEP_ROOTS = ("orchestrator.Orchestrator.step", "orchestrator._record_failures")

#: name -> value added per call, read from the arguments and the result.
OBSERVE = {
    "transform.generate_candidates": lambda args, result: len(result),
    "memory.find_transportable": lambda args, result: result is not None,
    "certify.admissible": lambda args, result: result.passed,
    "harness.bench.scan_run": lambda args, result: len(args[2]),
}


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('svcgov.')}.{attr}"


class _Rebinder:
    """Replace names in every loaded ``svcgov`` module; undo on request.
    A name that is missing raises, so a renamed or removed function cannot
    drop its span without notice."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module: str, attr: str, make) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = make(span_name(module, attr), original)
        for mod in [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "svcgov"]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def method(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(f"{span_name(module, cls)}.{attr}", original))

    def undo(self) -> None:
        for target, name, value in reversed(self._undo):
            setattr(target, name, value)
        self._undo.clear()


class StepClock:
    """Latency of each decision step (``Orchestrator.step`` plus the
    ``_record_failures`` call that precedes it on the same tick) and the
    number of candidates it screened.  Costs two clock reads per call."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, int]] = []  # (seconds, candidates)
        self._pending = 0.0
        self._rebind = _Rebinder()

    def install(self) -> None:
        self._rebind.method("svcgov.orchestrator", "Orchestrator", "step", lambda _, fn: self._step(fn))
        self._rebind.function("svcgov.orchestrator", "_record_failures", lambda _, fn: self._failures(fn))

    def uninstall(self) -> None:
        self._rebind.undo()

    def _step(self, fn):
        @functools.wraps(fn)
        def step(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start + self._pending
            self._pending = 0.0
            self.samples.append((elapsed, len(result.trace.candidates)))
            return result

        return step

    def _failures(self, fn):
        @functools.wraps(fn)
        def record_failures(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._pending += time.perf_counter() - start

        return record_failures


class Tracer:
    """Spans kept in memory as columns: name, start, end, parent span and
    root span (the per-step id; every span without a parent starts one)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._rebind = _Rebinder()
        self._stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.observed: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.name)

    def install(self) -> None:
        for module, attr in FUNCTIONS:
            self._rebind.function(module, attr, self._wrap)
        for module, cls, attr in METHODS:
            self._rebind.method(module, cls, attr, self._wrap)

    def uninstall(self) -> None:
        self._rebind.undo()

    def _wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = OBSERVE.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            parent = stack[-1] if stack else -1
            self.name.append(name_id)
            self.parent.append(parent)
            self.root.append(self.root[parent] if parent >= 0 else index)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if observe is not None:
                self.observed[name] = self.observed.get(name, 0) + observe(args, result)
            return result

        return traced

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and calls made
        under a decision-step root.  Self time is the span's duration minus
        the durations of its direct children."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        step_roots = {self._ids[r] for r in STEP_ROOTS if r in self._ids}
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            stats = out.setdefault(
                self.names[self.name[i]], {"calls": 0, "total": 0.0, "self": 0.0, "step_calls": 0}
            )
            duration = self.end[i] - self.start[i]
            stats["calls"] += 1
            stats["total"] += duration
            stats["self"] += duration - child[i]
            if self.name[self.root[i]] in step_roots:
                stats["step_calls"] += 1
        for name, value in self.observed.items():
            out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "step_calls": 0})["observed"] = value
        return out

    def rows(self):
        """Every span as (name, start, end, parent, root), in call order."""
        for i in range(len(self.name)):
            yield self.names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.root[i]
