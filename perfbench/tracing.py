"""Span tracing around the engine's module entry points, from outside the
program.

``Tracer.install`` replaces a fixed list of entry points with timing wrappers
in every loaded ``prioritydb`` namespace.  Bindings are matched by object
identity, so a name imported with ``from .model import agreement`` is wrapped
wherever it is bound.  Hot helpers such as ``literal_key`` are left alone:
wrapping every public callable costs about a third of the wall time.

Generator functions (``maximal_independent_sets``, ``completions``) are not
wrapped; their iteration is charged to the span of the function consuming
them.

Each call records one span (request id, parent span, entry point, start, end,
size of its result or input, whether the result object is new).  Spans stay in
memory and are written out once, at exit; ``layer_metrics`` turns them into
per-layer self time and counts.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("cli", "textio", "model", "conflicts", "repairs", "priorities", "query", "aic", "bridges")

ENTRY_POINTS = {
    "cli": ("main",),
    "model": ("ground_all", "facts_universe", "literal_universe", "agreement", "restriction", "satisfies"),
    "conflicts": ("conflicts", "conflict_hypergraph"),
    "repairs": ("delta_repairs", "is_delta_repair"),
    "priorities": ("optimal_repairs", "is_optimal_repair", "lexicographic_repairs", "validate_priority"),
    "query": ("answers", "evaluate", "repairs_intersection"),
    "aic": ("classify_r_updates", "repairs_of_kind", "r_updates", "ground_rules", "check_properties"),
    "bridges": ("check_translation_equivalence", "priority_to_rules", "check_roundtrip"),
}


def _textio_entry_points(module) -> tuple[str, ...]:
    return tuple(
        sorted(
            name
            for name in vars(module)
            if name.startswith("parse_") or (name.startswith("format_") and name.endswith("_set"))
        )
    )


def _input_length(args, kwargs, result) -> int:
    return len(args[0] if args else next(iter(kwargs.values())))


def _result_length(args, kwargs, result) -> int:
    return len(result)


def _answer_count(args, kwargs, result) -> int:
    return len(result.tuples)


# What each span records as its size (textio parsers record their input
# length).  Entry points whose results are cached by the engine also record
# whether the result object is new, so a count can skip cache hits.
SIZES = {
    "model.ground_all": _result_length,
    "model.facts_universe": _result_length,
    "conflicts.conflicts": _result_length,
    "repairs.delta_repairs": _result_length,
    "priorities.optimal_repairs": _result_length,
    "query.answers": _answer_count,
    "aic.r_updates": _result_length,
    "aic.ground_rules": _result_length,
}
FRESHNESS = {"model.ground_all", "model.facts_universe", "conflicts.conflicts", "repairs.delta_repairs"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # Per span: [request, parent, entry index, start, end, size, fresh]
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._seen: dict[int, object] = {}

    def install(self) -> None:
        """Wrap every entry point of ENTRY_POINTS (and textio's parsers and
        set printers) in every loaded prioritydb namespace."""
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "prioritydb" or name.startswith("prioritydb."))
        }
        wrappers: dict[int, object] = {}
        entry_points = dict(ENTRY_POINTS, textio=_textio_entry_points(modules["prioritydb.textio"]))
        for layer in LAYERS:
            module = modules[f"prioritydb.{layer}"]
            for name in entry_points[layer]:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(original, f"{layer}.{name}"))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attr, found[1])

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        size = _input_length if name.startswith("textio.parse_") else SIZES.get(name)
        track_fresh = name in FRESHNESS
        spans, stack, seen, clock = self.spans, self._stack, self._seen, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.request, stack[-1] if stack else -1, index, 0.0, 0.0, -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result)
            if track_fresh and id(result) not in seen:
                seen[id(result)] = result  # held, so the id is never reused
                span[6] = True
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": self.names, "spans": self.spans}, out, separators=(",", ":"))


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac", "_per_conflict")):
        return "ratio"
    if metric.endswith("bytes_in"):
        return "bytes"
    return "count"


def layer_metrics(names: list[str], spans: list[list]) -> dict[str, float]:
    """Per-layer self time and counts from recorded spans.

    A span's self time is its duration minus the durations of its direct
    children, which never overlap in a single-threaded run.
    """
    child_time = [0.0] * len(spans)
    for request, parent, index, start, end, size, fresh in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    totals = {key: 0 for key in (
        "bytes_in", "ground_bodies", "fact_universe", "agreement_calls", "restriction_calls",
        "conflicts", "repairs", "kept", "checked", "answers", "r_updates", "ground_rules",
    )}
    # The first delta_repairs span under an optimal_repairs span is the set it filters.
    checked_by: dict[int, int] = {}
    for sid, (request, parent, index, start, end, size, fresh) in enumerate(spans):
        name = names[index]
        layer, func = name.split(".", 1)
        out[f"{layer}.self_s"] += (end - start) - child_time[sid]
        out[f"{layer}.calls"] += 1
        if layer == "textio" and func.startswith("parse_"):
            totals["bytes_in"] += size
        elif name == "model.ground_all" and fresh:
            totals["ground_bodies"] += size
        elif name == "model.facts_universe" and fresh:
            totals["fact_universe"] += size
        elif name == "model.agreement":
            totals["agreement_calls"] += 1
        elif name == "model.restriction":
            totals["restriction_calls"] += 1
        elif name == "conflicts.conflicts" and fresh:
            totals["conflicts"] += size
        elif name == "repairs.delta_repairs":
            if fresh:
                totals["repairs"] += size
            ancestor = parent
            while ancestor >= 0 and names[spans[ancestor][2]] != "priorities.optimal_repairs":
                ancestor = spans[ancestor][1]
            if ancestor >= 0:
                checked_by.setdefault(ancestor, size)
        elif name == "query.answers":
            totals["answers"] += size
        elif name == "aic.r_updates":
            totals["r_updates"] += size
        elif name == "aic.ground_rules":
            totals["ground_rules"] += size
    for sid, checked in checked_by.items():
        totals["kept"] += spans[sid][5]
        totals["checked"] += checked
    out.update({
        "textio.bytes_in": totals["bytes_in"],
        "model.ground_bodies": totals["ground_bodies"],
        "model.fact_universe": totals["fact_universe"],
        "model.agreement_calls": totals["agreement_calls"],
        "model.restriction_calls": totals["restriction_calls"],
        "conflicts.count": totals["conflicts"],
        "conflicts.bodies_per_conflict": (
            totals["ground_bodies"] / totals["conflicts"] if totals["conflicts"] else 0.0
        ),
        "repairs.count": totals["repairs"],
        "priorities.kept_ratio": totals["kept"] / totals["checked"] if totals["checked"] else 0.0,
        "query.answers": totals["answers"],
        "aic.r_updates": totals["r_updates"],
        "aic.ground_rules": totals["ground_rules"],
    })
    return out
