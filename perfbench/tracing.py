"""In-memory spans around the benchmark's calls into the program's layers.

A span records its name, start, end, parent span and item id, plus optional
attributes (counts) attached after the call returns.  Spans stay in memory
and are written out once, when the run ends.  A disabled tracer turns every
call into a plain call, so untraced runs pay only one extra Python call per
layer boundary.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

ITEM = "item"


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "attrs")

    def __init__(self, name, start, parent, item):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.item = item
        self.attrs = None

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "item": self.item,
            "attrs": self.attrs or {},
        }


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._last: Span | None = None
        self._item = None

    def _begin(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._item))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        self._last = span

    def call(self, name: str, fn, *args, **kwargs):
        """Call `fn` inside a span called `name` (`layer.function`)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    def annotate(self, **counts) -> None:
        """Attach counts to the span that closed last."""
        if self.enabled:
            self._last.attrs = counts

    @contextmanager
    def item(self, item_id: int):
        """Root span of one item; layer spans opened inside carry its id."""
        if not self.enabled:
            yield
            return
        self._item = item_id
        index = self._begin(ITEM)
        try:
            yield
        finally:
            self._end(index)
            self._item = None

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps(span.as_dict(index)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans: list[Span]) -> tuple[dict, dict, float]:
    """Self seconds per span name, summed attributes per `name.attr`, and the
    summed wall time of the item spans."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    item_total = 0.0
    for span, own in zip(spans, self_times(spans)):
        if span.name == ITEM:
            item_total += span.end - span.start
            continue
        seconds[span.name] += own
        for key, value in (span.attrs or {}).items():
            counts[f"{span.name}.{key}"] += value
    return seconds, counts, item_total


# Per-layer metrics, in output order.  Units: "s" for summed self time,
# "count" for summed counts, "ratio" for shares and ratios.
LAYERS = ("dpsolve", "oracle", "nna", "model", "textio", "reduction")

TIMED = (
    "dpsolve.solve_exact",
    "dpsolve.solve_opt_search",
    "oracle.brute_force_1d",
    "oracle.brute_force_2d",
    "oracle.enumerate_optimal_1d",
    "nna.nna",
    "model.is_valid",
    "model.interference",
    "textio.parse_points",
    "textio.format_points",
    "textio.parse_assignment",
    "textio.format_assignment",
    "reduction.reduce_grid",
    "reduction.geometry_violations",
    "reduction.find_ham_path",
    "reduction.assignment_from_ham_path",
    "reduction.extract_connection_structure",
    "families.random_instance_1d",
    "families.gen_log_lower",
    "families.gen_p",
    "families.gen_q",
)

COUNTED = (
    "dpsolve.solve_exact.subproblems",
    "dpsolve.solve_exact.memo_hits",
    "dpsolve.solve_opt_search.subproblems",
    "oracle.optimal_count",
    "nna.rounds",
    "model.points",
    "textio.bytes",
    "reduction.points",
)

UNITS = {
    **{f"{name}.s": "s" for name in TIMED},
    **{name: "count" for name in COUNTED},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "dpsolve.memo_hit_ratio": "ratio",
    "model.interference.us_per_point": "us/point",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    seconds, counts, item_total = summarize(spans)

    def summed(prefix: str, attr: str) -> int:
        return sum(v for k, v in counts.items() if k.startswith(prefix) and k.endswith("." + attr))

    values = {f"{name}.s": seconds.get(name, 0.0) for name in TIMED}
    values["dpsolve.solve_exact.subproblems"] = counts["dpsolve.solve_exact.subproblems"]
    values["dpsolve.solve_exact.memo_hits"] = counts["dpsolve.solve_exact.memo_hits"]
    values["dpsolve.solve_opt_search.subproblems"] = counts["dpsolve.solve_opt_search.subproblems"]
    values["oracle.optimal_count"] = counts["oracle.enumerate_optimal_1d.optimal_count"]
    values["nna.rounds"] = counts["nna.nna.rounds"]
    values["model.points"] = summed("model.", "points")
    values["textio.bytes"] = summed("textio.", "bytes")
    values["reduction.points"] = counts["reduction.reduce_grid.points"]
    hits = summed("dpsolve.", "memo_hits")
    values["dpsolve.memo_hit_ratio"] = _ratio(hits, hits + summed("dpsolve.", "subproblems"))
    values["model.interference.us_per_point"] = 1e6 * _ratio(
        seconds.get("model.interference", 0.0), counts["model.interference.points"]
    )
    for layer in LAYERS:
        own = sum(v for k, v in seconds.items() if k.startswith(layer + "."))
        values[f"{layer}.share"] = _ratio(own, item_total)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values[name] for name in UNITS}
