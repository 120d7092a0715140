"""Spans and counts recorded around the benchmark's calls into ``horbits``.

A span is ``[name, start, end, parent, job, pass]``; spans stay in memory
and are written out when the run ends.  A layer's self time is its span's
duration minus the time its child spans cover.  :class:`NullTracer` is the
untraced mode: the same call sites, and no recording.
"""
from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from time import perf_counter


class NullTracer:
    on = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass

    def start_pass(self, index):
        pass

    def set_job(self, job):
        pass


class Tracer:
    on = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.job = None
        self.pass_index = -1

    def start_pass(self, index):
        self.pass_index = index

    def set_job(self, job):
        self.job = job

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.job, self.pass_index]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts[self.pass_index][name] += value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per pass, the summed self time of each span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, _, pass_index) in enumerate(self.spans):
            out[pass_index][name] += end - start - child_time[index]
        return out

    def dump(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "job", "pass"],
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# per-layer metrics: name -> (kind, numerator, denominator)
#   time:  self time of span ``numerator``, seconds per pass
#   count: count ``numerator`` per pass
#   rate:  count ``numerator`` / self time of span ``denominator``
#   ratio: count ``numerator`` / count ``denominator``
#   total: count ``numerator`` that holds seconds
LAYER_METRICS = {
    "golden.mul_per_s": ("rate", "golden.mul", "golden.mul"),
    "golden.add_per_s": ("rate", "golden.add", "golden.add"),
    "golden.sign_per_s": ("rate", "golden.sign", "golden.sign"),
    "golden.text_per_s": ("rate", "golden.text", "golden.text"),
    "groups.inner_s": ("time", "groups.inner", None),
    "groups.inner_per_s": ("rate", "groups.inner", "groups.inner"),
    "groups.to_dominant_s": ("time", "groups.to_dominant", None),
    "groups.reflections_per_s": ("rate", "groups.reflections", "groups.to_dominant"),
    "groups.text_s": ("time", "groups.text", None),
    "orbits.generate_s": ("time", "orbits.generate", None),
    "orbits.points_per_s": ("rate", "orbits.points", "orbits.generate"),
    "orbits.decompose_product_s": ("time", "orbits.decompose_product", None),
    "orbits.pairs_per_s": ("rate", "orbits.pairs", "orbits.decompose_product"),
    "orbits.dominant_share": ("ratio", "orbits.dominant_points", "orbits.pairs"),
    "orbits.orbit_product_s": ("time", "orbits.orbit_product", None),
    "orbits.product_points": ("count", "orbits.product_points", None),
    "orbits.sort_s": ("time", "orbits.sort", None),
    "indices.multiset_even_index_s": ("time", "indices.multiset_even_index", None),
    "indices.anomaly_s": ("time", "indices.anomaly", None),
    "indices.branch_s": ("time", "indices.branch", None),
    "weightsys.dominants_s": ("time", "weightsys.dominants", None),
    "weightsys.dominants": ("count", "weightsys.dominants", None),
    "weightsys.arrivals_per_s": ("rate", "weightsys.arrivals", "weightsys.dominants"),
    "weightsys.build_tree_s": ("time", "weightsys.build_tree", None),
    "weightsys.tree_edges": ("count", "weightsys.tree_edges", None),
    "weightsys.edges_per_s": ("rate", "weightsys.tree_edges", "weightsys.build_tree"),
    "weightsys.serialize_s": ("time", "weightsys.serialize", None),
    "weightsys.serialized_bytes": ("count", "weightsys.serialized_bytes", None),
    "geometry.nested_s": ("time", "geometry.nested", None),
    "geometry.points": ("count", "geometry.points", None),
    "geometry.export_s": ("time", "geometry.export", None),
    "geometry.written_bytes": ("count", "geometry.written_bytes", None),
    "cli.main_s": ("time", "cli.main", None),
    "bench.pass_s": ("total", "bench.pass_s", None),
    "bench.check_s": ("time", "bench.check", None),
    "bench.calibration_s": ("total", "bench.calibration_s", None),
}

UNITS = {"time": "s", "total": "s", "count": "count", "rate": "op/s", "ratio": "ratio"}
BYTE_COUNTS = {"weightsys.serialized_bytes", "geometry.written_bytes"}


def layer_metrics(tracer: Tracer, passes) -> dict:
    """Median over ``passes`` of every per-layer metric."""
    times = tracer.self_times()
    out = {}
    for name, (kind, num, den) in LAYER_METRICS.items():
        values = []
        for p in passes:
            t = times[p]
            c = tracer.counts[p]
            if kind == "time":
                values.append(t[num])
            elif kind in ("count", "total"):
                values.append(c[num])
            elif kind == "rate":
                values.append(c[num] / t[den] if t[den] > 0 else 0.0)
            else:
                values.append(c[num] / c[den] if c[den] else 0.0)
        unit = "bytes" if name in BYTE_COUNTS else UNITS[kind]
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out
