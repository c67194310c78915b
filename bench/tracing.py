"""Per-layer tracing from outside the program.

The benchmark wraps the public functions at each module boundary by
replacing the name where its caller looks it up (``detectors.sample_pair``,
``analysis.measure_pair_batch``, a method on ``RngStream``, ...).  Each call
through a wrapper records a span (name, parent span, start, end) in flat
arrays kept in memory; some wrappers also count work taken from the call's
arguments.  Nothing is written until the run ends.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.  A name that the program no longer
has is reported as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from time import perf_counter

import numpy as np

# (layer, lookup sites as (module, attribute path), counted argument or None)
# The counted argument is the parameter whose size is added to "<layer>.<unit>".
SPANS = (
    ("geometry.RngStream.split", [("geometry", "RngStream.split")], None),
    ("geometry.RngStream.uniform", [("geometry", "RngStream.uniform")], ("size", "draws")),
    (
        "geometry.sample_sphere",
        [("distributions", "sample_sphere"), ("geometry", "sample_sphere")],
        None,
    ),
    (
        "geometry.project",
        [("detectors", "project"), ("distributions", "project"), ("cli", "project")],
        None,
    ),
    ("distributions.sample_pair", [("detectors", "sample_pair")], ("n", "pairs")),
    (
        "detectors.measure_pair_batch",
        [("analysis", "measure_pair_batch"), ("detectors", "measure_pair_batch")],
        ("n", "pairs"),
    ),
    ("detectors.measure_pointlike", [("detectors", "measure_pointlike")], None),
    ("analysis.estimate_correlation", [("analysis", "estimate_correlation")], None),
    ("analysis.sweep_chsh", [("analysis", "sweep_chsh")], None),
    ("analysis.chsh", [("analysis", "chsh")], None),
    ("analysis.e_closed", [("analysis", "e_closed")], None),
    ("analysis.fine_feasible", [("analysis", "fine_feasible")], None),
    ("analysis.chsh_inequalities_hold", [("analysis", "chsh_inequalities_hold")], None),
    ("oracles.quad_expectation", [("oracles", "quad_expectation")], None),
    ("cli.main", [("cli", "main")], None),
)
PACKAGE = "bellsphere"
STREAM_CLASS = ("geometry", "RngStream")

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
METRICS = (
    ("geometry.RngStream.streams", "count"),
    ("geometry.RngStream.streams_drawn", "count"),
    ("geometry.RngStream.split.self_s", "s"),
    ("geometry.RngStream.uniform.draws", "count"),
    ("geometry.RngStream.uniform.self_s", "s"),
    ("geometry.sample_sphere.calls", "count"),
    ("geometry.sample_sphere.self_s", "s"),
    ("geometry.project.self_s", "s"),
    ("distributions.sample_pair.pairs", "count"),
    ("distributions.sample_pair.self_s", "s"),
    ("detectors.measure_pair_batch.calls", "count"),
    ("detectors.measure_pair_batch.pairs", "count"),
    ("detectors.measure_pair_batch.self_s", "s"),
    ("detectors.measure_pointlike.self_s", "s"),
    ("analysis.estimate_correlation.calls", "count"),
    ("analysis.estimate_correlation.self_s", "s"),
    ("analysis.sweep_chsh.self_s", "s"),
    ("analysis.chsh.calls", "count"),
    ("analysis.chsh.self_s", "s"),
    ("analysis.e_closed.calls", "count"),
    ("analysis.e_closed.self_s", "s"),
    ("analysis.fine_feasible.calls", "count"),
    ("analysis.fine_feasible.self_s", "s"),
    ("analysis.chsh_inequalities_hold.self_s", "s"),
    ("oracles.quad_expectation.calls", "count"),
    ("oracles.quad_expectation.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.rows_out", "count"),
    ("cli.bytes_out", "B"),
    ("trace.overhead_s", "s"),
)


def _size(value) -> int:
    if value is None:
        return 1
    if isinstance(value, (tuple, list)):
        return math.prod(int(v) for v in value)
    return int(value)


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for layer, sites, counted in SPANS:
            found = False
            for module_name, path in sites:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                    owner, attr = _resolve(module, path)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                self._patch(owner, attr, self._wrap(layer, fn, counted))
                found = True
            if not found:
                self.absent.append(layer)
        self._install_stream_counts()

    def _patch(self, owner, attr, replacement) -> None:
        # a method is restored from the class dict, not as a bound lookup
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, layer: str, fn, counted):
        name_id = len(self.names)
        self.names.append(layer)
        self._count(f"{layer}.calls", 0)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        counts = self.counts
        calls_key = f"{layer}.calls"
        position = units_key = None
        if counted is not None:
            param, unit = counted
            try:
                params = list(inspect.signature(fn).parameters)
            except (TypeError, ValueError):
                params = []
            if param in params:
                position = params.index(param)
                units_key = f"{layer}.{unit}"
                self._count(units_key, 0)
            else:
                self.absent.append(f"{layer}.{unit}")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            if position is not None:
                if position < len(args):
                    value = args[position]
                else:
                    value = kwargs.get(counted[0])
                counts[units_key] += _size(value)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(index)
            span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = perf_counter()
                stack.pop()

        return traced

    def wrap_root(self, name: str, fn):
        """``fn`` recorded as a span of its own, ``op.<name>``: one per operation."""
        return self._wrap(f"op.{name}", fn, None)

    def _install_stream_counts(self) -> None:
        """Count streams built and streams drawn from at least once."""
        try:
            module = importlib.import_module(f"{PACKAGE}.{STREAM_CLASS[0]}")
            cls = getattr(module, STREAM_CLASS[1])
            init, uniform = cls.__dict__["__init__"], cls.__dict__["uniform"]
        except (ImportError, AttributeError, KeyError):
            self.absent += ["geometry.RngStream.streams", "geometry.RngStream.streams_drawn"]
            return
        counts = self.counts
        counts["geometry.RngStream.streams"] = 0
        counts["geometry.RngStream.streams_drawn"] = 0
        # keyed by id: __init__ resets the entry, so a reused address is a
        # new stream
        drawn: dict[int, bool] = {}

        @functools.wraps(init)
        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            counts["geometry.RngStream.streams"] += 1
            drawn[id(self)] = False

        @functools.wraps(uniform)  # the span wrapper, when installed
        def counted_uniform(self, *args, **kwargs):
            if drawn.get(id(self)) is False:
                drawn[id(self)] = True
                counts["geometry.RngStream.streams_drawn"] += 1
            return uniform(self, *args, **kwargs)

        self._patch(cls, "__init__", counted_init)
        self._patch(cls, "uniform", counted_uniform)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def self_times(self, spans=None) -> np.ndarray:
        """Self time of every span: its duration minus its children's."""
        spans = spans or self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return duration - children

    def layer_totals(self, spans=None) -> dict[str, float]:
        spans = spans or self.arrays()
        own = self.self_times(spans)
        per_name = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        totals: dict[str, float] = {}
        for name, value in zip(self.names, per_name):
            totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def per_root(self, spans=None) -> list[dict]:
        """Self time by layer under each top-level span (one per operation)."""
        spans = spans or self.arrays()
        parent = spans["parent"]
        root = np.empty(len(parent), dtype=np.int64)
        for i, p in enumerate(parent.tolist()):  # parents precede children
            root[i] = i if p < 0 else root[p]
        own = self.self_times(spans)
        out = []
        for r in np.flatnonzero(parent < 0).tolist():
            mask = root == r
            per_name = np.bincount(spans["name"][mask], weights=own[mask], minlength=len(self.names))
            layers: dict[str, float] = {}
            for name, value in zip(self.names, per_name):
                if value:
                    layers[name] = layers.get(name, 0.0) + float(value)
            out.append({
                "root": self.names[spans["name"][r]],
                "wall_s": float(spans["end"][r] - spans["start"][r]),
                "self_s": layers,
            })
        return out

    def metrics(self, extra: dict[str, float]) -> dict[str, dict]:
        """The per-layer metrics of METRICS, absent layers reading 0."""
        totals = self.layer_totals()
        values: dict[str, float] = {}
        for key, _unit in METRICS:
            if key in extra:
                values[key] = extra[key]
            elif key.endswith(".self_s"):
                values[key] = totals.get(key[: -len(".self_s")], 0.0)
            else:
                values[key] = self.counts.get(key, 0)
        return {key: {"value": values[key], "unit": unit} for key, unit in METRICS}
