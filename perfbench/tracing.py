"""Benchmark-side wall-clock spans around calls into each layer.

The system is not modified: :class:`Tracer` replaces a public method on one
object with a wrapper that records a span — name, start, end, parent span
and thread — around the original call.  Spans stay in memory until the run
ends.  A span's *self time* is its duration minus the part of it covered by
its children; the self times of every span under the root add up to the
root span's wall time.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

from repro.api import Reorder, Select, SinkNode, Union, WindowJoin
from repro.obs.bus import HOOKS

#: Operator class → the layer name its execution spans are recorded under.
OPERATOR_LAYERS = ((Select, "select"), (Union, "union"), (WindowJoin, "join"),
                   (Reorder, "reorder"), (SinkNode, "sink"))


def layer_of(name: str) -> str:
    """A span's layer: its name up to the first dot (``join.execute``)."""
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans ``(id, name, start, end, parent, thread)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident()))

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record a span around every call of ``obj.attr``."""
        inner = getattr(obj, attr)
        span = self.span

        def traced(*args, **kwargs):
            return span(name, inner, *args, **kwargs)

        setattr(obj, attr, traced)

    def count(self, obj, attr: str, name: str) -> None:
        """Count the calls of ``obj.attr`` that return something."""
        inner = getattr(obj, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            result = inner(*args, **kwargs)
            if result is not None:
                counts[name] += 1
            return result

        setattr(obj, attr, counted)

    # ------------------------------------------------------------------ #
    # Instrumenting the system's layers

    def instrument_graph(self, graph) -> None:
        """Sources' ingest and every operator's execution calls."""
        for source in graph.sources():
            self.wrap(source, "ingest", "source.ingest")
        for op in graph.operators:
            layer = next((name for cls, name in OPERATOR_LAYERS
                          if isinstance(op, cls)), None)
            if layer is None:
                continue
            for method in ("execute_step", "execute_batch", "execute_block"):
                self.wrap(op, method, f"{layer}.execute")
            if layer == "union":
                self.wrap(op, "more", "union.more")

    def instrument_engine(self, engine) -> None:
        """Wake-ups, ETS consultations, idle tracking and observers."""
        self.wrap(engine, "wakeup", "execution.wakeup")
        self.wrap(engine.ets_policy, "on_source_stalled",
                  "ets.on_source_stalled")
        if engine.idle_tracker is not None:
            self.wrap(engine.idle_tracker, "refresh", "idle_tracker.refresh")
        if engine.bus is not None:
            for observer in engine.bus.observers:
                for hook in HOOKS:
                    self.wrap(observer, hook, f"obs.{hook}")
        self.instrument_graph(engine.graph)

    def instrument_simulation(self, sim) -> None:
        self.wrap(sim, "run", "sim.run")
        self.count(sim.events, "pop_next", "sim.events")
        self.count(sim.events, "pop_due", "sim.events")
        self.instrument_engine(sim.engine)

    def instrument_sharded(self, engine, on_wakeup) -> None:
        """The facade (routing, fan-out, merge) and every shard behind it.

        ``on_wakeup`` runs after each facade wake-up, to sample merge and
        frontier state.
        """
        self.wrap(engine, "ingest", "shard.ingest")
        inner_wakeup = engine.wakeup

        def wakeup():
            released = self.span("shard.wakeup", inner_wakeup)
            on_wakeup()
            return released

        engine.wakeup = wakeup
        engine.merge = _TracedMerge(engine.merge, self)
        for shard in engine.backend.shards:
            self.wrap(shard, "apply", "shard.apply")
            self.instrument_engine(shard.engine)

    # ------------------------------------------------------------------ #
    # Analysis

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, _name, t0, t1, parent, _thread in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _name, t0, t1, _parent, _thread in self.spans:
            covered, edge = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, edge), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    edge = c1
            out[sid] = (t1 - t0) - covered
        return out

    def summarize(self) -> dict:
        """Per span name: calls, total and self seconds; per layer: self."""
        selfs = self.self_times()
        names: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        layers: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _parent, _thread in self.spans:
            row = names[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += selfs[sid]
            layers[layer_of(name)] += selfs[sid]
        wall = sum(t1 - t0 for _s, _n, t0, t1, parent, _t in self.spans
                   if parent is None)
        return {"names": dict(names), "layers": dict(layers), "wall_s": wall,
                "counts": dict(self.counts)}

    def dump(self, path) -> None:
        """Write every span as gzipped JSON lines ``[id, name, start_s,
        end_s, parent, thread]``, times relative to the first span."""
        base = min((s[2] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, name, t0, t1, parent, thread in self.spans:
                fh.write(f'[{sid}, "{name}", {t0 - base:.9f}, '
                         f'{t1 - base:.9f}, {json.dumps(parent)}, '
                         f'{thread}]\n')


class _TracedMerge:
    """Stands in for a ``FrontierMerge`` (which has ``__slots__``) so its
    ``offer``/``release`` calls are recorded; everything else delegates."""

    def __init__(self, merge, tracer: Tracer) -> None:
        self._merge = merge
        self._tracer = tracer

    def offer(self, *args):
        return self._tracer.span("shard.merge.offer", self._merge.offer, *args)

    def release(self, *args):
        return self._tracer.span("shard.merge.release", self._merge.release,
                                 *args)

    def __getattr__(self, attr):
        return getattr(self._merge, attr)
