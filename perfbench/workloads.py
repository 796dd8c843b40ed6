"""The benchmark's workloads, one class per name in BENCHMARK.json.

Each workload is a class with the same five steps:

* ``generate(seed)`` builds every input before timing starts, from one
  seeded :class:`random.Random`; the system only ever sees these inputs;
* ``setup(inputs)`` builds the query and constructs the engine (the
  ``setup_s`` span), returning a system object ready for its first ingest;
* ``drive(system, inputs, sink)`` pushes the whole input through the system
  and reports each released output to an :class:`OutputSink`;
* ``close(system)`` shuts the system down and returns end-of-run figures,
  among them ``ts_tolerance``, the largest timestamp difference from the
  reference that the correctness check accepts;
* ``reference(inputs)`` runs the same input through one scalar
  :class:`ExecutionEngine` (``batch_size=1``, ``block_mode=False``) — the
  paper's reference semantics — and returns its outputs' identities.

The system is reached only through its public entry points
(:class:`Pipeline`/:class:`Simulation`, :class:`ExecutionEngine` with
``SourceNode.ingest``, and :class:`ShardedEngine`).
"""

from __future__ import annotations

import itertools
import random
from array import array
from time import perf_counter

from repro.api import (
    Arrival,
    ExecutionEngine,
    MetricsRegistry,
    OnDemandEts,
    Pipeline,
    QueryGraph,
    Reorder,
    ShardedEngine,
    Simulation,
    TimestampKind,
    Union,
    VirtualClock,
    WindowJoin,
    WindowSpec,
)

_MASK = (1 << 64) - 1


def content(payload: dict) -> tuple:
    """An output's payload values in key order."""
    return tuple(payload[k] for k in sorted(payload))


class Identities:
    """Each output's payload hash and timestamp, for multiset comparison.

    Hashes keep a 100k-output comparison to a few MB.
    """

    def __init__(self) -> None:
        self.content = array("q")
        self.ts = array("d")

    def add(self, ts: float, payload: dict) -> None:
        self.content.append(hash(content(payload)))
        self.ts.append(ts)


def contributing_uid(payload: dict) -> int:
    """The latest input that contributed to an output.

    Join outputs carry both sides' uids (the combiner projects them);
    pass-through outputs carry their own.
    """
    uid = payload.get("uid")
    if uid is None:
        l_uid, r_uid = payload["l_uid"], payload["r_uid"]
        uid = l_uid if l_uid > r_uid else r_uid
    return uid


def _combine(left: dict, right: dict) -> dict:
    """Select-list join output; the uids identify contributing inputs."""
    return {"k": left["k"], "l_uid": left["uid"], "r_uid": right["uid"],
            "l_v": left["v"], "r_v": right["v"]}


class OutputSink:
    """Per-output bookkeeping of one drive, retaining no output tuples.

    Every output adds its wall latency and virtual latency (both in ms) and
    folds its timestamp and payload into an order-free digest.  With
    ``capture`` its :class:`Identities` are also kept (the untimed
    correctness pass).
    """

    def __init__(self, capture: bool = False) -> None:
        self.wall_ms = array("d")
        self.virtual_ms = array("d")
        self.count = 0
        self.digest = 0
        self.captured = Identities() if capture else None
        #: How bookkeeping done inside a call into the system is invoked;
        #: the traced run replaces it to give that work a span of its own.
        self.run = lambda fn: fn()

    def add(self, ts: float, payload: dict, wall_s: float,
            virtual_s: float) -> None:
        self.wall_ms.append(wall_s * 1e3)
        self.virtual_ms.append(virtual_s * 1e3)
        self.count += 1
        self.digest = (self.digest + hash((ts, content(payload)))) & _MASK
        if self.captured is not None:
            self.captured.add(ts, payload)


class Drive:
    """Wall-clock result of one drive through the system.

    ``busy_s`` is the time spent inside calls into the system; the
    benchmark's own output bookkeeping between calls is excluded.
    """

    def __init__(self, arrivals: int, busy_s: float) -> None:
        self.arrivals = arrivals
        self.busy_s = busy_s


# ---------------------------------------------------------------------- #
# fig4_ondemand


class Fig4OnDemand:
    """The paper's Fig.-4 query, scenario C, through ``Pipeline`` defaults.

    Two Poisson streams at 50 and 0.05 tuples/s, each filtered by a 95 %
    selectivity ``Select``, merged by a ``Union`` into a sink; internal
    timestamps, on-demand ETS, block mode with batch 64, the calibrated
    cost model, and a live ``MetricsRegistry``.  Open loop in virtual time,
    driven as fast as possible in wall time.
    """

    name = "fig4_ondemand"
    rate_fast = 50.0
    rate_slow = 0.05
    selectivity = 0.95

    def __init__(self, scale: float = 1.0) -> None:
        #: Virtual seconds simulated per drive.
        self.horizon = 30.0 * scale

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        uid = itertools.count()
        streams = {}
        for name, rate in (("fast", self.rate_fast), ("slow", self.rate_slow)):
            arrivals, t = [], 0.0
            while True:
                t += rng.expovariate(rate)
                if t >= self.horizon:
                    break
                arrivals.append(Arrival(time=t, payload={
                    "value": rng.random(), "uid": next(uid)}))
            streams[name] = arrivals
        return {"streams": streams, "arrivals": next(uid)}

    def _pipeline(self, on_output, **engine) -> Pipeline:
        sel = self.selectivity
        p = Pipeline("fig4")
        fast = p.source("fast").select(lambda r: r["value"] < sel,
                                       name="filter_fast")
        slow = p.source("slow").select(lambda r: r["value"] < sel,
                                       name="filter_slow")
        fast.union(slow, name="union").sink("sink", on_output=on_output)
        return p.engine(ets_policy=OnDemandEts, **engine)

    def setup(self, inputs: dict) -> dict:
        released: list = []
        p = self._pipeline(
            lambda tup, latency: released.append((tup, latency)),
            observers=[MetricsRegistry()])
        for name, arrivals in inputs["streams"].items():
            p.feed(name, arrivals)
        sim = p.build_simulation()
        return {"pipeline": p, "sim": sim, "released": released}

    def drive(self, system: dict, inputs: dict, sink: OutputSink) -> Drive:
        sim, released = system["sim"], system["released"]
        engine = sim.engine
        n = inputs["arrivals"]
        ingest_at = array("d", bytes(8 * n))
        # Wall latency runs on a clock that stops while this harness does
        # its own bookkeeping, so only time inside the system counts.
        own = [0.0]

        for source in sim.graph.sources():
            inner_ingest = source.ingest

            def ingest(payload, now, ts=None, arrival=None,
                       _inner=inner_ingest):
                ingest_at[payload["uid"]] = perf_counter() - own[0]
                return _inner(payload, now, ts, arrival)

            source.ingest = ingest

        inner_wakeup = engine.wakeup

        def record():
            t0 = perf_counter()
            end = t0 - own[0]
            for tup, latency in released:
                payload = tup.payload
                sink.add(tup.ts, payload, end - ingest_at[payload["uid"]],
                         latency)
            released.clear()
            own[0] += perf_counter() - t0

        def wakeup(entry=None):
            inner_wakeup(entry)
            if released:
                sink.run(record)

        engine.wakeup = wakeup
        t0 = perf_counter()
        sim.run(until=self.horizon)
        return Drive(n, perf_counter() - t0 - own[0])

    def close(self, system: dict) -> dict:
        sim = system["sim"]
        return {
            "idle_wait_frac": sim.idle_fraction("union"),
            "peak_queue_tuples": sim.peak_queue_size,
            "engines": [sim.engine],
            "graphs": [sim.graph],
            "ts_tolerance": self._block_cost(sim),
        }

    @staticmethod
    def _block_cost(sim) -> float:
        """Modelled CPU seconds of the costliest operator step on one full
        block.

        Internal timestamps are the instants tuples enter the DSMS.  An
        arrival that lands while the engine is busy enters when the kernel
        next pumps arrivals: after every step in the scalar engine, after
        every block step in block mode.  So block mode may stamp a tuple
        later than the scalar reference, by at most one block step.
        """
        cost = sim.cost_model
        per_row = max(cost.data_costs.get(op.cost_class,
                                          cost.default_data_cost)
                      for op in sim.graph.operators)
        return sim.engine.batch_size * per_row

    def reference(self, inputs: dict) -> Identities:
        out = Identities()
        p = self._pipeline(lambda tup, latency: out.add(tup.ts, tup.payload))
        graph = p.compile()
        sim = Simulation(graph, ets_policy=OnDemandEts(), batch_size=1,
                         block_mode=False)
        for name, arrivals in inputs["streams"].items():
            sim.attach_arrivals(graph[name], arrivals)
        sim.run(until=self.horizon)
        return out


# ---------------------------------------------------------------------- #
# sharded_keyed


def _chunks(feeds: list, size: int):
    for base in range(0, len(feeds), size):
        yield feeds[base:base + size]


class ShardedKeyed:
    """Reorder → keyed indexed WindowJoin → strict Union on
    ``ShardedEngine``, P=2.

    Out-of-order external ``fast`` is reordered and joined on ``k`` with
    in-order external ``slow``; the matches and a sparse in-order ``c`` are
    merged by a strict ``Union``.  Keys are Zipf-skewed over 256 values.
    Block mode, on-demand ETS with ``external_delta`` equal to the disorder
    bound, closed loop, one client ingesting 64-arrival chunks, in memory.

    The shards run on the serial backend.  On a 2-vCPU VM the thread
    backend's p99 latency moved with host load (GIL hand-offs between
    contended vCPUs): two five-seed medians taken minutes apart differed by
    35 %, too unsteady for a regression bound.  The serial backend runs the
    same facade — routing, punctuation broadcast, per-shard small blocks,
    frontier merge.
    """

    name = "sharded_keyed"
    gap = 0.001
    disorder = 20 * gap
    slack = 50 * gap
    join_window = 100 * gap
    keys = 256
    zipf_s = 1.1
    chunk = 64
    morsel = 1024
    shards = 2
    sources = ("fast", "slow", "c")

    def __init__(self, scale: float = 1.0) -> None:
        self.arrivals = max(self.chunk, int(10_000 * scale))

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        weights = list(itertools.accumulate(
            1.0 / (k + 1) ** self.zipf_s for k in range(self.keys)))
        population = range(self.keys)
        feeds = []
        for i in range(self.arrivals):
            t = i * self.gap
            slot = i % 16
            if slot == 15:
                src, ets = "c", t
            elif slot % 4 == 3:
                src, ets = "slow", t
            else:
                src, ets = "fast", t - rng.random() * self.disorder
            key = rng.choices(population, cum_weights=weights)[0]
            feeds.append((src, t, ets, {"k": key, "v": rng.randrange(100),
                                        "uid": i}))
        return {"feeds": feeds, "arrivals": len(feeds)}

    def build_graph(self, keep_outputs: bool = False):
        graph = QueryGraph("sharded-keyed")
        fast = graph.add_source("fast", TimestampKind.EXTERNAL,
                                out_of_order=True)
        slow = graph.add_source("slow", TimestampKind.EXTERNAL)
        c = graph.add_source("c", TimestampKind.EXTERNAL)
        reorder = graph.add(Reorder("reorder", self.slack))
        join = graph.add(WindowJoin("join", WindowSpec.time(self.join_window),
                                    key="k", indexed=True, combiner=_combine))
        strict = graph.add(Union("union", strict=True))
        sink = graph.add_sink("sink", keep_outputs=keep_outputs)
        graph.connect(fast, reorder)
        graph.connect(reorder, join)
        graph.connect(slow, join)
        graph.connect(join, strict)
        graph.connect(c, strict)
        graph.connect(strict, sink)
        return graph, sink

    def _policy(self) -> OnDemandEts:
        return OnDemandEts(external_delta=self.disorder)

    def setup(self, inputs: dict) -> dict:
        engine = ShardedEngine(
            lambda: self.build_graph()[0], shards=self.shards, key="k",
            backend="serial", ets_policy_factory=self._policy,
            batch_size=self.morsel,
            block_mode=True, disorder_bound=self.disorder)
        return {"sharded": engine}

    def drive(self, system: dict, inputs: dict, sink: OutputSink) -> Drive:
        engine = system["sharded"]
        feeds = inputs["feeds"]
        arrival = [f[1] for f in feeds]
        chunk = self.chunk
        started = array("d")
        busy = 0.0
        drive_now = 0.0

        def release(records, end):
            for ts, _shard, _seq, _sink, payload in records:
                uid = contributing_uid(payload)
                sink.add(ts, payload, end - started[uid // chunk],
                         drive_now - arrival[uid])

        for part in _chunks(feeds, chunk):
            t0 = perf_counter()
            for src, t, ets, payload in part:
                engine.ingest(src, payload, time=t, ts=ets)
            records = engine.wakeup()
            t1 = perf_counter()
            started.append(busy)
            busy += t1 - t0
            drive_now = part[-1][1]
            release(records, busy)
        final = feeds[-1][1] + 1.0
        t0 = perf_counter()
        for name in self.sources:
            engine.inject_punctuation(name, final, origin=f"eos:{name}")
        records = engine.wakeup()
        records += engine.close(flush=True)
        t1 = perf_counter()
        busy += t1 - t0
        release(records, busy)
        return Drive(len(feeds), busy)

    def close(self, system: dict) -> dict:
        engine = system["sharded"]
        engine.close(flush=False)
        shards = engine.backend.shards
        return {
            "peak_queue_tuples": sum(s.graph.registry.peak for s in shards),
            "engines": [s.engine for s in shards],
            "graphs": [s.graph for s in shards],
            "sharded": engine,
            "ts_tolerance": 0.0,
        }

    def run_single(self, inputs: dict, *,
                   block: bool) -> tuple[Identities, float]:
        """The same job on one engine: the output identities and busy time.

        With ``block=False`` this is the scalar reference; with
        ``block=True`` it is the single-engine baseline the facade's cost
        is compared with.
        """
        graph, sink = self.build_graph(keep_outputs=True)
        engine = ExecutionEngine(
            graph, VirtualClock(), cost_model=None, ets_policy=self._policy(),
            batch_size=self.morsel if block else 1, block_mode=block)
        clock = engine.clock
        sources = {name: graph[name] for name in self.sources}
        out = Identities()
        busy = 0.0

        def release():
            for t in sink.outputs_seen:
                out.add(t.ts, t.payload)
            sink.outputs_seen.clear()

        feeds = inputs["feeds"]
        for part in _chunks(feeds, self.chunk):
            t0 = perf_counter()
            for src, t, ets, payload in part:
                clock.advance_to(t)
                sources[src].ingest(payload, now=clock.now(), ts=ets,
                                    arrival=t)
            engine.wakeup(entry=sources[part[-1][0]])
            busy += perf_counter() - t0
            release()
        final = feeds[-1][1] + 1.0
        t0 = perf_counter()
        for name in self.sources:
            sources[name].inject_punctuation(final, origin=f"eos:{name}")
        engine.wakeup()
        busy += perf_counter() - t0
        release()
        return out, busy

    def reference(self, inputs: dict) -> Identities:
        return self.run_single(inputs, block=False)[0]


WORKLOADS = {w.name: w for w in (Fig4OnDemand, ShardedKeyed)}
