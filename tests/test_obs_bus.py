"""Tests for the instrumentation event bus and its engine integration.

Three contracts from the bus design notes, each load-bearing:

* deterministic registration-order dispatch and per-observer exception
  isolation (a broken exporter must never kill the engine walk);
* the zero-overhead fast path — an engine with no observers stores *no*
  bus at all, and buffer-occupancy forwarding is only wired when some
  observer actually overrides ``on_buffer_change``;
* observation is read-only: replaying a workload with the full observer
  stack attached delivers a byte-identical sink sequence.
"""

from __future__ import annotations

import pytest
from oracle import DifferentialOracle, Feed

from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.core.tracing import Tracer
from repro.obs import (
    HOOKS,
    NULL_BUS,
    ChromeTraceExporter,
    EventBus,
    JsonlExporter,
    MetricsRegistry,
    Observer,
    TraceObserver,
)
from repro.sim.clock import VirtualClock


class Recorder(Observer):
    """Appends (tag, hook) marks to a shared log — ordering probe."""

    def __init__(self, tag: str, log: list) -> None:
        self.tag = tag
        self.log = log

    def on_step(self, **kw) -> None:
        self.log.append((self.tag, "step"))

    def on_quiesce(self, **kw) -> None:
        self.log.append((self.tag, "quiesce"))


class Exploder(Observer):
    """Raises from every hook it overrides."""

    def on_step(self, **kw) -> None:
        raise RuntimeError("boom")


class DepthWatcher(Observer):
    def __init__(self) -> None:
        self.totals: list[int] = []

    def on_buffer_change(self, *, total, time) -> None:
        self.totals.append(total)


# --------------------------------------------------------------------- #
# Bus mechanics


class TestEventBus:
    def test_dispatch_in_registration_order(self):
        log: list = []
        bus = EventBus([Recorder("a", log), Recorder("b", log)])
        bus.attach(Recorder("c", log))
        bus.step(operator="x", round_id=1, time=0.0, kind="data")
        assert log == [("a", "step"), ("b", "step"), ("c", "step")]

    def test_exception_isolation(self):
        """A failing observer is recorded; later observers still fire."""
        log: list = []
        bus = EventBus([Recorder("a", log), Exploder(), Recorder("b", log)])
        bus.step(operator="x", round_id=1, time=0.0, kind="data")
        assert log == [("a", "step"), ("b", "step")]
        assert bus.error_count == 1
        observer, hook, exc = bus.errors[0]
        assert isinstance(observer, Exploder)
        assert hook == "on_step"
        assert isinstance(exc, RuntimeError)

    def test_error_memory_is_capped_but_count_is_not(self):
        bus = EventBus([Exploder()], max_errors=3)
        for i in range(10):
            bus.step(operator="x", round_id=i, time=0.0, kind="data")
        assert len(bus.errors) == 3
        assert bus.error_count == 10

    def test_attach_detach_len(self):
        obs = Observer()
        bus = EventBus()
        assert len(bus) == 0
        bus.attach(obs)
        assert len(bus) == 1
        bus.detach(obs)
        assert len(bus) == 0
        bus.detach(obs)  # absent: no-op, no raise
        assert len(bus) == 0

    def test_null_bus_drops_and_refuses_attach(self):
        NULL_BUS.step(operator="x", round_id=1, time=0.0, kind="data")
        NULL_BUS.fault(kind="degrade", operator="x", round_id=1, time=0.0)
        with pytest.raises(TypeError):
            NULL_BUS.attach(Observer())

    def test_base_observer_hooks_are_noops(self):
        obs = Observer()
        obs.on_wakeup(round_id=1, time=0.0)
        obs.on_step(operator="x", round_id=1, time=0.0, kind="data")
        obs.on_nos_decision(decision="forward", operator="x",
                            round_id=1, time=0.0)
        obs.on_ets(operator="x", round_id=1, time=0.0, injected=True)
        obs.on_punctuation(operator="x", round_id=1, time=0.0, origin="ets")
        obs.on_arrival(operator="x", time=0.0)
        obs.on_buffer_change(total=3, time=0.0)
        obs.on_fault(kind="degrade", operator="x", round_id=1, time=0.0)
        obs.on_quiesce(round_id=1, time=0.0)


# --------------------------------------------------------------------- #
# Per-hook dispatch tables

#: Keyword fields accepted by every hook, for emitting each one generically.
HOOK_FIELDS = {
    "on_wakeup": dict(round_id=1, time=0.0),
    "on_step": dict(operator="x", round_id=1, time=0.0, kind="data"),
    "on_nos_decision": dict(decision="forward", operator="x", round_id=1,
                            time=0.0),
    "on_ets": dict(operator="x", round_id=1, time=0.0, injected=True),
    "on_punctuation": dict(operator="x", round_id=1, time=0.0,
                           origin="ets"),
    "on_arrival": dict(operator="x", time=0.0),
    "on_buffer_change": dict(total=1, time=0.0),
    "on_fault": dict(kind="degrade", operator="x", round_id=1, time=0.0),
    "on_quiesce": dict(round_id=1, time=0.0),
    "on_checkpoint": dict(number=1, time=0.0),
    "on_recovery": dict(checkpoint=1, time=0.0),
    "on_shard": dict(kind="ingest", shard=0, time=0.0),
    "on_feedback": dict(kind="pressure", round_id=1, time=0.0),
}


def emit_every_hook(bus: EventBus) -> None:
    for hook in HOOKS:
        getattr(bus, hook[3:])(**HOOK_FIELDS[hook])


class HookSpy(Recorder):
    """A Recorder that also logs every hook attribute the bus looks up."""

    def __getattribute__(self, name):
        if name.startswith("on_"):
            object.__getattribute__(self, "log").append(("lookup", name))
        return object.__getattribute__(self, name)


class TestDispatchTables:
    def test_every_hook_has_an_emit_method(self):
        assert set(HOOK_FIELDS) == set(HOOKS)
        log: list = []
        bus = EventBus([Recorder("a", log)])
        emit_every_hook(bus)
        assert log == [("a", "step"), ("a", "quiesce")]

    def test_tables_follow_attach_and_detach(self):
        log: list = []
        a, b = Recorder("a", log), DepthWatcher()
        bus = EventBus()
        assert all(bus.listeners(hook) == () for hook in HOOKS)
        bus.attach(a)
        bus.attach(b)
        assert bus.listeners("on_step") == (a,)
        assert bus.listeners("on_quiesce") == (a,)
        assert bus.listeners("on_buffer_change") == (b,)
        assert bus.listeners("on_wakeup") == ()
        bus.detach(a)
        assert bus.listeners("on_step") == ()
        assert bus.listeners("on_buffer_change") == (b,)
        bus.step(**HOOK_FIELDS["on_step"])
        assert log == []  # a detached: nothing dispatched to it
        bus.detach(b)
        assert all(bus.listeners(hook) == () for hook in HOOKS)
        assert bus.observers == ()

    def test_unoverridden_hooks_are_never_looked_up(self):
        """An observer is not even asked for hooks it leaves as no-ops."""
        log: list = []
        spy = HookSpy("s", log)
        bus = EventBus([spy])
        assert log == []  # building the tables reads class attributes
        emit_every_hook(bus)
        assert log == [("lookup", "on_step"), ("s", "step"),
                       ("lookup", "on_quiesce"), ("s", "quiesce")]

    def test_instance_hook_rebound_after_attach_is_honoured(self):
        """The wrapping-tracer contract: dispatch resolves the hook on every
        event, so rebinding an overridden hook on the instance takes effect
        without re-attaching."""
        log: list = []
        rec = Recorder("a", log)
        bus = EventBus([rec])
        inner = rec.on_step

        def traced(**kw):
            log.append(("traced", "step"))
            inner(**kw)

        rec.on_step = traced
        bus.step(**HOOK_FIELDS["on_step"])
        assert log == [("traced", "step"), ("a", "step")]

    def test_instance_hook_set_before_attach_listens(self):
        log: list = []
        probe = Observer()
        probe.on_wakeup = lambda **kw: log.append("wakeup")
        bus = EventBus([probe])
        assert bus.listeners("on_wakeup") == (probe,)
        emit_every_hook(bus)
        assert log == ["wakeup"]

    def test_isolation_and_order_when_the_first_observer_raises(self):
        class FailFirst(Recorder):
            def on_step(self, **kw):
                self.log.append((self.tag, "step"))
                raise RuntimeError("boom")

        log: list = []
        bus = EventBus([FailFirst("a", log), Recorder("b", log)])
        bus.step(**HOOK_FIELDS["on_step"])
        bus.quiesce(**HOOK_FIELDS["on_quiesce"])
        bus.step(**HOOK_FIELDS["on_step"])
        assert log == [("a", "step"), ("b", "step"),
                       ("a", "quiesce"), ("b", "quiesce"),
                       ("a", "step"), ("b", "step")]
        assert bus.error_count == 2
        assert [(type(o).__name__, hook) for o, hook, _ in bus.errors] \
            == [("FailFirst", "on_step")] * 2

    def test_null_bus_drops_everything(self):
        assert all(NULL_BUS.listeners(hook) == () for hook in HOOKS)
        emit_every_hook(NULL_BUS)
        assert NULL_BUS.error_count == 0 and len(NULL_BUS) == 0


# --------------------------------------------------------------------- #
# Engine integration


def simple_path():
    g = QueryGraph("obs-path")
    src = g.add_source("src")
    q1 = g.add(Select("Q1", lambda p: True))
    sink = g.add_sink("sink")
    g.connect(src, q1)
    g.connect(q1, sink)
    return g, src


class TestEngineIntegration:
    def test_no_observers_means_no_bus(self):
        """The fast path: nothing attached → the engine stores None, not an
        empty bus (every emission site is one ``is None`` test)."""
        g, src = simple_path()
        engine = ExecutionEngine(g, VirtualClock())
        assert engine.bus is None
        assert ExecutionEngine(g, VirtualClock(), observers=[]).bus is None
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)  # still runs fine

    def test_attach_observer_creates_bus(self):
        g, src = simple_path()
        engine = ExecutionEngine(g, VirtualClock())
        log: list = []
        engine.attach_observer(Recorder("a", log))
        assert isinstance(engine.bus, EventBus)
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        assert ("a", "step") in log and log[-1] == ("a", "quiesce")

    def test_buffer_wiring_is_conditional(self):
        """Occupancy forwarding costs a callback per delta, so it is only
        wired when some observer overrides on_buffer_change."""
        g, _ = simple_path()
        log: list = []
        engine = ExecutionEngine(g, VirtualClock(),
                                 observers=[Recorder("a", log)])
        assert engine._buffer_forward is None
        g2, src2 = simple_path()
        watcher = DepthWatcher()
        engine2 = ExecutionEngine(g2, VirtualClock(), observers=[watcher])
        assert engine2._buffer_forward is not None
        src2.ingest({"v": 1}, now=0.0)
        engine2.wakeup(entry=src2)
        assert watcher.totals  # saw occupancy move
        assert watcher.totals[-1] == 0  # drained at quiescence

    def test_buffer_wiring_is_idempotent(self):
        g, _ = simple_path()
        engine = ExecutionEngine(g, VirtualClock(), observers=[DepthWatcher()])
        forward = engine._buffer_forward
        engine.attach_observer(DepthWatcher())
        assert engine._buffer_forward is forward
        assert g.registry._observers.count(forward) == 1

    def test_failing_observer_does_not_break_the_walk(self):
        g, src = simple_path()
        engine = ExecutionEngine(g, VirtualClock(), observers=[Exploder()])
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        assert engine.stats.steps == 2  # Q1 and the sink both executed
        assert engine.bus.error_count > 0

    def test_event_stream_shape(self):
        """One wake-up publishes the expected vocabulary, framed by
        wakeup/quiesce."""
        g, src = simple_path()
        events = JsonlExporter()
        engine = ExecutionEngine(g, VirtualClock(), observers=[events])
        src.ingest({"v": 1}, now=0.0)
        engine.wakeup(entry=src)
        kinds = [rec["event"] for rec in events.records
                 if rec["event"] != "buffer_change"]  # ingest precedes wakeup
        assert kinds[0] == "wakeup" and kinds[-1] == "quiesce"
        assert "step" in kinds and "nos_decision" in kinds
        wake = next(r for r in events.records if r["event"] == "wakeup")
        assert wake["round_id"] == 1 and wake["entry"] == "src"


# --------------------------------------------------------------------- #
# Observation is read-only: the differential replay


def _union_graph() -> QueryGraph:
    graph = QueryGraph("obs-union")
    fast = graph.add_source("fast")
    slow = graph.add_source("slow")
    f1 = graph.add(Select("filter_fast", lambda p: p["value"] < 0.95))
    f2 = graph.add(Select("filter_slow", lambda p: p["value"] < 0.95))
    union = graph.add(Union("union"))
    sink = graph.add_sink("sink")
    graph.connect(fast, f1)
    graph.connect(slow, f2)
    graph.connect(f1, union)
    graph.connect(f2, union)
    graph.connect(union, sink)
    return graph


def _feeds() -> list[Feed]:
    import random
    rng = random.Random(7)
    feeds = []
    for i in range(300):
        feeds.append(Feed("fast", time=i * 0.02,
                          payload={"seq": i, "value": rng.random()}))
    for i in range(5):
        feeds.append(Feed("slow", time=0.5 + i * 1.3,
                          payload={"seq": i, "value": rng.random()}))
    feeds.sort(key=lambda f: f.time)
    return feeds


@pytest.mark.parametrize("batch_size", [1, 8])
def test_instrumented_replay_is_byte_identical(batch_size):
    """Attaching the full observer stack never changes what a query
    delivers: same tuples, same timestamps, same order."""
    oracle = DifferentialOracle(_union_graph, _feeds(), chunk=16)
    bare = oracle.run(batch_size=batch_size)
    registry = MetricsRegistry()
    events = JsonlExporter()
    observed = oracle.run(batch_size=batch_size, observers=[
        registry, events, ChromeTraceExporter(), TraceObserver(Tracer())])
    assert observed == bare
    # and the instrumentation actually saw the run
    assert registry.rounds.total > 0
    assert registry.steps.total > 0
    assert any(rec["event"] == "step" for rec in events.records)
