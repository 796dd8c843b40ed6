"""Bench X5: raw engine throughput of the Python implementation.

Not a paper artefact — this measures the reproduction itself: how many
tuples per wall-clock second the DFS engine pushes through the paper's
query graph (filters + union + sink, on-demand ETS, full metrics).  It uses
pytest-benchmark's normal multi-round machinery since each run is short.

It also guards the instrumentation contract: with no observers attached the
engine stores no event bus, and the remaining ``is None`` tests at the
emission sites must cost ≤ 2 % against a reference walk with the
instrumentation hooks stripped out entirely.  With a live
``MetricsRegistry`` attached, the on-cost (wall time with the registry over
wall time without) is recorded and must not slide back to what it was
before per-hook dispatch and pre-bound registry series.
"""

from __future__ import annotations

import random
from time import perf_counter

from repro.core.execution import ExecutionEngine
from repro.core.ets import OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Select, Union
from repro.obs import MetricsRegistry
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel
from repro.workloads.scenarios import ScenarioConfig, build_union_scenario

from record import record_bench

TUPLES_TARGET = 3000
# 100 tuples/s for 30 simulated seconds ≈ 3000 tuples per run
CFG = dict(scenario="C", duration=30.0, rate_fast=100.0, rate_slow=1.0,
           seed=42, cost_model=CostModel.zero())


def run_once() -> int:
    handles = build_union_scenario(ScenarioConfig(**CFG)).run()
    return handles.sink.delivered


def test_engine_throughput(benchmark):
    delivered = benchmark(run_once)
    assert delivered > TUPLES_TARGET * 0.8
    mean_s = benchmark.stats.stats.mean
    print(f"\nX5 — engine throughput: {delivered / mean_s:,.0f} "
          f"delivered tuples per wall second "
          f"({delivered} tuples in {mean_s * 1e3:.1f} ms)")
    record_bench(
        "throughput",
        {"delivered_tuples": delivered, "mean_run_s": round(mean_s, 4),
         "delivered_per_s": round(delivered / mean_s)},
        merge=True, workload=CFG | {"cost_model": "zero"})


# --------------------------------------------------------------------- #
# Zero-overhead guard for the instrumentation fast path


class _BareEngine(ExecutionEngine):
    """Reference walk with the event-bus emission sites stripped out.

    These are verbatim copies of ``_walk``/``_step`` minus every ``bus``
    line — the counterfactual engine the ≤ 2 % claim is measured against.
    Bench-local on purpose: nothing in the library may depend on it.
    """

    def _walk(self, start):
        progress = False
        current = start
        execute = True
        from repro.core.operators.source import SourceNode
        while True:
            self._pump_due()
            if isinstance(current, SourceNode):
                nxt = self._forward_target(current)
                if nxt is not None:
                    current, execute = nxt, True
                    continue
                if self._try_ets(current):
                    progress = True
                    continue
                return progress
            if execute and current.more():
                if self.batch_size > 1:
                    self._step_batch(current)
                else:
                    self._step(current)
                progress = True
            nxt = self._forward_target(current)
            if nxt is not None:
                current, execute = nxt, True
                continue
            if current.more():
                execute = True
                continue
            if not current.inputs:
                return progress
            j = current.stalled_input_index()
            pred = current.predecessors[j]
            if pred is None:
                return progress
            current, execute = pred, False

    def _step(self, op):
        result = op.execute_step(self.ctx)
        stats = self.stats
        stats.steps += 1
        if result.consumed_punctuation:
            stats.punct_steps += 1
        elif result.consumed is not None:
            stats.data_steps += 1
        stats.probes += result.probes
        stats.probes_emitted += result.probes_emitted
        stats.emitted_data += result.emitted_data
        stats.emitted_punctuation += result.emitted_punctuation
        per_op = stats.per_operator_steps
        per_op[op.name] = per_op.get(op.name, 0) + 1
        if self.cost_model is not None:
            cost = self.cost_model.step_cost(op, result)
            if cost:
                self.clock.advance(cost)
                stats.busy_time += cost
        self._refresh_idle()
        return result


def _drive(engine_cls, *, tuples: int = 2000, chunk: int = 20,
           observers=None) -> float:
    """Build the Fig.-4 query fresh and time a chunked wakeup drive."""
    graph = QueryGraph("overhead")
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
    clock = VirtualClock()
    engine = engine_cls(graph, clock, cost_model=None,
                        ets_policy=OnDemandEts(), observers=observers)
    rng = random.Random(9)
    payloads = [{"seq": i, "value": rng.random()} for i in range(tuples)]
    start = perf_counter()
    for base in range(0, tuples, chunk):
        now = base * 0.001
        clock.advance_to(now)
        for payload in payloads[base:base + chunk]:
            fast.ingest(payload, now=now)
        engine.wakeup(entry=fast)
    elapsed = perf_counter() - start
    assert (engine.bus is None) is (not observers)
    assert engine.stats.steps > tuples  # the walk really ran
    return elapsed


def test_no_observer_fast_path_overhead_under_2pct():
    """An engine with no observers must track the stripped reference walk.

    Interleaved min-of-k over long drives: scheduler noise and GC only ever
    inflate a timing, so the per-variant minimum converges to the true cost
    and the ratio isolates the ``is None`` guards.  Sampling stops as soon
    as the ratio is inside budget (minima only fall, so once inside it
    stays inside); a real regression — e.g. the engine building an empty
    ``EventBus`` and paying a dispatch per event — never converges and
    fails after the iteration cap.
    """
    import gc

    _drive(_BareEngine, tuples=2000)  # warmup both paths
    _drive(ExecutionEngine, tuples=2000)
    bare = instrumented = ratio = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(20):
            bare = min(bare, _drive(_BareEngine, tuples=10_000))
            instrumented = min(
                instrumented, _drive(ExecutionEngine, tuples=10_000))
            gc.collect()
            ratio = instrumented / bare
            if i >= 2 and ratio <= 1.02:
                break
    finally:
        if gc_was_enabled:
            gc.enable()
    print(f"\nX5 — no-observer fast path: {ratio:.4f}x of stripped walk "
          f"({instrumented * 1e3:.1f} ms vs {bare * 1e3:.1f} ms, "
          f"{i + 1} paired drives)")
    assert ratio <= 1.02, (
        f"no-observer engine is {ratio:.4f}x the uninstrumented reference "
        "(budget: 1.02) — an emission site lost its bus-is-None guard?")


# --------------------------------------------------------------------- #
# On-cost guard for a live MetricsRegistry

#: ``registry_on_cost_ratio`` of the engine before per-hook bus dispatch,
#: pre-bound registry series and the graph-read depth gauge: the lowest of
#: three runs of this test (2.65x-2.72x; Python 3.11, 2-vCPU x86-64 VM).
#: A live registry must not cost that much again.
PRE_FAST_PATH_ON_COST = 2.65
#: ROADMAP's aim for the on-cost; reported, not gated.
ON_COST_AIM = 1.10


def test_registry_on_cost():
    """Time the same Fig.-4 drive with a live registry and with none.

    Interleaved min-of-k, as in the no-observer guard: noise only inflates
    a timing, so the per-variant minima converge and their ratio is the
    registry's own cost.
    """
    import gc

    _drive(ExecutionEngine, tuples=2000)  # warmup both paths
    _drive(ExecutionEngine, tuples=2000, observers=[MetricsRegistry()])
    bare = live = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(8):
            bare = min(bare, _drive(ExecutionEngine, tuples=10_000))
            live = min(live, _drive(ExecutionEngine, tuples=10_000,
                                    observers=[MetricsRegistry()]))
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = live / bare
    verdict = "within" if ratio <= ON_COST_AIM else "above"
    print(f"\nX5 — live MetricsRegistry on-cost: {ratio:.4f}x of no "
          f"observers ({live * 1e3:.1f} ms vs {bare * 1e3:.1f} ms), "
          f"{verdict} the {ON_COST_AIM:.2f}x aim; guard "
          f"{PRE_FAST_PATH_ON_COST:.2f}x")
    record_bench(
        "throughput",
        {"registry_on_cost_ratio": round(ratio, 4),
         "registry_on_cost_live_ms": round(live * 1e3, 2),
         "registry_on_cost_bare_ms": round(bare * 1e3, 2)},
        merge=True)
    assert ratio <= PRE_FAST_PATH_ON_COST, (
        f"a live MetricsRegistry costs {ratio:.4f}x (guard: "
        f"{PRE_FAST_PATH_ON_COST:.2f}x, the pre-fast-path figure) — did a "
        "hook lose its pre-bound series or the bus its per-hook tables?")
