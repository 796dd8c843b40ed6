"""Unified metrics: counters, gauges, histograms over the event bus.

The paper's evaluation is a metrics story — idle-waiting fractions
(Section 6), latency (Fig. 7), peak queue size (Fig. 8), punctuation
overhead — and before this module those numbers lived in four places with
four shapes (:class:`~repro.core.execution.EngineStats` fields,
:mod:`repro.metrics.idle`, :mod:`repro.metrics.queues`, and the chaos
suite's :class:`~repro.metrics.recovery.RecoveryTracker`).  A
:class:`MetricsRegistry` is one place: it *observes* the event bus for
everything that can be counted live (steps, NOS decisions, ETS
consultations, punctuation, faults, batch run lengths), reads buffer depth
from the graph its engine runs, and *absorbs* the remaining end-of-run
aggregates from the engine, the idle tracker, and the recovery tracker —
producing one ``snake_case`` ``as_dict()`` snapshot and one Prometheus text
rendering.

The live hooks run once or more per arrival, so they write through
pre-bound label children (:meth:`Counter.labels`, bound lazily per raw
label value) and never sort label items or build a label dict per event.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .bus import Observer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..metrics.recovery import RecoveryTracker
    from ..sim.kernel import Simulation

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelValues = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, object]) -> LabelValues:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelValues) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _flat_name(name: str, key: LabelValues) -> str:
    if not key:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class _Metric:
    """Shared naming/labeling machinery of the three metric kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    @cached_property
    def _keys(self) -> dict[tuple, LabelValues]:
        return {}

    def _key(self, labels: Mapping[str, object]) -> LabelValues:
        """The canonical (sorted, stringified) key of ``labels``, memoised
        on the raw items so the hot path never sorts.  Raw values that
        compare equal (``1``, ``1.0``, ``True``) share one series."""
        if not labels:
            return ()
        raw = tuple(labels.items())
        try:
            return self._keys[raw]
        except KeyError:
            key = self._keys[raw] = _labels_key(labels)
            return key
        except TypeError:  # an unhashable raw value: no memo
            return _labels_key(labels)

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        """Yield ``(suffix, labels, value)`` rows for rendering."""
        raise NotImplementedError

    def as_dict(self) -> dict[str, float]:
        return {_flat_name(self.name + suffix, key): value
                for suffix, key, value in self.samples()}


class Counter(_Metric):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelValues, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def labels(self, **labels) -> "_CounterChild":
        """The series for ``labels``, pre-bound (the Prometheus-client
        idiom): its :meth:`~_CounterChild.inc` skips the key lookup.  The
        series appears in samples on its first increment, as with
        :meth:`inc`."""
        return _CounterChild(self, self._key(labels))

    def set_total(self, value: float, **labels) -> None:
        """Absolute assignment for absorbed end-of-run totals.

        A counter fed from an aggregate snapshot would double on every
        re-absorb under :meth:`inc`; assignment keeps repeated absorbs
        idempotent, and monotonicity is still enforced so the series
        remains a valid Prometheus counter.
        """
        key = self._key(labels)
        if value < self._values.get(key, 0):
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._values[key] = value

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        for key in sorted(self._values):
            yield "", key, self._values[key]


class Gauge(_Metric):
    """A point-in-time value that can move both ways, with a high-water mark."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 *, track_max: bool = False) -> None:
        super().__init__(name, help)
        self.track_max = track_max
        self._values: dict[LabelValues, float] = {}
        self._max: dict[LabelValues, float] = {}

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        self._values[key] = value
        if self.track_max and value > self._max.get(key, float("-inf")):
            self._max[key] = value

    def value(self, **labels) -> float:
        return self._values.get(self._key(labels), 0)

    def high_water(self, **labels) -> float:
        return self._max.get(self._key(labels), 0)

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        for key in sorted(self._values):
            yield "", key, self._values[key]
        if self.track_max:
            for key in sorted(self._max):
                yield "_high_water", key, self._max[key]


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] | None = None) -> None:
        super().__init__(name, help)
        bounds = tuple(buckets) if buckets is not None else self.DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} buckets must be sorted")
        self.buckets = bounds
        self._counts: dict[LabelValues, list[int]] = {}
        self._sum: dict[LabelValues, float] = {}
        self._n: dict[LabelValues, int] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * len(self.buckets)
            self._sum[key] = 0.0
            self._n[key] = 0
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                counts[i] += 1
                break
        self._sum[key] += value
        self._n[key] += 1

    def count(self, **labels) -> int:
        return self._n.get(self._key(labels), 0)

    def sum(self, **labels) -> float:
        return self._sum.get(self._key(labels), 0.0)

    def mean(self, **labels) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else 0.0

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        for key in sorted(self._counts):
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts[key]):
                cumulative += count
                yield "_bucket", key + (("le", f"{bound:g}"),), cumulative
            yield "_bucket", key + (("le", "+Inf"),), self._n[key]
            yield "_sum", key, self._sum[key]
            yield "_count", key, self._n[key]


class _CounterChild:
    """One pre-bound series of a :class:`Counter` (:meth:`Counter.labels`)."""

    __slots__ = ("_counter", "_values", "_key")

    def __init__(self, counter: Counter, key: LabelValues) -> None:
        self._counter = counter
        self._values = counter._values
        self._key = key

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self._counter.name!r} cannot decrease")
        values, key = self._values, self._key
        values[key] = values.get(key, 0) + amount


class _Children(dict):
    """Raw label value -> pre-bound child of one metric, bound on first use.

    The live hooks index it with the raw field values they receive, so after
    the first event per value a series costs one dict hit and one call.  A
    family with several label names is keyed by the tuple of raw values.
    """

    __slots__ = ("_metric", "_names")

    def __init__(self, metric: Counter, *names: str) -> None:
        super().__init__()
        self._metric = metric
        self._names = names

    def __missing__(self, raw):
        values = raw if len(self._names) > 1 else (raw,)
        child = self[raw] = self._metric.labels(
            **dict(zip(self._names, values)))
        return child


class _LiveSeries:
    """The pre-bound children the per-event hooks write to (unlabeled
    series need none: their key is ``()`` without a lookup)."""

    __slots__ = ("steps", "operator_steps", "join_probes", "emitted",
                 "decisions", "ets", "punctuation", "arrivals")

    def __init__(self, reg: "MetricsRegistry") -> None:
        self.steps = _Children(reg.steps, "kind")
        self.operator_steps = _Children(reg.operator_steps, "operator")
        self.join_probes = _Children(reg.join_probes, "result")
        self.emitted = _Children(reg.emitted, "kind")
        self.decisions = _Children(reg.nos_decisions, "decision")
        self.ets = _Children(reg.ets_consultations, "operator", "outcome")
        self.punctuation = _Children(reg.punctuation_injected,
                                     "operator", "origin")
        self.arrivals = _Children(reg.arrivals, "source")


class _BufferDepth(Gauge):
    """``repro_buffer_depth``, read from the bound graphs when collected.

    A graph's :class:`~repro.core.buffers.BufferRegistry` already keeps the
    live total and its peak (the paper's Fig.-8 figure) incrementally, so
    the gauge reads them instead of hearing one bus event per buffer
    mutation.  The series exists once a graph is bound.  Bound to several
    graphs (engines run one after another, e.g. a restart after recovery),
    the value is the graph bound last and the high-water the largest peak
    of any of them.  A graph's peak counts from its creation, so a registry
    attached late reports what one attached from the start would.
    """

    _buffers: tuple = ()

    def bind(self, buffers) -> None:
        self._buffers = tuple(b for b in self._buffers
                              if b is not buffers) + (buffers,)

    def _read(self) -> None:
        if self._buffers:
            self._values[()] = self._buffers[-1].total
            self._max[()] = max(b.peak for b in self._buffers)

    def value(self, **labels) -> float:
        self._read()
        return super().value(**labels)

    def high_water(self, **labels) -> float:
        self._read()
        return super().high_water(**labels)

    def samples(self) -> Iterable[tuple[str, LabelValues, float]]:
        self._read()
        return super().samples()


class MetricsRegistry(Observer):
    """The one metrics surface: live bus-fed series plus absorbed aggregates.

    Use it two ways, usually together::

        registry = MetricsRegistry()
        sim = Simulation(graph, observers=[registry])   # live event series
        sim.run(until=120.0)
        registry.absorb_simulation(sim)                 # end-of-run gauges
        print(registry.render_prometheus())

    The live hooks maintain: engine step counters (split data/punctuation,
    per operator), NOS-decision counts, ETS consultations split
    injected/declined, punctuation injections by origin, fault-path actions
    by kind, and a histogram of micro-batch run lengths.  The buffer-depth
    gauge and its high-water mark are read from the bound graph (see
    :class:`_BufferDepth`).  ``absorb_*`` folds in what only
    exists as an end-of-run aggregate: :class:`EngineStats` counters,
    per-operator idle-wait time, queue summaries, and recovery figures.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        c, g, h = self.counter, self.gauge, self.histogram
        # Live, bus-fed series.
        self.steps = c("repro_engine_steps_total",
                       "Execution steps by consumed-element kind")
        self.operator_steps = c("repro_operator_steps_total",
                                "Execution steps per operator")
        self.nos_decisions = c("repro_nos_decisions_total",
                               "Forward/Encore/Backtrack transitions")
        self.ets_consultations = c(
            "repro_ets_consultations_total",
            "ETS policy consultations at stalled sources, by outcome")
        self.punctuation_injected = c(
            "repro_punctuation_injected_total",
            "Punctuation injected at sources, by origin")
        self.emitted = c("repro_emitted_total",
                         "Elements appended to output buffers, by kind")
        self.faults = c("repro_fault_actions_total",
                        "Fault-path actions (degrade/resync/violation/...)")
        self.rounds = c("repro_engine_rounds_total", "Engine wake-up rounds")
        self.arrivals = c("repro_arrivals_total",
                          "Workload tuples delivered to sources")
        self.buffer_depth: _BufferDepth = self._register(_BufferDepth(
            "repro_buffer_depth", "Graph-wide live buffered elements",
            track_max=True))  # type: ignore[assignment]
        self.batch_run_length = h("repro_batch_run_length",
                                  "Elements consumed per execution step")
        self.join_probes = c(
            "repro_join_probes_total",
            "Join-window candidates, examined vs emitted (result label)")
        self.busy_time = c("repro_engine_busy_seconds_total",
                           "Simulated CPU seconds charged to steps")
        self.checkpoints = c("repro_checkpoint_total",
                             "Checkpoints written durably")
        self.checkpoint_bytes = c("repro_checkpoint_bytes_total",
                                  "Bytes written across all checkpoints")
        self.checkpoint_duration = c(
            "repro_checkpoint_seconds_total",
            "Wall-clock seconds spent writing checkpoints")
        self.checkpoint_last = g("repro_checkpoint_last",
                                 "Figures of the most recent checkpoint")
        self.recoveries = c("repro_recovery_total",
                            "Recoveries from disk, by outcome label")
        self.recovery_last = g("repro_recovery_last",
                               "Figures of the most recent recovery")
        self.shard_ingest = c("repro_shard_ingest_total",
                              "Tuples routed to each shard by the shuffle")
        self.shard_outputs = c("repro_shard_outputs_total",
                               "Records delivered by each shard's sinks")
        self.shard_wakeups = c("repro_shard_wakeups_total",
                               "Per-shard wake-ups run by the backend")
        self.shard_released = c(
            "repro_shard_released_total",
            "Records released downstream by the frontier merge")
        self.shard_frontier = g("repro_shard_frontier",
                                "Advertised frontier per shard "
                                "(shard=global is the min gate)")
        self.shard_recoveries = c("repro_shard_recoveries_total",
                                  "Per-shard recoveries from disk")
        self.shard_retries = c("repro_shard_retries_total",
                               "Backoff retries on shard operation timeouts")
        self.shard_retry_backoff = h(
            "repro_shard_retry_backoff_seconds",
            "Backoff waited before re-polling a timed-out shard op",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0))
        self.shard_reshards = c("repro_shard_reshards_total",
                                "Live topology changes, by direction label")
        self.shard_migrated = c(
            "repro_shard_migrated_keys_total",
            "Keys whose route changed across a reshard")
        self.shard_restarts = c(
            "repro_shard_restarts_total",
            "Supervisor-driven shard restarts, by outcome label")
        self.shard_scale_requests = c(
            "repro_shard_scale_requests_total",
            "Autoscaler split/merge decisions, by direction label")
        self.shard_stat = g("repro_shard_stat",
                            "Absorbed end-of-run sharded-engine figures")
        self.feedback_waves = c("repro_feedback_waves_total",
                                "Feedback waves propagated upstream, by kind")
        self.feedback_pressure = g("repro_feedback_pressure",
                                   "Last feedback pressure emitted [0, 1]",
                                   track_max=True)
        self.feedback_depth = g("repro_feedback_depth",
                                "Buffer depth sampled by the last wave",
                                track_max=True)
        self.feedback_drop_budget = g(
            "repro_feedback_drop_budget",
            "Drop budget carried by the last wave", track_max=True)
        # Absorbed end-of-run aggregates.
        self.block_fallbacks = c(
            "repro_engine_block_fallbacks_total",
            "Block-mode steps routed through the scalar path, per operator")
        self.idle_wait = g("repro_idle_wait_seconds",
                           "Idle-waiting time per IWP operator")
        self.idle_fraction = g("repro_idle_wait_fraction",
                               "Idle-waiting share of elapsed time")
        self.engine_stat = g("repro_engine_stat",
                             "EngineStats counters, one label per field")
        self.recovery = g("repro_recovery",
                          "Sink liveness figures from RecoveryTracker")
        self.queue = g("repro_queue", "Buffer-occupancy summary figures")

    # ------------------------------------------------------------------ #
    # Metric creation / lookup

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}")
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        return self._register(Counter(name, help))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              *, track_max: bool = False) -> Gauge:
        """Get or create the named gauge."""
        return self._register(Gauge(name, help, track_max=track_max))  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] | None = None) -> Histogram:
        """Get or create the named histogram."""
        return self._register(Histogram(name, help, buckets))  # type: ignore[return-value]

    def __iter__(self):
        return iter(self._metrics.values())

    def __getitem__(self, name: str) -> _Metric:
        return self._metrics[name]

    # ------------------------------------------------------------------ #
    # Live bus hooks

    def bind_graph(self, graph) -> None:
        """Read the buffer-depth gauge from ``graph``'s buffer registry."""
        self.buffer_depth.bind(graph.registry)

    @cached_property
    def _live(self) -> _LiveSeries:
        # Bound on the first event, not in __init__: a registry that never
        # hears an event costs nothing extra to build.
        return _LiveSeries(self)

    def on_wakeup(self, *, round_id, time, entry=None) -> None:
        self.rounds.inc()

    def on_step(self, *, operator, round_id, time, kind, steps=1, probes=0,
                probes_emitted=0, emitted_data=0, emitted_punctuation=0,
                duration=0.0) -> None:
        live = self._live
        live.steps[kind].inc(steps)
        live.operator_steps[operator].inc(steps)
        # Only join steps report probes; skip the labels entirely for
        # joinless runs so the counter does not appear with zero series.
        if probes:
            live.join_probes["examined"].inc(probes)
        if probes_emitted:
            live.join_probes["emitted"].inc(probes_emitted)
        if emitted_data:
            live.emitted["data"].inc(emitted_data)
        if emitted_punctuation:
            live.emitted["punctuation"].inc(emitted_punctuation)
        if duration:
            self.busy_time.inc(duration)
        self.batch_run_length.observe(steps)

    def on_nos_decision(self, *, decision, operator, round_id, time,
                        detail="") -> None:
        self._live.decisions[decision].inc()

    def on_ets(self, *, operator, round_id, time, injected,
               offered=True) -> None:
        # A backtrack to a source while no IWP operator idle-waits is not
        # offered to the policy: it is no consultation, declined or not.
        if offered:
            self._live.ets[
                operator, "injected" if injected else "declined"].inc()

    def on_punctuation(self, *, operator, round_id, time, origin,
                       ts=None) -> None:
        self._live.punctuation[operator, origin].inc()

    def on_arrival(self, *, operator, time, external_ts=None) -> None:
        self._live.arrivals[operator].inc()

    def on_fault(self, *, kind, operator, round_id, time, detail="") -> None:
        self.faults.inc(kind=kind, operator=operator)

    def on_checkpoint(self, *, number, time, duration=0.0, bytes_written=0,
                      wal_records=0) -> None:
        self.checkpoints.inc()
        if bytes_written:
            self.checkpoint_bytes.inc(bytes_written)
        if duration:
            self.checkpoint_duration.inc(duration)
        self.checkpoint_last.set(number, field="number")
        self.checkpoint_last.set(bytes_written, field="bytes")
        self.checkpoint_last.set(wal_records, field="wal_records")

    def on_recovery(self, *, checkpoint, time, replayed=0, suppressed=0,
                    duration=0.0, fallback=False, detail="") -> None:
        self.recoveries.inc(
            outcome="fallback" if fallback else "latest")
        self.recovery_last.set(checkpoint, field="checkpoint")
        self.recovery_last.set(replayed, field="replayed")
        self.recovery_last.set(suppressed, field="suppressed")
        self.recovery_last.set(duration, field="duration_seconds")

    def on_shard(self, *, kind, shard, time, frontier=None, count=0,
                 value=0.0, detail="") -> None:
        if kind == "ingest":
            self.shard_ingest.inc(count, shard=shard)
        elif kind == "wakeup":
            self.shard_wakeups.inc(shard=shard)
            if count:
                self.shard_outputs.inc(count, shard=shard)
            if frontier is not None and frontier == frontier \
                    and frontier != float("-inf"):
                self.shard_frontier.set(frontier, shard=shard)
        elif kind == "frontier":
            if count:
                self.shard_released.inc(count)
            if frontier is not None and frontier != float("-inf"):
                self.shard_frontier.set(frontier, shard="global")
        elif kind == "retry":
            self.shard_retries.inc(shard=shard)
            if value:
                self.shard_retry_backoff.observe(value)
        elif kind == "recovery":
            self.shard_recoveries.inc(shard=shard)
        elif kind == "reshard":
            self.shard_reshards.inc(direction=detail or "reshard")
            if count:
                self.shard_migrated.inc(count)
        elif kind == "supervisor":
            self.shard_restarts.inc(
                shard=shard, outcome=detail or "restarted")
        elif kind == "scale":
            self.shard_scale_requests.inc(direction=detail or "scale")

    def on_feedback(self, *, kind, round_id, time, pressure=0.0, depth=0,
                    drop_budget=0.0, sink_latency=0.0, frontier_lag=0.0,
                    origin="") -> None:
        self.feedback_waves.inc(kind=kind)
        self.feedback_pressure.set(pressure)
        self.feedback_depth.set(depth)
        self.feedback_drop_budget.set(drop_budget)

    # ------------------------------------------------------------------ #
    # Derived figures

    def punctuation_to_data_ratio(self) -> float:
        """Injected/emitted punctuation per emitted data tuple (overhead)."""
        data = self.emitted.value(kind="data")
        punct = self.emitted.value(kind="punctuation")
        return punct / data if data else 0.0

    # ------------------------------------------------------------------ #
    # Absorbing the legacy aggregates

    def absorb_engine_stats(self, stats) -> "MetricsRegistry":
        """Fold an :class:`EngineStats` snapshot in, one field per label.

        Columnar counters are skipped while zero so scalar- and batch-mode
        runs export the exact sample set they always did; block-mode runs
        gain ``repro_engine_stat{field="blocks"}`` etc. the moment the
        counters move.
        """
        for field_name, value in stats.as_dict().items():
            if field_name == "per_operator_steps":
                for op, steps in value.items():
                    self.engine_stat.set(steps, field="per_operator_steps",
                                         operator=op)
            elif field_name == "block_fallbacks_by_operator":
                # Per-operator attribution of scalar fallbacks; absent from
                # the exposition until a fallback actually happens, so
                # scalar- and pure-block runs keep their sample sets.
                for op, count in value.items():
                    self.block_fallbacks.set_total(count, operator=op)
            elif (field_name in ("blocks", "block_rows", "block_fallbacks")
                    and not value):
                continue
            else:
                self.engine_stat.set(value, field=field_name)
        return self

    def absorb_idle(self, tracker, now: float | None = None
                    ) -> "MetricsRegistry":
        """Fold an :class:`~repro.metrics.idle.IdleTracker` snapshot in."""
        for op in tracker.operators:
            self.idle_wait.set(tracker.idle_time(op.name, now),
                               operator=op.name)
            self.idle_fraction.set(tracker.idle_fraction(op.name, now),
                                   operator=op.name)
        return self

    def absorb_recovery(self, tracker: "RecoveryTracker"
                        ) -> "MetricsRegistry":
        """Fold a :class:`RecoveryTracker`'s liveness figures in."""
        for name, value in tracker.as_dict().items():
            self.recovery.set(value, field=name)
        return self

    def absorb_queue_summary(self, graph) -> "MetricsRegistry":
        """Fold :func:`repro.metrics.queues.queue_summary` figures in."""
        from ..metrics.queues import queue_summary

        summary = queue_summary(graph)
        for name, value in summary.items():
            if name == "per_buffer":
                for buf, depth in value.items():
                    self.queue.set(depth, field="depth", buffer=buf)
            else:
                self.queue.set(value, field=name)
        return self

    def absorb_sharded(self, engine) -> "MetricsRegistry":
        """Fold a :class:`~repro.shard.ShardedEngine` summary in."""
        summary = engine.summary()
        for name in ("ingested", "wakeups", "released", "pending",
                     "frontier_spread"):
            self.shard_stat.set(summary[name], field=name)
        for row in summary["per_shard"]:
            self.shard_stat.set(row["ingested"], field="ingested",
                                shard=row["shard"])
            self.shard_stat.set(row["delivered"], field="delivered",
                                shard=row["shard"])
            if row["frontier"] != float("-inf"):
                self.shard_frontier.set(row["frontier"], shard=row["shard"])
        return self

    def absorb_simulation(self, sim: "Simulation") -> "MetricsRegistry":
        """Fold every end-of-run aggregate a simulation holds in one call."""
        self.absorb_engine_stats(sim.engine.stats)
        if sim.idle_tracker is not None:
            self.absorb_idle(sim.idle_tracker, sim.clock.now())
        self.absorb_queue_summary(sim.graph)
        self.queue.set(sim.arrivals_delivered, field="arrivals_delivered")
        self.queue.set(sim.heartbeats_delivered, field="heartbeats_delivered")
        return self

    # ------------------------------------------------------------------ #
    # Export

    def as_dict(self) -> dict[str, float]:
        """One flat ``name{label=value,...} -> value`` snapshot."""
        out: dict[str, float] = {}
        for metric in self._metrics.values():
            out.update(metric.as_dict())
        out["repro_punctuation_to_data_ratio"] = \
            self.punctuation_to_data_ratio()
        return out

    def rows(self) -> list[tuple[str, float]]:
        """``(name, value)`` rows for :func:`repro.metrics.report.format_table`."""
        return sorted(self.as_dict().items())

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            samples = list(metric.samples())
            if not samples:
                continue
            # A gauge's high-water samples form their own metric family.
            main = [s for s in samples if s[0] == "" or metric.kind == "histogram"]
            extra = [s for s in samples if s not in main]
            if main:
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                for suffix, key, value in main:
                    lines.append(
                        f"{metric.name}{suffix}{_render_labels(key)} {value:g}")
            for suffix, key, value in extra:
                family = metric.name + suffix
                if not any(line == f"# TYPE {family} gauge" for line in lines):
                    lines.append(f"# TYPE {family} gauge")
                lines.append(f"{family}{_render_labels(key)} {value:g}")
        lines.append("# TYPE repro_punctuation_to_data_ratio gauge")
        lines.append("repro_punctuation_to_data_ratio "
                     f"{self.punctuation_to_data_ratio():g}")
        return "\n".join(lines) + "\n"
