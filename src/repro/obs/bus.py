"""The instrumentation event bus: one dispatch point for engine observability.

Every interesting decision the system takes — an operator execution step, a
Next-Operator-Selection transition, an ETS consultation, a punctuation
injection, a buffer-occupancy change, a fault-path action — is published to
an :class:`EventBus` as a *typed hook*: a named method with keyword-only
fields.  Anything that wants to watch the engine subclasses
:class:`Observer`, overrides the hooks it cares about, and registers on the
bus; tracing, metrics, exporters, and fault monitors are all ordinary
observers of the same stream of events.

Design constraints, in order:

1. **Zero overhead when nobody is listening.**  The engine stores ``None``
   instead of a bus when no observer is attached, so every emission site is
   a single local-variable ``is None`` test (the module-level
   :data:`NULL_BUS` serves call sites that prefer an unconditional call).
   ``bench_throughput.py`` guards this with a ≤2 % assertion against an
   instrumentation-free reference walk.
2. **Observer isolation.**  A failing observer must never kill the engine
   walk: exceptions raised by hooks are caught, counted, and remembered on
   :attr:`EventBus.errors`; remaining observers still receive the event.
3. **Deterministic ordering.**  Observers are invoked in registration
   order, for every event.

Dispatch is per hook: the bus keeps, for each hook, the tuple of observers
that override it, so an event costs one call per observer that listens and
nothing for those that do not.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["HOOKS", "Observer", "EventBus", "NullBus", "NULL_BUS"]

#: The typed hook points, in the vocabulary used across the system.
HOOKS = (
    "on_wakeup",
    "on_step",
    "on_nos_decision",
    "on_ets",
    "on_punctuation",
    "on_arrival",
    "on_buffer_change",
    "on_fault",
    "on_quiesce",
    "on_checkpoint",
    "on_recovery",
    "on_shard",
    "on_feedback",
)


class Observer:
    """Base observer: every hook is a no-op; override what you need.

    Hook fields are keyword-only and stable — they are the instrumentation
    contract exporters and metrics build on:

    * :meth:`on_wakeup` — an engine wake-up round began.
    * :meth:`on_step` — one execution step ran (``kind`` is ``"data"``,
      ``"punct"``, or ``"batch"``; ``steps`` > 1 for micro-batched runs;
      ``duration`` is the simulated CPU seconds charged).
    * :meth:`on_nos_decision` — a Forward / Encore / Backtrack transition
      (``decision``), with ``operator`` the transition target.
    * :meth:`on_ets` — a stalled source consulted the ETS policy
      (``injected`` tells whether a punctuation resulted).
    * :meth:`on_punctuation` — a punctuation entered the graph at a source
      (``origin`` is ``"ets"``, ``"heartbeat"``, or ``"fallback"``; ``ts``
      is its timestamp when the caller knows it).
    * :meth:`on_buffer_change` — the graph-wide live-element total moved.
    * :meth:`on_fault` — a fault-path action (``kind`` is ``"degrade"``,
      ``"fallback"``, ``"resync"``, ``"quarantine"``, ``"violation"``, …).
    * :meth:`on_quiesce` — the wake-up round ran out of work.

    :meth:`bind_graph` is not a hook: an engine calls it once when the
    observer is attached, handing over the query graph it runs.
    """

    def bind_graph(self, graph) -> None:
        """The engine this observer was attached to runs ``graph``.

        Lets an observer read state the graph already maintains — e.g. the
        buffer occupancy its :class:`~repro.core.buffers.BufferRegistry`
        keeps incrementally — instead of hearing one event per change.
        """

    def on_wakeup(self, *, round_id: int, time: float,
                  entry: str | None = None) -> None:
        """An engine wake-up round began."""

    def on_step(self, *, operator: str, round_id: int, time: float,
                kind: str, steps: int = 1, probes: int = 0,
                probes_emitted: int = 0,
                emitted_data: int = 0, emitted_punctuation: int = 0,
                duration: float = 0.0) -> None:
        """One execution step (or batched run of steps) completed.

        ``probes`` counts window tuples *examined*; ``probes_emitted`` the
        subset that passed the join condition — the gap between the two is
        the wasted scan work an indexed join removes.
        """

    def on_nos_decision(self, *, decision: str, operator: str,
                        round_id: int, time: float, detail: str = "") -> None:
        """The engine took a Forward / Encore / Backtrack transition."""

    def on_ets(self, *, operator: str, round_id: int, time: float,
               injected: bool, offered: bool = True) -> None:
        """A backtracked-to source consulted the ETS policy."""

    def on_punctuation(self, *, operator: str, round_id: int, time: float,
                       origin: str, ts: float | None = None) -> None:
        """A punctuation was injected into a source's output stream."""

    def on_arrival(self, *, operator: str, time: float,
                   external_ts: float | None = None) -> None:
        """A workload tuple arrived at a source (kernel-side event)."""

    def on_buffer_change(self, *, total: int, time: float) -> None:
        """The graph-wide buffered-element total changed."""

    def on_fault(self, *, kind: str, operator: str, round_id: int,
                 time: float, detail: str = "") -> None:
        """A fault-path action happened (degrade, resync, violation, …)."""

    def on_quiesce(self, *, round_id: int, time: float) -> None:
        """The engine's wake-up round reached quiescence."""

    def on_checkpoint(self, *, number: int, time: float, duration: float = 0.0,
                      bytes_written: int = 0, wal_records: int = 0) -> None:
        """A checkpoint was written durably (``number`` is its sequence).

        ``duration`` is wall-clock seconds spent writing; ``wal_records`` is
        the WAL position the checkpoint covers (records before it need no
        replay).
        """

    def on_recovery(self, *, checkpoint: int, time: float,
                    replayed: int = 0, suppressed: int = 0,
                    duration: float = 0.0, fallback: bool = False,
                    detail: str = "") -> None:
        """Recovery from disk completed (``checkpoint`` is the one used).

        ``fallback`` is True when the latest checkpoint was corrupt and an
        older one was used — always accompanied by an ``on_fault`` event per
        corrupted file.
        """

    def on_shard(self, *, kind: str, shard: int, time: float,
                 frontier: float | None = None, count: int = 0,
                 value: float = 0.0, detail: str = "") -> None:
        """A sharded-engine event (:mod:`repro.shard`).

        ``kind`` is ``"ingest"`` (``count`` tuples routed to ``shard``),
        ``"wakeup"`` (``shard`` quiesced advertising ``frontier``, having
        delivered ``count`` records), ``"frontier"`` (``shard`` is ``-1``:
        the global min frontier moved and ``count`` records were released
        by the merge), ``"retry"`` (a shard operation missed its timeout
        and is being re-polled after ``value`` seconds of backoff, attempt
        ``count``), ``"clamp"`` (the global pressure view was broadcast
        back to ``count`` shards), ``"recovery"`` (``shard`` was restored
        to ``frontier`` after replaying ``count`` ingests), ``"reshard"``
        (``shard`` is ``-1``: the topology changed, migrating ``count``
        keys at quiesce frontier ``frontier``, pausing for ``value``
        simulated seconds; ``detail`` is the direction, e.g. ``"4->5"``),
        ``"supervisor"``
        (the supervisor restarted ``shard`` — attempt ``count``, backoff
        ``value`` — or escalated when ``detail`` says so), or ``"scale"``
        (the autoscaler requested ``count`` shards on pressure signal
        ``value``).
        """

    def on_feedback(self, *, kind: str, round_id: int, time: float,
                    pressure: float = 0.0, depth: int = 0,
                    drop_budget: float = 0.0, sink_latency: float = 0.0,
                    frontier_lag: float = 0.0, origin: str = "") -> None:
        """A feedback-controller wave (:mod:`repro.feedback`).

        ``kind`` is ``"pressure"`` (an overload wave propagated upstream
        carrying ``pressure``/``drop_budget``), ``"relief"`` (a
        deactivation/unwind beat with pressure zero), or ``"clamp"`` (a
        wave forced by an externally broadcast global pressure view —
        see :meth:`repro.feedback.FeedbackController.clamp`).
        """


#: The base no-op of every hook: an observer whose class still has it (and
#: whose instance sets no attribute of that name) does not listen.
_NOOPS = {hook: getattr(Observer, hook) for hook in HOOKS}


def _dispatcher(hook: str):
    """The public emit method for ``hook``: loop that hook's own table.

    The hook is still resolved with ``getattr`` per call, not cached as a
    bound method: an instance attribute rebound after attach (a wrapping
    tracer, a test probe) must be the one that runs.
    """
    def emit(self: "EventBus", **kw) -> None:
        for observer in self._tables[hook]:
            try:
                getattr(observer, hook)(**kw)
            except Exception as exc:  # noqa: BLE001 - isolation by contract
                self.error_count += 1
                if len(self.errors) < self.max_errors:
                    self.errors.append((observer, hook, exc))

    emit.__name__ = emit.__qualname__ = hook[3:]
    emit.__doc__ = f"Publish one ``{hook}`` event."
    return emit


class EventBus:
    """Fans events out to registered observers, isolating their failures.

    Each hook has its own dispatch table: the observers, in registration
    order, whose class overrides that hook or whose instance sets it.  The
    tables are rebuilt on :meth:`attach` / :meth:`detach`, so a hook nobody
    listens to costs an empty loop — e.g. ``buffer_change`` or ``quiesce``
    under a bare :class:`~repro.obs.registry.MetricsRegistry`.

    Args:
        observers: Initial observers, invoked in this order for every event.
        max_errors: Cap on remembered ``(observer, hook, exception)``
            records; failures beyond the cap are still counted in
            :attr:`error_count`.
    """

    __slots__ = ("_observers", "_tables", "errors", "error_count",
                 "max_errors")

    def __init__(self, observers: Iterable[Observer] = (),
                 *, max_errors: int = 100) -> None:
        self._observers: list[Observer] = list(observers)
        self.errors: list[tuple[Observer, str, Exception]] = []
        self.error_count = 0
        self.max_errors = max_errors
        self._rebuild()

    @property
    def observers(self) -> tuple[Observer, ...]:
        """Registered observers in dispatch order (use attach/detach)."""
        return tuple(self._observers)

    def listeners(self, hook: str) -> tuple[Observer, ...]:
        """The observers ``hook`` is dispatched to, in order."""
        return self._tables[hook]

    def attach(self, observer: Observer) -> "EventBus":
        """Register ``observer`` (appended: it sees events last)."""
        self._observers.append(observer)
        self._rebuild()
        return self

    def detach(self, observer: Observer) -> None:
        """Unregister ``observer`` (no-op when not registered)."""
        try:
            self._observers.remove(observer)
        except ValueError:
            return
        self._rebuild()

    def _rebuild(self) -> None:
        tables: dict[str, tuple[Observer, ...]] = dict.fromkeys(HOOKS, ())
        for observer in self._observers:
            cls, own = type(observer), getattr(observer, "__dict__", ())
            solo = (observer,)  # shared by every table it starts
            for hook, noop in _NOOPS.items():
                if getattr(cls, hook, None) is not noop or hook in own:
                    listeners = tables[hook]
                    tables[hook] = listeners + solo if listeners else solo
        self._tables = tables

    def __len__(self) -> int:
        return len(self._observers)

    # ------------------------------------------------------------------ #
    # Dispatch: one method per hook, each looping its own table.

    wakeup = _dispatcher("on_wakeup")
    step = _dispatcher("on_step")
    nos_decision = _dispatcher("on_nos_decision")
    ets = _dispatcher("on_ets")
    punctuation = _dispatcher("on_punctuation")
    arrival = _dispatcher("on_arrival")
    buffer_change = _dispatcher("on_buffer_change")
    fault = _dispatcher("on_fault")
    quiesce = _dispatcher("on_quiesce")
    checkpoint = _dispatcher("on_checkpoint")
    recovery = _dispatcher("on_recovery")
    shard = _dispatcher("on_shard")
    feedback = _dispatcher("on_feedback")


class NullBus(EventBus):
    """A bus that drops everything — the module-level no-op fast path.

    Call sites outside the engine's hot loops (kernel event trains, fault
    monitors) use ``bus or NULL_BUS`` so they can emit unconditionally; the
    engine itself keeps the cheaper ``if bus is not None`` guard.  Nothing
    can attach, so every dispatch table stays empty.
    """

    __slots__ = ()

    def attach(self, observer: Observer) -> "EventBus":
        raise TypeError("NULL_BUS is shared and immutable; "
                        "create an EventBus to attach observers")


#: Shared do-nothing bus; safe to emit into from anywhere.
NULL_BUS = NullBus()
