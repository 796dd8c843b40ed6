"""The query-graph execution engine (paper Sections 3–4).

The engine implements the two-step cycle of paper Fig. 3 — *execute the
current operator, then select the next operator* — with the depth-first
Next-Operator-Selection (NOS) rules:

* **Forward**: if ``yield`` (the operator's output buffer holds tuples),
  the next operator is the successor consuming that buffer;
* **Encore**: else if ``more`` (processable input remains), re-execute the
  same operator;
* **Backtrack**: else move to the predecessor — for multi-input operators,
  to ``pred_j`` where *j* is the input whose emptiness gates progress — and
  repeat the NOS step there *without* executing.

When backtracking reaches a source node whose buffer is empty, the engine
consults its :class:`~repro.core.ets.EtsPolicy`.  Under
:class:`~repro.core.ets.OnDemandEts` the source injects a punctuation
carrying a fresh ETS, and the very next Forward step carries it down the
path that was just backtracked — this integration of timestamp management
with the execution model is the paper's core contribution.

The engine is also the simulation's CPU: every step charges simulated time
through the :class:`~repro.sim.cost.CostModel`, and a ``deliver_due`` hook
lets the kernel feed arrivals that became due while the engine was busy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, Iterable

from ..obs.bus import EventBus, Observer
from .config import EngineConfig
from .errors import ExecutionError
from .ets import EtsPolicy, NoEts
from .graph import QueryGraph
from .operators.base import BatchResult, OpContext, Operator, StepResult
from .operators.source import SourceNode

__all__ = ["EngineStats", "ExecutionEngine"]


@dataclass(slots=True)
class EngineStats:
    """Counters describing everything the engine has done so far.

    Attributes:
        rounds: Wake-up rounds executed.
        steps: Operator execution steps performed.
        data_steps / punct_steps: Steps that consumed a data tuple vs a
            punctuation tuple.
        probes: Window tuples examined across all joins (bucket-sized under
            indexed equality joins, window-sized under scan joins).
        probes_emitted: Examined candidates that passed the join condition
            and produced an output tuple.  The examined-vs-emitted gap is
            the wasted probe work a hash index removes.
        ets_offers: Times a stalled source consulted the ETS policy.
        ets_injected: Times the policy actually injected a punctuation.
        busy_time: Simulated CPU seconds consumed by operator steps.
        degradations / resyncs: Sources switched to fallback heartbeats by
            the stall detector, and switched back on recovery.
        fallback_heartbeats: Punctuation injected by fallback trains.
        quarantine_dropped / quarantine_clamped: Regressed-timestamp tuples
            absorbed by the quarantine policy instead of crashing ingest.
        invariant_violations: Violations the invariant monitor recorded in
            degrade mode (halt mode raises instead of counting here).
        blocks / block_rows: Columnar execution steps taken and the rows
            they consumed (block mode only).
        block_fallbacks: Block-mode steps routed through the scalar/batched
            path because the operator does not support blocks.
    """

    rounds: int = 0
    steps: int = 0
    data_steps: int = 0
    punct_steps: int = 0
    probes: int = 0
    probes_emitted: int = 0
    ets_offers: int = 0
    ets_injected: int = 0
    busy_time: float = 0.0
    emitted_data: int = 0
    emitted_punctuation: int = 0
    degradations: int = 0
    resyncs: int = 0
    fallback_heartbeats: int = 0
    quarantine_dropped: int = 0
    quarantine_clamped: int = 0
    invariant_violations: int = 0
    blocks: int = 0
    block_rows: int = 0
    block_fallbacks: int = 0
    per_operator_steps: dict[str, int] = field(default_factory=dict)
    block_fallbacks_by_operator: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """Every counter under its canonical ``snake_case`` name.

        This is the one serialized shape the metrics registry, the
        exporters, and the report helpers consume.
        """
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def snapshot_state(self) -> dict:
        """Versioned snapshot of every counter (checkpointing)."""
        state = self.as_dict()
        state["per_operator_steps"] = dict(self.per_operator_steps)
        state["block_fallbacks_by_operator"] = dict(
            self.block_fallbacks_by_operator)
        state["version"] = 1
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported EngineStats state: {state!r}")
        for f in dataclass_fields(self):
            if f.name == "per_operator_steps":
                self.per_operator_steps = dict(state[f.name])
            elif f.name == "block_fallbacks_by_operator":
                # Postdates snapshot version 1; default for old checkpoints.
                self.block_fallbacks_by_operator = dict(state.get(f.name, {}))
            elif f.name in ("blocks", "block_rows", "block_fallbacks"):
                # Columnar counters postdate snapshot version 1; default
                # them so pre-columnar checkpoints keep restoring.
                setattr(self, f.name, state.get(f.name, 0))
            else:
                setattr(self, f.name, state[f.name])


class ExecutionEngine:
    """Single-threaded DFS executor for one query graph.

    Args:
        graph: A validated (or validatable) :class:`QueryGraph`.
        clock: The virtual clock; advanced by the cost model per step.
        cost_model: CPU pricing; None means free (purely logical execution).
        ets_policy: What stalled sources do (scenarios A/B use
            :class:`NoEts`; scenario C uses :class:`OnDemandEts`).
        idle_tracker: Optional :class:`~repro.metrics.idle.IdleTracker`
            refreshed at every state change the engine causes.
        deliver_due: Kernel hook invoked with the current time between steps
            so arrivals that became due while the engine was busy enter
            their buffers at the right moment.
        offer_ets_always: When False (default), the ETS policy is consulted
            only while some IWP operator is idle-waiting on pending *data* —
            ETS exists to reactivate idle-waiting operators, and generating
            one with nothing to unblock is pure overhead.  Set True for the
            fidelity ablation where every dead-ended backtrack offers.
        batch_size: Micro-batch width.  1 (the default) is the paper's
            tuple-at-a-time execution.  For N > 1 the Encore rule consumes a
            whole run of up to N elements per execution step through
            :meth:`Operator.execute_batch` — runs never cross a punctuation,
            and the cost model still charges simulated CPU per tuple, so
            batching changes wall-clock throughput, not ETS semantics.
        block_mode: Columnar execution.  Operators advertising
            :attr:`Operator.supports_blocks` consume and produce
            struct-of-arrays :class:`~repro.core.columnar.ColumnarBlock`
            runs (up to ``batch_size`` rows per step) instead of tuple
            lists; all other operators fall back to
            :meth:`Operator.execute_batch` with head blocks exploded lazily
            by the buffer, so output stays byte-identical to the scalar
            engine.  Block mode implies batching: with ``batch_size == 1``
            blocks are single-row and pure overhead, so pick a real batch
            size (the :class:`~repro.api.Pipeline` default is 64).
        monitor: Optional :class:`~repro.faults.monitors.InvariantMonitor`
            (already installed on the graph); its per-round checks run at
            the end of every wake-up, and degrade-mode violations are
            counted into :attr:`EngineStats.invariant_violations`.
        observers: Instrumentation observers (see :mod:`repro.obs`).  When
            empty or None the engine stores no event bus at all and every
            emission site reduces to one ``is None`` test — the zero-
            overhead fast path guarded by ``bench_throughput.py``.
        max_steps_per_round: Safety valve for logical-mode loops; None means
            unbounded (the cost model plus event horizon bound real runs).
        config: Optional :class:`~repro.core.config.EngineConfig` supplying
            defaults for the shared knobs (batch_size, block_mode,
            checkpoint_every, observers, feedback, ets_policy,
            max_steps_per_round).  Explicit keyword arguments win.
    """

    def __init__(self, graph: QueryGraph, clock, *, cost_model=None,
                 ets_policy: EtsPolicy | None = None,
                 idle_tracker=None,
                 deliver_due: Callable[[float], None] | None = None,
                 offer_ets_always: bool = False,
                 batch_size: int = 1,
                 block_mode: bool = False,
                 monitor=None,
                 observers: Iterable[Observer] | None = None,
                 max_steps_per_round: int | None = None,
                 checkpoint_every: int | None = None,
                 feedback=None,
                 config: EngineConfig | None = None) -> None:
        if config is not None:
            knobs = config.resolve(
                dict(batch_size=batch_size, block_mode=block_mode,
                     checkpoint_every=checkpoint_every,
                     max_steps_per_round=max_steps_per_round),
                dict(batch_size=1, block_mode=False, checkpoint_every=None,
                     max_steps_per_round=None))
            batch_size = knobs["batch_size"]
            block_mode = knobs["block_mode"]
            checkpoint_every = knobs["checkpoint_every"]
            max_steps_per_round = knobs["max_steps_per_round"]
            if ets_policy is None:
                ets_policy = config.ets_policy_instance()
            if feedback is None:
                feedback = config.feedback_instance()
            observers = config.resolved_observers(observers) or None
        if not graph.is_validated:
            graph.validate()
        if batch_size < 1:
            raise ExecutionError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ExecutionError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.graph = graph
        self.clock = clock
        self.cost_model = cost_model
        self.ets_policy = ets_policy if ets_policy is not None else NoEts()
        self.idle_tracker = idle_tracker
        self.deliver_due = deliver_due
        self.offer_ets_always = offer_ets_always
        self.batch_size = batch_size
        self.block_mode = block_mode
        self.monitor = monitor
        self.max_steps_per_round = max_steps_per_round
        #: Checkpoint cadence in wake-up rounds; None disables.  The actual
        #: writing is delegated to :attr:`checkpoint_hook` (installed by a
        #: bound :class:`~repro.recovery.RecoveryManager`), keeping the
        #: engine free of any storage dependency.
        self.checkpoint_every = checkpoint_every
        self.checkpoint_hook: Callable[[int], None] | None = None
        #: Optional :class:`~repro.feedback.FeedbackController` sampled at
        #: the end of every wake-up.  None — the default — keeps the engine
        #: entirely feedback-free (and byte-identical to pre-feedback runs).
        self.feedback = feedback
        if feedback is not None:
            feedback.bind(graph, self)
        self.stats = EngineStats()
        self.ctx = OpContext(clock=clock)
        self._round_id = 0
        self._iwp_ops = graph.iwp_operators()
        self._executable = [op for op in graph.operators
                            if not isinstance(op, SourceNode)]
        obs_list = list(observers) if observers is not None else []
        self.bus: EventBus | None = EventBus(obs_list) if obs_list else None
        for observer in obs_list:
            self._bind_observer(observer)
        self._buffer_forward = None
        self._wire_buffer_events()
        if monitor is not None and self.bus is not None \
                and getattr(monitor, "bus", None) is None:
            monitor.bus = self.bus

    def attach_observer(self, observer: Observer) -> "ExecutionEngine":
        """Attach one observer, creating the event bus on first use."""
        if self.bus is None:
            self.bus = EventBus()
        self.bus.attach(observer)
        self._bind_observer(observer)
        self._wire_buffer_events()
        if self.monitor is not None \
                and getattr(self.monitor, "bus", None) is None:
            self.monitor.bus = self.bus
        return self

    def _bind_observer(self, observer: Observer) -> None:
        """Hand an attached observer the graph this engine runs."""
        bind = getattr(observer, "bind_graph", None)
        if bind is not None:
            bind(self.graph)

    def _wire_buffer_events(self) -> None:
        """Feed buffer-occupancy changes to the bus iff someone listens."""
        bus = self.bus
        if bus is None or getattr(self, "_buffer_forward", None) is not None \
                or not bus.listeners("on_buffer_change"):
            return
        registry, clock = self.graph.registry, self.clock

        def forward(total: int) -> None:
            bus.buffer_change(total=total, time=clock.now())

        self._buffer_forward = forward
        registry.add_observer(forward)

    # ------------------------------------------------------------------ #
    # Public API

    @property
    def round_id(self) -> int:
        return self._round_id

    def wakeup(self, entry: SourceNode | Operator | None = None) -> None:
        """Run the engine to quiescence.

        Args:
            entry: Optional hint — the source (or operator) where new input
                just appeared; the DFS starts there.  Work elsewhere in the
                graph is found by scanning once the entry path quiesces.
        """
        self._round_id += 1
        self.stats.rounds += 1
        if self.cost_model is not None:
            self.clock.advance(self.cost_model.scheduling_overhead)
        if self.bus is not None:
            self.bus.wakeup(round_id=self._round_id, time=self.clock.now(),
                            entry=entry.name if entry is not None else None)
        self._refresh_idle()
        steps_before = self.stats.steps

        if entry is not None:
            self._walk(entry)
        while True:
            self._pump_due()
            progressed = False
            for op in self._executable:
                if op.more():
                    progressed = self._walk(op) or progressed
            if not progressed:
                # No operator can execute; give idle-waiting IWP operators a
                # chance to trigger on-demand ETS through backtracking.
                for op in self._iwp_ops:
                    if op.has_pending_data() and not op.more():
                        progressed = self._walk(op) or progressed
            if not progressed:
                break
            if (self.max_steps_per_round is not None
                    and self.stats.steps - steps_before
                    >= self.max_steps_per_round):
                raise ExecutionError(
                    f"engine exceeded {self.max_steps_per_round} steps in one "
                    "round; livelock or undersized budget"
                )
        self._refresh_idle()
        if self.feedback is not None:
            # Feedback sampling happens at quiescence: reactions only turn
            # knobs (drop budgets, slack, admission rates) for *future*
            # input, so the completed round's output is already settled.
            self.feedback.sample(self.clock.now(), self._round_id)
        if self.monitor is not None:
            # Halt-mode monitors raise out of the wake-up; degrade-mode
            # violations are only counted (and traced by the monitor).
            self.stats.invariant_violations += self.monitor.check(
                self.clock.now())
        if self.bus is not None:
            self.bus.quiesce(round_id=self._round_id, time=self.clock.now())
        if (self.checkpoint_every is not None
                and self.checkpoint_hook is not None
                and self._round_id % self.checkpoint_every == 0):
            self.checkpoint_hook(self._round_id)

    def snapshot_state(self) -> dict:
        """Versioned snapshot of engine progress (stats + round counter)."""
        state = {
            "version": 1,
            "round_id": self._round_id,
            "stats": self.stats.snapshot_state(),
        }
        if self.feedback is not None:
            state["feedback"] = self.feedback.snapshot_state()
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported ExecutionEngine state: {state!r}")
        self._round_id = state["round_id"]
        self.stats.restore_state(state["stats"])
        feedback_state = state.get("feedback")
        if feedback_state is not None and self.feedback is not None:
            self.feedback.restore_state(feedback_state)

    def run_to_quiescence(self) -> None:
        """Alias for ``wakeup()`` with no entry hint (useful in tests)."""
        self.wakeup()

    # ------------------------------------------------------------------ #
    # DFS walk implementing the NOS rules

    def _walk(self, start: Operator) -> bool:
        """Run the Execute/Continue cycle from ``start`` until a dead end.

        Returns True when any step executed or any ETS was injected.

        NOS transitions are published to the event bus right here — the
        single walk implementation serves tracing, metrics, and exporters
        alike (the old ``TracingEngine`` duplicated this method and drifted;
        now a missing observer costs one ``is None`` test per decision).
        """
        progress = False
        current = start
        execute = True  # False right after Backtrack ("repeat the NOS step")
        bus = self.bus
        registry = self.graph.registry
        # Operators (and sources) visited without executing since the last
        # buffer mutation.  Re-reaching one means the NOS rules are cycling
        # through a topology where Forward and Backtrack chase each other —
        # a source feeding two consumers (diamond) does exactly that when
        # one arm stalls gated on the other.  Any buffer change invalidates
        # the set: new state means a dead operator may now execute.
        dead: set[int] = set()
        dead_stamp = registry.mutations
        while True:
            self._pump_due()
            if registry.mutations != dead_stamp:
                dead_stamp = registry.mutations
                dead.clear()
            if isinstance(current, SourceNode):
                nxt = self._forward_target(current, dead)
                if nxt is not None:
                    if bus is not None:
                        bus.nos_decision(decision="forward",
                                         operator=nxt.name,
                                         round_id=self._round_id,
                                         time=self.clock.now())
                    current, execute = nxt, True
                    continue
                # Every live successor is dead-ended: this is the genuine
                # stalled-source dead end the ETS hook exists for, even when
                # some output buffer is nonempty (diamond topologies).
                if id(current) in dead:
                    return progress
                dead.add(id(current))
                if self._try_ets(current):
                    progress = True
                    continue  # the injected punctuation enables Forward
                return progress

            # [Execution Step] — in batched mode the Encore rule consumes a
            # whole run (up to batch_size elements, never across the next
            # punctuation) per step instead of a single element.
            if execute and current.more():
                if self.block_mode:
                    if current.supports_blocks:
                        self._step_block(current)
                    else:
                        stats = self.stats
                        stats.block_fallbacks += 1
                        by_op = stats.block_fallbacks_by_operator
                        by_op[current.name] = by_op.get(current.name, 0) + 1
                        self._step_batch(current)
                elif self.batch_size > 1:
                    self._step_batch(current)
                else:
                    self._step(current)
                progress = True
            else:
                # Visited without executing: a second visit in the same
                # buffer state would retrace the identical continuation.
                if id(current) in dead:
                    return progress
                dead.add(id(current))

            # [Continuation Step] — NOS rules
            nxt = self._forward_target(current)
            if nxt is not None:  # Forward
                if bus is not None:
                    bus.nos_decision(decision="forward", operator=nxt.name,
                                     round_id=self._round_id,
                                     time=self.clock.now())
                current, execute = nxt, True
                continue
            if current.more():  # Encore
                if bus is not None:
                    bus.nos_decision(decision="encore", operator=current.name,
                                     round_id=self._round_id,
                                     time=self.clock.now())
                execute = True
                continue
            # Backtrack: to the predecessor feeding the gating input.
            if not current.inputs:
                return progress
            j = current.stalled_input_index()
            pred = current.predecessors[j]
            if pred is None:
                return progress
            if bus is not None:
                bus.nos_decision(decision="backtrack", operator=pred.name,
                                 round_id=self._round_id,
                                 time=self.clock.now(),
                                 detail=f"stalled input {j} of "
                                        f"{current.name}")
            current, execute = pred, False

    @staticmethod
    def _forward_target(op: Operator,
                        dead: set[int] | None = None) -> Operator | None:
        """Forward rule: the successor consuming a nonempty output buffer.

        Iterates the operator's precomputed ``forward_pairs`` table (arcs
        with a live consumer, maintained at wiring time) instead of
        re-zipping and re-filtering the edge lists on every NOS decision.

        ``dead`` (source nodes only) skips successors already visited
        without executing in the current buffer state, so a stalled diamond
        reaches the ETS consultation instead of re-forwarding forever.
        """
        for buf, succ in op.forward_pairs:
            if buf and (dead is None or id(succ) not in dead):
                return succ
        return None

    def _step(self, op: Operator) -> StepResult:
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
        cost = 0.0
        if self.cost_model is not None:
            cost = self.cost_model.step_cost(op, result)
            if cost:
                self.clock.advance(cost)
                stats.busy_time += cost
        if self.bus is not None:
            self.bus.step(
                operator=op.name, round_id=self._round_id,
                time=self.clock.now(),
                kind="punct" if result.consumed_punctuation else "data",
                probes=result.probes, probes_emitted=result.probes_emitted,
                emitted_data=result.emitted_data,
                emitted_punctuation=result.emitted_punctuation,
                duration=cost)
        self._refresh_idle()
        return result

    def _step_batch(self, op: Operator) -> BatchResult:
        """One micro-batched execution step: a run of scalar-equivalent steps.

        Stats count scalar-equivalent steps and the cost model charges per
        tuple, so EngineStats and simulated time stay comparable with the
        scalar engine; only the Python dispatch is amortized.
        """
        batch = op.execute_batch(self.ctx, self.batch_size)
        stats = self.stats
        stats.steps += batch.steps
        stats.data_steps += batch.consumed_data
        stats.punct_steps += batch.consumed_punctuation
        stats.probes += batch.probes
        stats.probes_emitted += batch.probes_emitted
        stats.emitted_data += batch.emitted_data
        stats.emitted_punctuation += batch.emitted_punctuation
        per_op = stats.per_operator_steps
        per_op[op.name] = per_op.get(op.name, 0) + batch.steps
        cost = 0.0
        if self.cost_model is not None:
            cost = self.cost_model.batch_cost(op, batch)
            if cost:
                self.clock.advance(cost)
                stats.busy_time += cost
        if self.bus is not None and batch.steps:
            self.bus.step(
                operator=op.name, round_id=self._round_id,
                time=self.clock.now(), kind="batch", steps=batch.steps,
                probes=batch.probes, probes_emitted=batch.probes_emitted,
                emitted_data=batch.emitted_data,
                emitted_punctuation=batch.emitted_punctuation,
                duration=cost)
        self._refresh_idle()
        return batch

    def _step_block(self, op: Operator) -> BatchResult:
        """One columnar execution step: a block of scalar-equivalent steps.

        Accounting mirrors :meth:`_step_batch` — stats count
        scalar-equivalent steps and the cost model charges per tuple — plus
        the columnar counters (``blocks`` / ``block_rows``), so block mode
        changes wall-clock throughput, never simulated time or semantics.
        """
        batch = op.execute_block(self.ctx, self.batch_size)
        stats = self.stats
        stats.steps += batch.steps
        stats.data_steps += batch.consumed_data
        stats.punct_steps += batch.consumed_punctuation
        stats.probes += batch.probes
        stats.probes_emitted += batch.probes_emitted
        stats.emitted_data += batch.emitted_data
        stats.emitted_punctuation += batch.emitted_punctuation
        stats.blocks += 1
        stats.block_rows += batch.consumed_data
        per_op = stats.per_operator_steps
        per_op[op.name] = per_op.get(op.name, 0) + batch.steps
        cost = 0.0
        if self.cost_model is not None:
            cost = self.cost_model.batch_cost(op, batch)
            if cost:
                self.clock.advance(cost)
                stats.busy_time += cost
        if self.bus is not None and batch.steps:
            self.bus.step(
                operator=op.name, round_id=self._round_id,
                time=self.clock.now(), kind="block", steps=batch.steps,
                probes=batch.probes, probes_emitted=batch.probes_emitted,
                emitted_data=batch.emitted_data,
                emitted_punctuation=batch.emitted_punctuation,
                duration=cost)
        self._refresh_idle()
        return batch

    # ------------------------------------------------------------------ #
    # ETS integration (the Backtrack-to-source hook)

    def _try_ets(self, source: SourceNode) -> bool:
        offered = self.offer_ets_always or self._ets_needed()
        injected = False
        if offered:
            self.stats.ets_offers += 1
            injected = self.ets_policy.on_source_stalled(
                source, self.clock.now(), self._round_id)
        if injected:
            self.stats.ets_injected += 1
            if self.cost_model is not None:
                cost = self.cost_model.ets_generation
                if cost:
                    self.clock.advance(cost)
                    self.stats.busy_time += cost
            self._refresh_idle()
        if self.bus is not None:
            self.bus.ets(operator=source.name, round_id=self._round_id,
                         time=self.clock.now(), injected=injected,
                         offered=offered)
            if injected:
                self.bus.punctuation(
                    operator=source.name, round_id=self._round_id,
                    time=self.clock.now(), origin="ets")
        return injected

    def _ets_needed(self) -> bool:
        """Is any IWP operator idle-waiting on pending data right now?"""
        return any(op.has_pending_data() and not op.more()
                   for op in self._iwp_ops)

    # ------------------------------------------------------------------ #
    # Bookkeeping hooks

    def _pump_due(self) -> None:
        if self.deliver_due is not None:
            self.deliver_due(self.clock.now())

    def _refresh_idle(self) -> None:
        if self.idle_tracker is not None:
            self.idle_tracker.refresh(self.clock.now())
