"""Graceful degradation: stall detection, fallback heartbeats, quarantine.

The on-demand ETS of the paper assumes sources answer ``on_source_stalled``
usefully and that declared skew bounds hold.  Production streams break both
assumptions — sources die, clocks spike past ``external_delta``, progress
messages get lost.  This module is the degradation ladder the engine climbs
down instead of stalling or crashing:

1. **on-demand ETS** (healthy): punctuation generated exactly when
   backtracking needs it;
2. **fallback heartbeats** (source stalled): a :class:`StallDetector`
   watches per-source silence; past the timeout the
   :class:`FallbackHeartbeat` policy degrades that source to periodic
   punctuation so idle-waiting operators regain liveness within a bounded
   delay, and resyncs cleanly when the source recovers;
3. **quarantine** (timestamps regressed): a :class:`QuarantinePolicy`
   decides — per configuration — whether a regressed external timestamp
   raises (strict), is dropped, or is clamped to the stream frontier,
   with counters surfaced in ``EngineStats`` and the tracer.

The kernel (:class:`~repro.sim.kernel.Simulation`) owns the wiring: it
polls the detector on a watchdog event train, runs the fallback heartbeat
trains, and notifies the detector on every arrival.
"""

from __future__ import annotations

from ..core.errors import PolicyError, TimestampError
from ..core.ets import EtsPolicy, NoEts
from ..core.execution import EngineStats
from ..core.operators.source import SourceNode
from ..core.timestamps import InternalClockEts, SkewBoundEts
from ..core.tracing import Tracer
from ..core.tuples import TimestampKind
from ..obs.bus import EventBus, Observer

__all__ = ["FallbackHeartbeat", "QuarantinePolicy", "StallDetector"]


class StallDetector(Observer):
    """Watches per-source silence and classifies sources as stalled.

    The detector is an ordinary :class:`~repro.obs.bus.Observer`: the
    kernel registers it on the engine's event bus, where its
    :meth:`on_arrival` hook feeds :meth:`observe`.  When an arrival ends a
    stall the :attr:`recovery_callback` (set by the kernel) drives the
    resync path.  It is deliberately not named ``on_recovery``: that is the
    bus hook for recovery from disk, which the detector does not handle.

    Args:
        timeout: Silence (stream seconds) after which a source counts as
            stalled.
        check_period: How often the kernel's watchdog polls; defaults to a
            quarter of the timeout, bounding detection latency to
            ``timeout + check_period``.

    Attributes:
        stalled: Names of sources currently classified as stalled.
        stalls / recoveries: Lifetime transition counters.
        recovery_callback: Optional ``(source_name, now) -> None`` callback
            fired when an observed arrival ends a stall.
    """

    def __init__(self, timeout: float, *,
                 check_period: float | None = None) -> None:
        if timeout <= 0:
            raise PolicyError(f"stall timeout must be positive, got {timeout}")
        if check_period is not None and check_period <= 0:
            raise PolicyError(
                f"check_period must be positive, got {check_period}")
        self.timeout = timeout
        self.check_period = (check_period if check_period is not None
                             else timeout / 4.0)
        self.stalled: set[str] = set()
        self.stalls = 0
        self.recoveries = 0
        self.recovery_callback = None
        #: Optional ``() -> float`` returning the live feedback pressure
        #: (:attr:`repro.feedback.FeedbackController.pressure`); wired by
        #: the kernel when a controller is installed.  Under pressure the
        #: effective timeout stretches (see :attr:`pressure_timeout_scale`)
        #: — a backpressure-throttled source is *slow*, not *dead*, and
        #: degrading it to heartbeats would misread congestion as a stall.
        self.pressure_provider = None
        #: Extra timeout fraction granted at full pressure (1.0 doubles it).
        self.pressure_timeout_scale = 1.0
        self._last_activity: dict[str, float] = {}

    def on_arrival(self, *, operator: str, time: float,
                   external_ts: float | None = None) -> None:
        """Bus hook: every source arrival counts as activity."""
        if (self.observe(operator, time)
                and self.recovery_callback is not None):
            self.recovery_callback(operator, time)

    def bind(self, graph, now: float) -> None:
        """Start watching every non-latent source of ``graph`` from ``now``.

        Latent streams never gate idle-waiting operators, so their silence
        needs no degradation.
        """
        self._last_activity = {
            s.name: now for s in graph.sources()
            if s.timestamp_kind is not TimestampKind.LATENT
        }
        self.stalled.clear()

    @property
    def watched(self) -> set[str]:
        return set(self._last_activity)

    def observe(self, source_name: str, now: float) -> bool:
        """Record activity on a source; True when this ends a stall."""
        if source_name not in self._last_activity:
            return False
        self._last_activity[source_name] = now
        if source_name in self.stalled:
            self.stalled.discard(source_name)
            self.recoveries += 1
            return True
        return False

    def effective_timeout(self) -> float:
        """The silence timeout, stretched by live feedback pressure."""
        if self.pressure_provider is None:
            return self.timeout
        pressure = self.pressure_provider()
        if pressure <= 0.0:
            return self.timeout
        return self.timeout * (1.0 + self.pressure_timeout_scale
                               * min(1.0, pressure))

    def poll(self, now: float) -> list[str]:
        """Return sources that crossed the silence timeout since last poll."""
        newly_stalled = []
        timeout = self.effective_timeout()
        for name, last in self._last_activity.items():
            if name not in self.stalled and now - last >= timeout:
                self.stalled.add(name)
                self.stalls += 1
                newly_stalled.append(name)
        return newly_stalled


class FallbackHeartbeat(EtsPolicy):
    """ETS-policy wrapper that degrades stalled sources to heartbeats.

    While a source is healthy this policy is transparent: every
    ``on_source_stalled`` callback goes straight to ``inner`` (typically
    :class:`~repro.core.ets.OnDemandEts`).  When the kernel's stall
    detector flags the source, :meth:`degrade` switches it to a periodic
    fallback-heartbeat train (run by the kernel) whose values come from the
    same generators on-demand ETS uses — except that external sources are
    allowed a cold start, because a permanently silent source would
    otherwise never unblock anything.  On recovery :meth:`resync` stops the
    train; the quarantine policy absorbs any timestamps the degraded
    watermark outran.

    Args:
        inner: The healthy-path policy (default :class:`NoEts`).
        heartbeat_period: Gap between fallback heartbeats on a degraded
            source.
        external_delta: Skew bound for fallback values on externally
            timestamped sources.

    Attributes:
        degraded: Names of sources currently on fallback heartbeats.
        degradations / resyncs / fallback_heartbeats: Lifetime counters.
    """

    def __init__(self, inner: EtsPolicy | None = None, *,
                 heartbeat_period: float,
                 external_delta: float = 0.0) -> None:
        if heartbeat_period <= 0:
            raise PolicyError(
                f"heartbeat_period must be positive, got {heartbeat_period}")
        self.inner = inner if inner is not None else NoEts()
        self.heartbeat_period = heartbeat_period
        self.external_delta = external_delta
        self.degraded: set[str] = set()
        self.degradations = 0
        self.resyncs = 0
        self.fallback_heartbeats = 0
        #: Optional live pressure view (wired by the kernel alongside a
        #: feedback controller).  Fallback trains *add* punctuation work
        #: downstream, so under pressure the train slows down — see
        #: :meth:`heartbeat_period_now`.
        self.pressure_provider = None

    # -- healthy path: pure delegation ---------------------------------- #

    def on_source_stalled(self, source: SourceNode, now: float,
                          round_id: int) -> bool:
        return self.inner.on_source_stalled(source, now, round_id)

    # -- degradation ladder (driven by the kernel) ----------------------- #

    def is_degraded(self, source_name: str) -> bool:
        return source_name in self.degraded

    def degrade(self, source: SourceNode, now: float) -> bool:
        """Switch ``source`` to fallback heartbeats; False when already on."""
        if source.name in self.degraded:
            return False
        self.degraded.add(source.name)
        self.degradations += 1
        return True

    def resync(self, source_name: str) -> bool:
        """Return ``source_name`` to the healthy path (source recovered)."""
        if source_name not in self.degraded:
            return False
        self.degraded.discard(source_name)
        self.resyncs += 1
        return True

    def heartbeat_period_now(self) -> float:
        """The train period in force: base period stretched by pressure.

        At full pressure the period doubles; with no provider (or no
        pressure) this is exactly :attr:`heartbeat_period`, keeping
        feedback-free runs byte-identical.
        """
        if self.pressure_provider is None:
            return self.heartbeat_period
        pressure = self.pressure_provider()
        if pressure <= 0.0:
            return self.heartbeat_period
        return self.heartbeat_period * (1.0 + min(1.0, pressure))

    def heartbeat_ts(self, source: SourceNode, now: float) -> float | None:
        """The punctuation value for one fallback heartbeat, or None."""
        kind = source.timestamp_kind
        if kind is TimestampKind.INTERNAL:
            return InternalClockEts().propose(source, now)
        if kind is TimestampKind.EXTERNAL:
            return SkewBoundEts(self.external_delta,
                                allow_cold_start=True).propose(source, now)
        return None  # latent sources never idle-wait


class QuarantinePolicy:
    """What happens to a timestamp that regressed below the stream frontier.

    After a clock-skew fault (or a fallback heartbeat that outran a
    recovering source) an arriving external timestamp can sit below the
    source's frontier — strictly a :class:`TimestampError`.  The quarantine
    policy turns that hard crash into a configurable degradation:

    * ``"raise"`` — keep the strict behaviour (default; the error still
      carries structured fields);
    * ``"drop"`` — discard the offending tuple and count it;
    * ``"clamp"`` — admit the tuple with its timestamp raised to the
      frontier, preserving content at the cost of timestamp fidelity.

    Counters are mirrored into the bound :class:`EngineStats` and every
    decision is published as a ``"quarantine"`` fault event on the bound
    event bus (or, lacking one, recorded on a legacy tracer).
    """

    MODES = ("raise", "drop", "clamp")

    def __init__(self, mode: str = "raise", *,
                 overload_mode: str | None = None,
                 overload_threshold: float = 0.5) -> None:
        if mode not in self.MODES:
            raise PolicyError(
                f"quarantine mode must be one of {self.MODES}, got {mode!r}")
        if overload_mode is not None and overload_mode not in self.MODES:
            raise PolicyError(
                f"quarantine overload_mode must be one of {self.MODES}, "
                f"got {overload_mode!r}")
        self.mode = mode
        #: Mode substituted while feedback pressure is at or above
        #: :attr:`overload_threshold` — e.g. a ``"clamp"`` policy that
        #: switches to ``"drop"`` under overload, because clamped admissions
        #: still cost downstream work the system cannot absorb.  None (the
        #: default) keeps one mode regardless of pressure.
        self.overload_mode = overload_mode
        self.overload_threshold = overload_threshold
        #: Optional live pressure view, wired by the kernel.
        self.pressure_provider = None
        self.dropped = 0
        self.clamped = 0
        self.raised = 0
        self._stats: EngineStats | None = None
        self._tracer: Tracer | None = None
        self._bus: EventBus | None = None

    def bind(self, stats: EngineStats | None = None,
             tracer: Tracer | None = None,
             bus: EventBus | None = None) -> None:
        """Mirror counters into ``stats`` and decisions onto ``bus``
        (preferred) or ``tracer`` (legacy)."""
        self._stats = stats
        self._tracer = tracer
        self._bus = bus

    @property
    def total(self) -> int:
        return self.dropped + self.clamped + self.raised

    def _trace(self, source_name: str, detail: str, now: float) -> None:
        round_id = self._stats.rounds if self._stats is not None else 0
        if self._bus is not None:
            self._bus.fault(kind="quarantine", operator=source_name,
                            round_id=round_id, time=now, detail=detail)
        elif self._tracer is not None:
            self._tracer.record("quarantine", source_name, round_id, detail)

    def handle(self, *, source_name: str, ts: float, floor: float,
               now: float) -> float | None:
        """Decide one regressed timestamp; called by ``SourceNode.ingest``.

        Returns the admitted (possibly clamped) timestamp, None to drop the
        tuple, or raises in ``"raise"`` mode.
        """
        mode = self.mode
        if (self.overload_mode is not None
                and self.pressure_provider is not None
                and self.pressure_provider() >= self.overload_threshold):
            mode = self.overload_mode
        if mode == "drop":
            self.dropped += 1
            if self._stats is not None:
                self._stats.quarantine_dropped += 1
            self._trace(source_name, f"drop ts={ts} floor={floor}", now)
            return None
        if mode == "clamp":
            self.clamped += 1
            if self._stats is not None:
                self._stats.quarantine_clamped += 1
            self._trace(source_name, f"clamp ts={ts} -> {floor}", now)
            return floor
        self.raised += 1
        self._trace(source_name, f"raise ts={ts} floor={floor}", now)
        raise TimestampError(
            f"source {source_name!r}: quarantined timestamp regression "
            f"({ts} below frontier {floor})",
            operator=source_name, port=0, offending_ts=ts,
            last_seen_ts=floor, kind="quarantine",
        )
