"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sharded_keyed --seed 1 \\
        --seconds 10 --trace 0

A run generates its inputs from ``--seed``, times ``setup_s`` over many
fresh set-ups, warms up with one untimed drive, then drives the whole input
through a fresh system repeatedly until ``--seconds`` of measuring have
passed, and reports the best of those drives.  Outputs are checked
outside the timed phase against one scalar ``ExecutionEngine`` on the same
input.  ``--trace 1`` instead measures the per-layer metrics: an untraced
baseline, then one drive with a span around every call into each layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh set-ups timed for ``setup_s`` before the warm-up and again before
#: every timed drive (each drive's own set-up is timed too).  The host's
#: speed shifts in phases, so samples spread over the whole run give a
#: steadier median than one batch at its start.
SETUP_SAMPLES = 20
#: Lower bound on timed drives, whatever ``--seconds`` says.
MIN_DRIVES = 2
#: Traced drives in a ``--trace 1`` run; the fastest is reported.
TRACED_DRIVES = 5

#: The end-to-end metrics of the JSON result (BENCHMARK.json).
E2E_UNITS = {
    "throughput_tps": "arrivals/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Printed beside them but kept out of the JSON result (see README.md):
#: the wall-clock p99 moves with the host's load by more than any
#: regression bound allows; the rest are fixed by the seed (virtual time,
#: buffer counts) or zero when outputs are correct.
INFO_UNITS = {
    "latency_p99_ms": "ms",
    "vlatency_mean_ms": "ms",
    "vlatency_p99_ms": "ms",
    "idle_wait_frac": "fraction",
    "peak_queue_tuples": "tuples",
    "output_mismatch_frac": "fraction",
}

LAYER_UNITS = {
    "sim.events": "count",
    "sim.self_s": "s",
    "execution.wakeups": "count",
    "execution.steps": "count",
    "execution.self_s": "s",
    "execution.punct_step_share": "fraction",
    "execution.rows_per_block": "rows",
    "execution.block_fallbacks": "count",
    "ets.offers": "count",
    "ets.injected": "count",
    "ets.inject_ratio": "fraction",
    "ets.self_s": "s",
    "source.ingest_calls": "count",
    "source.ingest_s": "s",
    "buffers.peak_resident": "tuples",
    "union.calls": "count",
    "union.self_s": "s",
    "union.more_s": "s",
    "join.self_s": "s",
    "join.probe_hit_ratio": "fraction",
    "reorder.self_s": "s",
    "reorder.late_dropped": "count",
    "select.self_s": "s",
    "sink.self_s": "s",
    "idle_tracker.self_s": "s",
    "obs.events": "count",
    "obs.self_s": "s",
    "shard.ingest_s": "s",
    "shard.wakeup_s": "s",
    "shard.engine_busy_s": "s",
    "shard.merge_s": "s",
    "shard.merge_pending_peak": "records",
    "shard.frontier_spread_max": "s",
    "shard.ingest_skew": "ratio",
    "shard.facade_overhead_ratio": "ratio",
    "harness.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Timed:
    """What is kept of one timed drive.

    The per-output arrays are reduced as soon as the drive ends, so the
    number of drives a run fits in ``--seconds`` does not move
    ``peak_rss_mb``.
    """

    tps: float
    busy_s: float
    p50_ms: float
    p99_ms: float
    vmean_ms: float
    vp99_ms: float
    count: int
    digest: int
    figures: dict

    @classmethod
    def of(cls, result, sink, figures) -> "Timed":
        return cls(result.arrivals / result.busy_s, result.busy_s,
                   percentile(sink.wall_ms, 50), percentile(sink.wall_ms, 99),
                   statistics.fmean(sink.virtual_ms),
                   percentile(sink.virtual_ms, 99), sink.count, sink.digest,
                   {k: v for k, v in figures.items()
                    if isinstance(v, (int, float))})


class Runner:
    """Runs one workload on one seed's inputs."""

    def __init__(self, workload, seed: int) -> None:
        from workloads import OutputSink

        self.workload = workload
        self.make_sink = OutputSink
        self.inputs = workload.generate(seed)
        self.setup_samples: list[float] = []
        self.captured = None
        self.captured_figures: dict = {}

    def setup(self):
        t0 = perf_counter()
        system = self.workload.setup(self.inputs)
        self.setup_samples.append(perf_counter() - t0)
        return system

    def time_setups(self, count: int) -> None:
        for _ in range(count):
            self.workload.close(self.setup())

    def drive(self, capture: bool = False, instrument=None):
        """One drive on a fresh system: ``(Drive, OutputSink, figures)``.

        ``instrument(system, sink, run)``, when given, runs between set-up
        and drive and returns the callable that performs the drive.
        """
        system = self.setup()
        sink = self.make_sink(capture)
        run = lambda: self.workload.drive(system, self.inputs, sink)  # noqa
        if instrument is not None:
            run = instrument(system, sink, run)
        result = run()
        return result, sink, self.workload.close(system)

    def timed_drives(self, seconds: float) -> list[Timed]:
        drives = []
        start = perf_counter()
        while len(drives) < MIN_DRIVES or perf_counter() - start < seconds:
            self.time_setups(SETUP_SAMPLES)
            drives.append(Timed.of(*self.drive()))
        return drives

    def warm_up(self) -> None:
        """One untimed drive that also captures every output's identity."""
        _result, self.captured, self.captured_figures = self.drive(
            capture=True)

    def check(self, drives) -> dict:
        """Compare outputs with the scalar reference, outside any timing.

        The warm-up drive's outputs must match the reference's (see
        :func:`compare`) and must all come from block steps; every timed
        drive must match its count and order-free digest.
        """
        captured, figures = self.captured, self.captured_figures
        reference = self.workload.reference(self.inputs)
        found = compare(reference, captured.captured, figures["ts_tolerance"])
        found["fallbacks"] = sum(e.stats.block_fallbacks
                                 for e in figures["engines"])
        failed = (found["missing"] + found["extra"] + found["misstamped"]
                  + found["fallbacks"])
        for timed in drives:
            if (timed.count, timed.digest) != (captured.count,
                                               captured.digest):
                failed += max(1, abs(timed.count - captured.count))
        attempted = max(1, len(reference.ts))
        return {**found, "attempted": attempted, "failed": failed,
                "tolerance": figures["ts_tolerance"],
                "mismatch_frac": failed / attempted}


def compare(expected, got, tolerance: float) -> dict:
    """Match two output multisets by payload, then compare timestamps.

    Outputs with equal payloads are paired in timestamp order.  An
    unpaired expected output is *missing*, an unpaired produced one
    *extra*; a pair whose timestamps differ is *shifted*, and *mis-stamped*
    when they differ by more than ``tolerance`` seconds.
    """
    def by_content(ids):
        stamps = defaultdict(list)
        for key, ts in zip(ids.content, ids.ts):
            stamps[key].append(ts)
        return stamps

    want, have = by_content(expected), by_content(got)
    missing = shifted = misstamped = 0
    max_shift = 0.0
    for key, stamps in want.items():
        other = have.get(key, [])
        missing += max(0, len(stamps) - len(other))
        for a, b in zip(sorted(stamps), sorted(other)):
            shift = abs(a - b)
            if shift:
                shifted += 1
                max_shift = max(max_shift, shift)
                misstamped += shift > tolerance
    extra = sum(max(0, len(stamps) - len(want.get(key, ())))
                for key, stamps in have.items())
    return {"missing": missing, "extra": extra, "shifted": shifted,
            "misstamped": misstamped, "max_shift": max_shift}


def end_to_end(runner: Runner, drives, rss: float) -> dict:
    """The highest throughput and the lowest median latency over the drives.

    Other load on the host only ever slows a drive, and on a shared host
    it comes and goes in phases from seconds to minutes.  The best of a
    run's many short drives is the figure least moved by it: a cost the
    system adds to every drive still shows in full, while a stretch of
    host contention shows only if it covers the whole run (see README.md).
    ``setup_s`` is the median of every set-up in the run.
    """
    return {
        "throughput_tps": max(d.tps for d in drives),
        "latency_p50_ms": min(d.p50_ms for d in drives),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(runner.setup_samples),
    }


def info(drives, check: dict) -> dict:
    """The printed-only figures.

    ``latency_p99_ms`` is the lowest over the drives, like the median
    latency; the rest are identical across drives of one seed.
    """
    first = drives[0]
    out = {
        "latency_p99_ms": min(d.p99_ms for d in drives),
        "vlatency_mean_ms": first.vmean_ms,
        "vlatency_p99_ms": first.vp99_ms,
        "idle_wait_frac": first.figures.get("idle_wait_frac"),
        "peak_queue_tuples": first.figures["peak_queue_tuples"],
        "output_mismatch_frac": check["mismatch_frac"],
    }
    return {k: v for k, v in out.items() if v is not None}


def traced_drive(runner: Runner):
    """One drive with spans around every call into each layer:
    ``(Drive, figures, Tracer, sampled merge state)``."""
    from tracing import Tracer

    tracer = Tracer()
    samples = {"pending": 0, "spread": 0.0}

    def instrument(system, sink, run):
        sink.run = lambda fn: tracer.span("harness.outputs", fn)
        if "sim" in system:
            tracer.instrument_simulation(system["sim"])
        else:
            sharded = system["sharded"]

            def sample():
                samples["pending"] = max(samples["pending"],
                                         sharded.merge.pending)
                samples["spread"] = max(samples["spread"],
                                        sharded.tracker.spread())

            tracer.instrument_sharded(sharded, sample)
        return lambda: tracer.span("harness.drive", run)

    result, _sink, figures = runner.drive(instrument=instrument)
    return result, figures, tracer, samples


def traced_layers(runner: Runner, baseline: list, dump_path: Path) -> dict:
    """The fastest of a few traced drives, as the untraced figures take the
    best drive; returns the per-layer metrics and prints tables."""
    from repro.api import Reorder

    result, figures, tracer, samples = min(
        (traced_drive(runner) for _ in range(TRACED_DRIVES)),
        key=lambda traced: traced[0].busy_s)
    summary = tracer.summarize()
    tracer.dump(dump_path)
    names, layers = summary["names"], summary["layers"]

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return names.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    engines, graphs = figures["engines"], figures["graphs"]
    stat = lambda field: sum(getattr(e.stats, field) for e in engines)  # noqa
    steps, blocks = stat("steps"), stat("blocks")
    offers, probes = stat("ets_offers"), stat("probes")
    reorders = [op for g in graphs for op in g.operators
                if isinstance(op, Reorder)]
    untraced_tps = max(d.tps for d in baseline)
    traced_tps = result.arrivals / result.busy_s
    metrics = {
        "sim.events": summary["counts"].get("sim.events", 0),
        "sim.self_s": layers.get("sim", 0.0),
        "execution.wakeups": calls("execution.wakeup"),
        "execution.steps": steps,
        "execution.self_s": layers.get("execution", 0.0),
        "execution.punct_step_share": stat("punct_steps") / max(1, steps),
        "execution.rows_per_block": stat("block_rows") / max(1, blocks),
        "execution.block_fallbacks": stat("block_fallbacks"),
        "ets.offers": offers,
        "ets.injected": stat("ets_injected"),
        "ets.inject_ratio": stat("ets_injected") / max(1, offers),
        "ets.self_s": layers.get("ets", 0.0),
        "source.ingest_calls": calls("source.ingest"),
        "source.ingest_s": layers.get("source", 0.0),
        "buffers.peak_resident": sum(g.registry.peak for g in graphs),
        "union.calls": calls("union.execute"),
        "union.self_s": self_s("union.execute"),
        "union.more_s": self_s("union.more"),
        "join.self_s": layers.get("join", 0.0),
        "join.probe_hit_ratio": stat("probes_emitted") / max(1, probes),
        "reorder.self_s": layers.get("reorder", 0.0),
        "reorder.late_dropped": sum(op.late_dropped for op in reorders),
        "select.self_s": layers.get("select", 0.0),
        "sink.self_s": layers.get("sink", 0.0),
        "idle_tracker.self_s": layers.get("idle_tracker", 0.0),
        "obs.events": sum(calls(n) for n in names if n.startswith("obs.")),
        "obs.self_s": layers.get("obs", 0.0),
        "shard.ingest_s": total_s("shard.ingest"),
        "shard.wakeup_s": self_s("shard.wakeup"),
        "shard.engine_busy_s": (total_s("execution.wakeup")
                                if "sharded" in figures else 0.0),
        "shard.merge_s": (total_s("shard.merge.offer")
                          + total_s("shard.merge.release")),
        "shard.merge_pending_peak": samples["pending"],
        "shard.frontier_spread_max": samples["spread"],
        "shard.ingest_skew": 0.0,
        "shard.facade_overhead_ratio": 0.0,
        "harness.self_s": layers.get("harness", 0.0),
        "trace.wall_s": summary["wall_s"],
        "trace.overhead_frac": 1.0 - traced_tps / untraced_tps,
    }
    if "sharded" in figures:
        ingested = [s.ingested for s in figures["sharded"].backend.shards]
        metrics["shard.ingest_skew"] = max(ingested) / (
            sum(ingested) / len(ingested))
        single = min(runner.workload.run_single(runner.inputs, block=True)[1]
                     for _ in range(len(baseline)))
        metrics["shard.facade_overhead_ratio"] = min(
            d.busy_s for d in baseline) / single

    print(f"\nself-time breakdown of the traced drive "
          f"({summary['wall_s']:.3f} s wall, {len(tracer.spans)} spans):")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {secs:10.4f} s  "
              f"{100 * secs / summary['wall_s']:6.2f} %")
    total = sum(layers.values())
    print(f"  {'= sum':<14} {total:10.4f} s  (system layers without harness: "
          f"{summary['wall_s'] - layers.get('harness', 0.0):.4f} s; "
          f"drive busy time {result.busy_s:.4f} s)")
    print(f"tracing overhead: {untraced_tps:,.0f} arrivals/s untraced vs "
          f"{traced_tps:,.0f} traced, best drives "
          f"({100 * metrics['trace.overhead_frac']:.1f} %)")
    print(f"span dump: {dump_path.relative_to(ROOT)}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (the self-test shrinks "
                             "inputs with it)")
    return parser.parse_args(argv)


def make_workload(name: str, scale: float):
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    return WORKLOADS[name](scale)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the system's sources are not at {ROOT / 'src'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    phases = {}
    clock = [perf_counter()]

    def phase(name):
        now = perf_counter()
        phases[name] = now - clock[0]
        clock[0] = now

    workload = make_workload(args.workload, args.scale)
    runner = Runner(workload, args.seed)
    phase("generate")
    runner.time_setups(SETUP_SAMPLES)
    phase("setups")
    runner.warm_up()
    phase("warm-up")

    if args.trace:
        baseline = runner.timed_drives(args.seconds / 2)
        dump_dir = ROOT / "perfbench_traces"
        dump_dir.mkdir(exist_ok=True)
        metrics = traced_layers(
            runner, baseline,
            dump_dir / f"{args.workload}-seed{args.seed}.jsonl.gz")
        units = LAYER_UNITS
        drives = baseline
    else:
        drives = runner.timed_drives(args.seconds)
        metrics = end_to_end(runner, drives, peak_rss_mb())
        units = E2E_UNITS
    phase("measure")
    check = runner.check(drives)
    phase("check")

    print(f"\n{args.workload} seed={args.seed}: {len(drives)} timed drives "
          f"of {runner.inputs['arrivals']} arrivals and "
          f"{drives[0].count} outputs each")
    print("  per drive (arrivals/s, p50 ms, p99 ms): " + ", ".join(
        f"{d.tps:.0f}/{d.p50_ms:.3f}/{d.p99_ms:.3f}" for d in drives))
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")
    print("  not in the JSON result:")
    for name, value in info(drives, check).items():
        print(f"  {name:<30} {value:>16.6g} {INFO_UNITS[name]}")
    print(f"  outputs missing {check['missing']}, extra {check['extra']}, "
          f"of {check['attempted']} expected (scalar reference); "
          f"{check['shifted']} with a shifted timestamp (largest "
          f"{check['max_shift'] * 1e6:.3f} us), {check['misstamped']} of them "
          f"beyond the {check['tolerance'] * 1e6:.0f} us tolerance; "
          f"{check['fallbacks']} block fallbacks")
    print("  phases: " + ", ".join(f"{name} {secs:.1f} s"
                                   for name, secs in phases.items()))
    print(json.dumps({
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
