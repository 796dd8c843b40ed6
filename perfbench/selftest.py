"""Tiny-size self-test of the benchmark.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q

It checks that ``run.py`` knows exactly the workloads BENCHMARK.json names,
that every metric BENCHMARK.json names is emitted, with its unit, for every
workload in both modes, and that the correctness check flags a run in which
one output is dropped, or one output's timestamp moved, on purpose.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Input size multiplier: small enough that each run takes a few seconds.
SCALE = "0.02"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _workloads() -> list[str]:
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    names = [w["name"] for w in _spec()["workloads"]]
    assert sorted(WORKLOADS) == sorted(names), (sorted(WORKLOADS), names)
    return names


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace),
         "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    spec = _spec()
    for workload in _workloads():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] is True, (workload, trace, result)
            assert result["failed"] == 0 and result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
                if section == "end_to_end":
                    assert metric["value"] > 0, (workload, name)


def _check_with_first_output(workload: str, alter) -> dict:
    """Run the correctness check with every drive's first output passed
    through ``alter(ts, payload, wall_s, virtual_s)``, which returns the
    arguments to record instead, or None to drop it."""
    import run

    runner = run.Runner(run.make_workload(workload, float(SCALE)), 7)
    make_sink = runner.make_sink

    def altering_sink(capture=False):
        sink = make_sink(capture)
        add = sink.add
        seen = []

        def add_altering_first(*args):
            if not seen:
                seen.append(args)
                args = alter(*args)
            if args is not None:
                add(*args)

        sink.add = add_altering_first
        return sink

    runner.make_sink = altering_sink
    runner.warm_up()
    return runner.check(runner.timed_drives(0.0))


def test_check_flags_one_dropped_output():
    for workload in _workloads():
        check = _check_with_first_output(workload, lambda *args: None)
        assert (check["missing"], check["extra"], check["failed"]) \
            == (1, 0, 1), (workload, check)


def test_check_flags_one_misstamped_output():
    for workload in _workloads():
        check = _check_with_first_output(
            workload, lambda ts, *rest: (ts + 1.0, *rest))
        assert (check["missing"], check["extra"], check["misstamped"],
                check["failed"]) == (0, 0, 1, 1), (workload, check)


if __name__ == "__main__":
    test_every_metric_is_emitted_with_its_unit()
    test_check_flags_one_dropped_output()
    test_check_flags_one_misstamped_output()
    print("perfbench self-test passed")
