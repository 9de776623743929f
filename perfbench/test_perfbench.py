"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from perfbench.layers import ENTRY_POINT_NAMES, install, layer_metrics, per_layer_units  # noqa: E402
from perfbench.trace import (  # noqa: E402
    OutsideInTracer,
    SpanRecord,
    leftover_wrappers,
    self_times,
)
from perfbench.workloads import WORKLOADS, capacity_from_ladder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "workloads.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The benchmark's declared shape
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == SPEC[workload["name"]]["why"]
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    for workload in WORKLOADS:
        assert SPEC[workload]["end_to_end"] == names
        for layer_metric in SPEC[workload]["predictions"]:
            assert layer_metric in per_layer_units()
        assert set(SPEC[workload]["wrappers"]) <= set(ENTRY_POINT_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer_units()


# ----------------------------------------------------------------------
# Tiny-scale pass of every workload, correctness checks included
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload: str) -> None:
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--tiny"))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_traced_run_fires_every_predicted_wrapper(workload: str) -> None:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                "--tiny")
    result = _result(proc)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    fired = json.loads(proc.stdout.split("fired: ", 1)[1].splitlines()[0])
    assert all(fired.get(name) for name in SPEC[workload]["wrappers"])


def test_sim_metrics_repeat_exactly_for_a_seed() -> None:
    first = _result(_run("--workload", "ann_ivf", "--seed", "5", "--seconds", "1",
                         "--trace", "0", "--tiny"))
    second = _result(_run("--workload", "ann_ivf", "--seed", "5", "--seconds", "1",
                          "--trace", "0", "--tiny"))
    for name in ("sim_p50_ms", "sim_p99_ms", "sim_capacity_qps", "recall_at_10",
                 "space_amp"):
        assert first["metrics"][name] == second["metrics"][name]


def test_run_without_the_program_fails_without_a_result(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "perfbench" / "workloads.json", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "ann_ivf", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_unknown_workload_is_refused() -> None:
    proc = _run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# Self-time arithmetic on a hand-built span tree
# ----------------------------------------------------------------------
def _span(name: str, wall: float, sim: float, parent=None, phase="measure") -> SpanRecord:
    return SpanRecord(name=name, wall_start=0.0, sim_start=0.0, parent=parent,
                      request=1, phase=phase, wall_s=wall, sim_end=sim)


def test_self_time_is_duration_minus_direct_children() -> None:
    spans = [
        _span("core.BlendHouse.execute", 10.0, 4.0),             # 0
        _span("sqlparser.parse_statement", 2.0, 0.0, parent=0),  # 1
        _span("sqlparser.tokenize", 0.5, 0.0, parent=1),         # 2
        _span("executor.execute_segment", 6.0, 3.0, parent=0),   # 3
        _span("vindex.search_with_filter", 4.0, 2.5, parent=3),  # 4
        _span("executor.ColumnReader.fetch", 1.0, 0.25, parent=3),  # 5
    ]
    assert self_times(spans) == [
        (2.0, 1.0), (1.5, 0.0), (0.5, 0.0), (1.0, 0.25), (4.0, 2.5), (1.0, 0.25),
    ]


def test_layer_timings_split_iterator_and_direct_search() -> None:
    spans = [
        _span("executor.execute_segment", 10.0, 0.0),              # 0
        _span("vindex.search_with_filter", 3.0, 0.0, parent=0),    # 1: direct
        _span("vindex.next_batch", 5.0, 0.0, parent=0),            # 2
        _span("vindex.search_with_filter", 4.0, 0.0, parent=2),    # 3: under iterator
        _span("vindex.train", 7.0, 0.0, phase="setup"),            # 4
    ]
    values = layer_metrics(spans, {}, {}, queries=2, extra={})
    assert values["executor.scan_self_ms"] == pytest.approx(2.0 * 1e3 / 2)
    assert values["vindex.search_ms"] == pytest.approx(3.0 * 1e3 / 2)
    assert values["vindex.iterator_ms"] == pytest.approx(5.0 * 1e3 / 2)
    assert values["vindex.build_s"] == pytest.approx(7.0)


def test_coroutine_span_excludes_time_suspended() -> None:
    tracer = OutsideInTracer()

    async def work() -> int:
        await asyncio.sleep(0.05)
        return 7

    wrapped = tracer.wrap("serving.ServingFrontend.submit", work, new_request=True)
    start = time.perf_counter()
    assert asyncio.run(wrapped()) == 7
    elapsed = time.perf_counter() - start
    span = tracer.spans[0]
    assert span.request == 1
    assert span.wall_end - span.wall_start >= 0.05 > span.wall_s
    assert span.wall_s < elapsed


def test_generator_span_times_each_step_and_forwards_values() -> None:
    tracer = OutsideInTracer()

    def stages():
        received = yield 1
        yield received * 2

    wrapped = tracer.wrap("vindex.next_batch", stages)
    gen = wrapped()
    assert next(gen) == 1
    assert gen.send(21) == 42
    gen.close()
    assert tracer.spans[0].wall_end > 0.0


# ----------------------------------------------------------------------
# Wrappers are all removed again
# ----------------------------------------------------------------------
def test_no_wrapper_left_installed_after_a_traced_run() -> None:
    import repro.core.database as database
    import repro.sqlparser.parser as parser
    from repro import BlendHouse
    from repro.vindex.ivf import IVFFlatIndex

    original_parse = parser.parse_statement
    original_search = IVFFlatIndex.__dict__["search_with_filter"]
    tracer = OutsideInTracer()
    with pytest.raises(RuntimeError):
        install(tracer)
        try:
            assert database.parse_statement is not original_parse
            db = BlendHouse()
            db.execute("CREATE TABLE t (id UInt64, embedding Array(Float32), "
                       "INDEX ann embedding TYPE FLAT('DIM=4'))")
            raise RuntimeError("a failing workload")
        finally:
            tracer.restore()
    assert tracer.fired["sqlparser.parse_statement"] >= 1
    assert tracer.installed == 0
    assert leftover_wrappers() == []
    assert database.parse_statement is original_parse
    assert IVFFlatIndex.__dict__["search_with_filter"] is original_search


def test_normalization_divides_out_the_host_state_nearest_each_operation() -> None:
    host = HostSpeed()
    # A slow stretch (kernel at twice nominal) then a fast one (nominal).
    host.ends = [float(t) for t in range(100)]
    host.durations = [2 * NOMINAL_S] * 50 + [NOMINAL_S] * 50
    slow, fast = host.normalize([(10.0, 10.5, 0.02), (80.0, 80.5, 0.01)])
    assert slow == pytest.approx(0.01) and fast == pytest.approx(0.01)
    host.tick()
    assert len(host.durations) == 101 and host.durations[-1] > 0


def test_capacity_interpolates_between_rungs() -> None:
    assert capacity_from_ladder([(1.0, 1.0), (2.0, 3.0)], 2.0) == pytest.approx(1.5)
    assert capacity_from_ladder([(1.0, 1.0), (2.0, 1.5)], 2.0) == 2.0
    assert capacity_from_ladder([(4.0, 8.0)], 2.0) == pytest.approx(1.0)
