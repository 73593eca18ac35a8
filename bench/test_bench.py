"""Smoke tests of the benchmark harness: ``python -m pytest bench/``.

Runs ``bench/run.py --quick`` (tiny inputs, short windows) for every
workload, untraced and traced, and checks the output contract: every
metric of ``BENCHMARK.json`` is emitted with its unit, the output checks
pass, and the trace files parse.  Also checks the self-time arithmetic
and the comparison statuses on synthetic data.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
from spans import Span, self_seconds  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_records(tmp_path_factory: pytest.TempPathFactory) -> list:
    out = tmp_path_factory.mktemp("bench") / "quick.jsonl"
    done = run_bench("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    summary = last_json(done.stdout)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    return [json.loads(line) for line in out.read_text().splitlines()]


def test_quick_emits_every_end_to_end_metric(quick_records: list) -> None:
    assert [record["workload"] for record in quick_records] == WORKLOADS
    for record in quick_records:
        assert record["correct"], record["failures"]
        assert record["attempted"] >= 1
        for metric in SPEC["end_to_end"]:
            emitted = record["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["value"] > 0, (record["workload"], metric)


def test_warm_outputs_equal_cold_outputs(quick_records: list) -> None:
    prints = {record["workload"]: record["fingerprint"]
              for record in quick_records}
    assert prints["calendar-cold"] == prints["calendar-warm"] is not None


def test_traced_run_emits_per_layer_metrics_and_traces() -> None:
    for workload in WORKLOADS:
        (BENCH / "out" / f"trace-{workload}.json").unlink(missing_ok=True)
    done = run_bench("--quick", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = last_json(done.stdout)["metrics"]
    for workload in WORKLOADS:
        for metric in SPEC["per_layer"]:
            emitted = metrics[f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"]
        trace = json.loads(
            (BENCH / "out" / f"trace-{workload}.json").read_text())
        assert trace["traceEvents"], workload
    assert metrics["calendar-cold/traffic.simulate_s"]["value"] > 0
    assert metrics["calendar-warm/traffic.artifacts.load_s"]["value"] > 0
    assert metrics["serve-replay/service.engine.batch_s"]["value"] > 0
    assert metrics["pdns-ingest/pdns.store.ingest_s"]["value"] > 0
    assert metrics["pdns-query/pdns.store.query_s"]["value"] > 0
    assert metrics["pdns-compact/pdns.store.compact_s"]["value"] > 0
    # Each pdns workload times only its own phase.
    assert metrics["pdns-ingest/pdns.store.compact_s"]["value"] == 0
    assert metrics["pdns-query/pdns.store.ingest_s"]["value"] == 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--quick", "--workload", "calendar-cold",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_union_of_children() -> None:
    root = Span(0, "root", None, 1, 0)
    root.end_ns = 100
    left = Span(1, "a", 0, 1, 10)
    left.end_ns = 50
    right = Span(2, "b", 0, 2, 40)     # overlaps ``left`` on another thread
    right.end_ns = 70
    selfs = self_seconds([root, left, right])
    assert selfs[0] == pytest.approx(40e-9)
    assert selfs[1] == pytest.approx(40e-9)


def test_compare_statuses() -> None:
    steady = [(seed, 1.0 + 0.001 * (seed % 3)) for seed in range(10)]
    slower = [(seed, 1.5 + 0.001 * (seed % 3)) for seed in range(10)]
    faster = [(seed, 0.5 + 0.001 * (seed % 3)) for seed in range(10)]
    noisy = [(seed, 1.0 + (seed % 2)) for seed in range(10)]
    assert compare.judge(steady, steady, True, 0.1)["status"] == "same"
    assert compare.judge(steady, slower, True, 0.1)["status"] == "worse"
    assert compare.judge(steady, faster, True, 0.1)["status"] == "better"
    assert compare.judge(steady, noisy, True, 0.1)["status"] == "unresolved"
    assert compare.judge(steady, faster[:5], True, 0.1)["status"] == "same"


def test_compare_refuses_mixed_run_lengths(tmp_path: Path) -> None:
    record = {"workload": "pdns-query", "seed": 1, "trace": False,
              "quick": False, "metrics": {"run_s": {"value": 1.0,
                                                    "unit": "s"}}}
    for name, seconds in (("a.jsonl", 15), ("b.jsonl", 30)):
        (tmp_path / name).write_text(
            json.dumps({**record, "seconds": seconds}) + "\n")
    assert compare.main([str(tmp_path / "a.jsonl"),
                         str(tmp_path / "b.jsonl")]) == 2
