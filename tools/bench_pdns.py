"""Record the pdns-store baseline: in-memory database vs segmented store.

Replays a simulated multi-month ingest calendar (92 days by default;
the paper's year-scale collection motivates the on-disk layout) into
both pdns backends and writes the numbers to ``BENCH_pdns.json`` at
the repo root:

* **peak memory** — each backend ingests the whole calendar inside a
  fresh subprocess and reports ``ru_maxrss``; a third *baseline*
  subprocess generates the same workload without ingesting anything so
  the interpreter + workload cost can be subtracted.  The headline
  ratio compares the *deltas* attributable to the backends.
* **query latency** — point lookups (``first_seen``) and zone queries
  (``names_under_zone``) timed on both backends, with every timed
  result compared against the in-memory oracle.
* **prefilter effectiveness** — the store's opened/skipped counters
  over the timed point lookups; skipping means a segment answered from
  its sorted-hash prefilters without its payload being touched.
* **compaction** — a fourth fresh subprocess compacts a copy of the
  segment directory in one pass, timing it and reporting its
  ``ru_maxrss`` (recorded with its delta over the baseline probe), and
  determinism is re-proven at bench scale: a second copy is compacted
  along a different merge schedule and must end up byte-identical.
  The SHA-256 of the compacted segment is recorded, so two commits can
  be checked for identical output.

Timing lives here in ``tools/`` because ``src/repro`` is
wall-clock-free by the determinism contract (reprolint R001).

Usage::

    PYTHONPATH=src python tools/bench_pdns.py            # 92-day baseline
    PYTHONPATH=src python tools/bench_pdns.py --quick    # 10-day CI smoke

``--quick`` replays a 10-day calendar so CI can smoke the harness in
seconds; it still asserts oracle equality, prefilter skipping and
compaction determinism, but does not overwrite the recorded baseline
and does not enforce the memory ratio (too small to be meaningful).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import date, timedelta
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.records import RRKey  # noqa: E402
from repro.dns.message import RRType  # noqa: E402
from repro.pdns.database import PassiveDnsDatabase  # noqa: E402
from repro.pdns.segments import SEGMENT_SUFFIX  # noqa: E402
from repro.pdns.store import SegmentedPdnsStore  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_pdns.json"

REPEATS = 3

#: Rare zone that only appears on every 9th calendar day, so zone
#: queries for it can demonstrate prefilter segment skipping.
BURST_ZONE = "burst.example.org"

FIRST_DAY = date(2011, 2, 22)  # the paper's collection start


def day_label(index: int) -> str:
    return (FIRST_DAY + timedelta(days=index)).isoformat()


def day_keys(index: int, n_fresh: int, n_stable: int) -> List[RRKey]:
    """Deterministic workload for one calendar day.

    Mimics the paper's traffic mix: a large churning population of
    single-use names under a handful of disposable service zones, a
    stable core that repeats every day (exercising cross-segment
    dedup), and an occasional burst under a rare zone.
    """
    keys: List[RRKey] = [
        (f"u{index:03d}x{i:05d}.metric.cdn-{i % 7}.example.com",
         RRType.A, f"10.{(i // 250) % 200}.{i % 250}.{index % 200 + 1}")
        for i in range(n_fresh)]
    keys.extend(
        (f"stable{i:04d}.www.example.net", RRType.A, f"192.0.2.{i % 200 + 1}")
        for i in range(n_stable))
    if index % 9 == 0:
        keys.extend(
            (f"b{index:03d}x{i:03d}.{BURST_ZONE}", RRType.A,
             f"198.51.100.{i % 200 + 1}")
            for i in range(60))
    return keys


def _best_of(repeats: int, run: Callable[[], object]
             ) -> Tuple[float, object]:
    """Grouped best-of-N with the collector paused (timeit discipline);
    returns (min seconds, first result)."""
    best = float("inf")
    first: Optional[object] = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            result = run()
            best = min(best, time.perf_counter() - start)
            if first is None:
                first = result
    finally:
        gc.enable()
    assert first is not None
    return best, first


# ---------------------------------------------------------------- workers

def run_compact_worker(directory: str) -> int:
    """Subprocess body: compact the store at ``directory`` in one pass
    and print its time and peak RSS as JSON on stdout."""
    store = SegmentedPdnsStore(directory)
    compact_s, report = _best_of(1, store.compact)
    print(json.dumps({
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "compact_s": round(compact_s, 3),
        "merged_segments": report.merged_segments,
        "bytes_before": report.bytes_before,
        "bytes_after": report.bytes_after,
    }))
    return 0


def run_worker(kind: str, n_days: int, n_fresh: int, n_stable: int,
               directory: Optional[str]) -> int:
    """Subprocess body: replay the calendar into one backend (or none,
    for the baseline probe) and print peak RSS as JSON on stdout."""
    if kind == "compact":
        assert directory is not None, "--worker compact needs --dir"
        return run_compact_worker(directory)
    rows = 0
    backend: object = None
    if kind == "memory":
        backend = PassiveDnsDatabase()
    elif kind == "segmented":
        assert directory is not None, "--worker segmented needs --dir"
        backend = SegmentedPdnsStore(directory)
    for index in range(n_days):
        keys = day_keys(index, n_fresh, n_stable)
        rows += len(keys)
        if backend is not None:
            backend.ingest_rrs(day_label(index), keys)
    sample = [day_keys(n_days // 2, n_fresh, n_stable)[i] for i in range(50)]
    if backend is not None:  # peak must cover the query path too
        for key in sample:
            backend.first_seen(key)
        backend.names_under_zone(BURST_ZONE)
    payload: Dict[str, object] = {
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rows_replayed": rows,
    }
    if isinstance(backend, SegmentedPdnsStore):
        payload["storage_bytes"] = backend.storage_bytes()
        payload["n_segments"] = backend.stats().n_segments
        payload["db_rows"] = len(backend)
    elif isinstance(backend, PassiveDnsDatabase):
        payload["db_rows"] = len(backend)
    print(json.dumps(payload))
    return 0


def _probe(kind: str, n_days: int, n_fresh: int, n_stable: int,
           directory: Optional[str] = None) -> Dict[str, object]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--worker", kind, "--days", str(n_days),
               "--fresh", str(n_fresh), "--stable", str(n_stable)]
    if directory is not None:
        command += ["--dir", directory]
    completed = subprocess.run(command, capture_output=True, text=True,
                               check=True)
    return json.loads(completed.stdout)


# ------------------------------------------------------------ bench body

def _copy_segments(source: Path, target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    for path in sorted(source.glob(f"*{SEGMENT_SUFFIX}")):
        shutil.copy(path, target / path.name)


def _segment_digests(directory: Path) -> List[str]:
    import hashlib
    return sorted(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in directory.glob(f"*{SEGMENT_SUFFIX}"))


def bench(n_days: int, n_fresh: int, n_stable: int,
          quick: bool) -> Dict[str, object]:
    results: Dict[str, object] = {
        "n_days": n_days,
        "fresh_per_day": n_fresh,
        "stable_per_day": n_stable,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    with tempfile.TemporaryDirectory() as tmp:
        segments_dir = Path(tmp) / "segments"
        segments_dir.mkdir()

        # -- peak memory: one subprocess per backend, and compaction -----
        # A child's ru_maxrss starts at this process's resident size when
        # it is spawned (Linux keeps the high-water mark across exec), so
        # every probe runs before the in-process oracle below is built.
        baseline = _probe("baseline", n_days, n_fresh, n_stable)
        memory = _probe("memory", n_days, n_fresh, n_stable)
        segmented = _probe("segmented", n_days, n_fresh, n_stable,
                           directory=str(segments_dir))
        one_shot_dir = Path(tmp) / "compact-one-shot"
        _copy_segments(segments_dir, one_shot_dir)
        compacted = _probe("compact", n_days, n_fresh, n_stable,
                           directory=str(one_shot_dir))
        assert memory["db_rows"] == segmented["db_rows"], \
            "backends disagree on unique row count"
        base_kb = int(baseline["ru_maxrss_kb"])
        memory_delta_kb = max(int(memory["ru_maxrss_kb"]) - base_kb, 1)
        segmented_delta_kb = max(int(segmented["ru_maxrss_kb"]) - base_kb, 1)
        mem_ratio = memory_delta_kb / segmented_delta_kb
        results["rows_unique"] = memory["db_rows"]
        results["rows_replayed"] = memory["rows_replayed"]
        results["peak_rss_baseline_kb"] = base_kb
        results["peak_rss_memory_kb"] = memory["ru_maxrss_kb"]
        results["peak_rss_segmented_kb"] = segmented["ru_maxrss_kb"]
        results["peak_rss_delta_memory_kb"] = memory_delta_kb
        results["peak_rss_delta_segmented_kb"] = segmented_delta_kb
        results["peak_rss_ratio"] = round(mem_ratio, 2)
        results["segments_on_disk"] = segmented["n_segments"]
        results["storage_bytes"] = segmented["storage_bytes"]
        print(f"peak RSS over interpreter baseline: in-memory "
              f"{memory_delta_kb / 1024:.0f} MiB, segmented "
              f"{segmented_delta_kb / 1024:.0f} MiB "
              f"({mem_ratio:.1f}x lower)")
        if not quick:
            assert n_days >= 90, "baseline must replay a 90+ day calendar"
            assert mem_ratio >= 5.0, \
                f"segmented store must beat in-memory RSS 5x, got " \
                f"{mem_ratio:.1f}x"

        # -- oracle + reopened store in this process ----------------------
        oracle = PassiveDnsDatabase()
        for index in range(n_days):
            oracle.ingest_rrs(day_label(index),
                              day_keys(index, n_fresh, n_stable))
        store = SegmentedPdnsStore(segments_dir)
        assert store.new_records_per_day() == oracle.new_records_per_day(), \
            "reopened store ledger diverged from oracle"

        # Point keys spread across the calendar, grouped by day so the
        # resident-segment LRU behaves the way a scan would.
        point_sample = [key
                        for index in range(0, n_days, max(n_days // 10, 1))
                        for key in day_keys(index, n_fresh, n_stable)[:30]]

        def points_memory() -> List[Optional[str]]:
            return [oracle.first_seen(key) for key in point_sample]

        def points_segmented() -> List[Optional[str]]:
            return [store.first_seen(key) for key in point_sample]

        store.reset_counters()
        seg_point_s, seg_points = _best_of(REPEATS, points_segmented)
        stats = store.stats()
        probes = stats.segments_opened + stats.segments_skipped
        skip_ratio = stats.segments_skipped / max(probes, 1)
        mem_point_s, mem_points = _best_of(REPEATS, points_memory)
        assert seg_points == mem_points, "point lookups diverged from oracle"
        assert None not in mem_points, "point sample hit an unknown key"
        assert skip_ratio >= 0.5, \
            f"prefilters must skip >=50% of segments, got {skip_ratio:.0%}"
        results["point_lookups"] = len(point_sample)
        results["point_memory_s"] = round(mem_point_s, 4)
        results["point_segmented_s"] = round(seg_point_s, 4)
        results["prefilter_skip_ratio"] = round(skip_ratio, 4)
        print(f"point lookups ({len(point_sample)}): in-memory "
              f"{mem_point_s:.3f}s, segmented {seg_point_s:.3f}s, "
              f"prefilters skipped {skip_ratio:.1%} of segment probes "
              "(results identical)")

        def zones_memory() -> List[object]:
            return [sorted(oracle.names_under_zone(BURST_ZONE)),
                    sorted(oracle.names_under_zone("absent.example"))]

        def zones_segmented() -> List[object]:
            return [sorted(store.names_under_zone(BURST_ZONE)),
                    sorted(store.names_under_zone("absent.example"))]

        store.reset_counters()
        seg_zone_s, seg_zones = _best_of(REPEATS, zones_segmented)
        zone_stats = store.stats()
        mem_zone_s, mem_zones = _best_of(REPEATS, zones_memory)
        assert seg_zones == mem_zones, "zone queries diverged from oracle"
        assert seg_zones[0], "burst zone unexpectedly empty"
        results["zone_memory_s"] = round(mem_zone_s, 4)
        results["zone_segmented_s"] = round(seg_zone_s, 4)
        results["zone_segments_opened"] = zone_stats.segments_opened
        results["zone_segments_skipped"] = zone_stats.segments_skipped
        print(f"zone queries: in-memory {mem_zone_s:.3f}s, segmented "
              f"{seg_zone_s:.3f}s, opened {zone_stats.segments_opened} / "
              f"skipped {zone_stats.segments_skipped} segments "
              "(results identical)")

        # -- compaction (probed above): byte-determinism at bench scale --
        staged_dir = Path(tmp) / "compact-staged"
        _copy_segments(segments_dir, staged_dir)
        one_shot = SegmentedPdnsStore(one_shot_dir)
        staged = SegmentedPdnsStore(staged_dir)
        staged.compact(max_rows=max(len(staged) // 3, 1))
        staged.compact()
        digests = _segment_digests(one_shot_dir)
        assert digests == _segment_digests(staged_dir), \
            "compaction output depends on merge order"
        assert one_shot.new_records_per_day() == oracle.new_records_per_day(), \
            "compaction changed the first-seen ledger"
        compact_s = float(compacted["compact_s"])
        compact_delta_kb = max(int(compacted["ru_maxrss_kb"]) - base_kb, 1)
        results["compact_s"] = compact_s
        results["compact_merged_segments"] = compacted["merged_segments"]
        results["compact_bytes_before"] = compacted["bytes_before"]
        results["compact_bytes_after"] = compacted["bytes_after"]
        results["compact_sha256"] = digests
        results["peak_rss_compact_kb"] = compacted["ru_maxrss_kb"]
        results["peak_rss_delta_compact_kb"] = compact_delta_kb
        print(f"compaction: merged {compacted['merged_segments']} segments "
              f"in {compact_s:.2f}s, peak RSS "
              f"{compact_delta_kb / 1024:.0f} MiB over the baseline "
              f"({compacted['bytes_before']} -> "
              f"{compacted['bytes_after']} bytes; byte-identical across "
              "merge schedules)")

    if (os.cpu_count() or 1) == 1:
        results["constrained"] = True
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="10-day calendar: CI smoke mode (does not "
                             "overwrite the recorded baseline)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"where to write results (default {OUTPUT})")
    parser.add_argument("--worker",
                        choices=["baseline", "memory", "segmented",
                                 "compact"],
                        help=argparse.SUPPRESS)  # internal: RSS probe body
    parser.add_argument("--days", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--fresh", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--stable", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return run_worker(args.worker, args.days, args.fresh, args.stable,
                          args.dir)

    if args.quick:
        results = bench(n_days=10, n_fresh=600, n_stable=40, quick=True)
        results["mode"] = "quick"
        print(json.dumps(results, indent=2))
        return 0

    results = bench(n_days=92, n_fresh=20_000, n_stable=500, quick=False)
    results["mode"] = "baseline"
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
