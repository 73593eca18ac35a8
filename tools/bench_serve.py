"""Record the serving-engine performance baseline.

Replays a realistic qname stream (the reference day's below-the-
resolver query column) against the :mod:`repro.service` classification
engine three ways and writes the numbers to ``BENCH_serve.json`` at
the repo root:

* **single** — the per-name oracle: one ``classify_one`` call per
  qname (fresh ``depth_groups`` walk + 1-row model call each time);
* **batched cold** — ``classify_batch`` in serving-sized chunks from
  the engine's cold-start state (``clear_caches()``): interned
  resolution, columnar feature extraction per distinct (zone, depth)
  group, one stacked ``decision_function`` call per chunk;
* **batched warm** — the same chunks again with every cache hot:
  verdicts come straight from the per-qname memo (one dict probe per
  name), no resolution and no extraction at all.

Every batched pass is asserted verdict-for-verdict equal to the
single-name oracle *while being timed* (frozen-dataclass equality —
same reasons, scores, probabilities, bit for bit).  The baseline mode
additionally asserts the two ISSUE-8 acceptance ratios: batched ≥ 5×
single QPS and warm ≥ 20× cold QPS.  ``cpu_count``/``available_cpus``
are recorded and single-core boxes are flagged ``constrained``.
Timing lives here in ``tools/`` because ``src/repro`` is
wall-clock-free by the determinism contract (reprolint R001).

Usage::

    PYTHONPATH=src python tools/bench_serve.py            # MEDIUM
    PYTHONPATH=src python tools/bench_serve.py --quick    # SMALL, CI

The ``--quick`` mode runs the SMALL profile with few events so CI can
smoke-test the whole path in seconds; it checks equality but not the
throughput ratios, and does not overwrite the recorded baseline.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.classifier import LadTreeClassifier  # noqa: E402
from repro.core.classifier.compiled import compile_lad_tree  # noqa: E402
from repro.core.features import FeatureExtractor  # noqa: E402
from repro.core.hitrate import hit_rates_from_digest  # noqa: E402
from repro.core.interning import DayDigest, build_day_digest  # noqa: E402
from repro.core.labeling import build_training_set  # noqa: E402
from repro.core.parallelism import available_cpu_count  # noqa: E402
from repro.core.ranking import build_tree_from_digest  # noqa: E402
from repro.experiments.context import (MEDIUM, SMALL,  # noqa: E402
                                       TRAINING_DATE, ScaleProfile)
from repro.service.engine import (ClassificationEngine,  # noqa: E402
                                  EngineConfig, Verdict)
from repro.traffic.simulate import PAPER_DATES, TraceSimulator  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_serve.json"


def _prepare(profile: ScaleProfile, n_events: Optional[int]
             ) -> Tuple[DayDigest, ClassificationEngine]:
    """Simulate the training + reference days; build the engine."""
    reference = PAPER_DATES[0]
    dates = sorted([reference, TRAINING_DATE], key=lambda d: d.day_index)
    simulator = TraceSimulator(profile.simulator_config())
    days = dict(zip([date.label for date in dates],
                    simulator.run_days(dates, n_events=n_events)))

    training_digest = build_day_digest(days[TRAINING_DATE.label])
    tree = build_tree_from_digest(training_digest)
    extractor = FeatureExtractor(tree,
                                 hit_rates_from_digest(training_digest))
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)

    serving_digest = build_day_digest(days[reference.label])
    engine = ClassificationEngine.from_digest(
        serving_digest, compile_lad_tree(classifier),
        # Roomy cache: the bench asserts the warm pass never evicts,
        # so the warm number measures pure cache-hit serving.
        config=EngineConfig(cache_size=65_536))
    return serving_digest, engine


def _query_stream(digest: DayDigest, n_names: int) -> List[str]:
    """The first ``n_names`` below-stream queries of the day, replayed
    in arrival order — real traffic shape: hot names repeat, NXDOMAIN
    names map to unknown groups, apexes and effective TLDs appear."""
    table = digest.names
    return [table.name(int(nid))
            for nid in digest.below.name_ids[:n_names]]


def _chunks(stream: List[str], size: int) -> List[List[str]]:
    return [stream[start:start + size]
            for start in range(0, len(stream), size)]


def _percentiles(latencies: List[float]) -> Dict[str, float]:
    values = np.array(latencies, dtype=float) * 1000.0  # ms
    return {"p50_ms": round(float(np.percentile(values, 50)), 3),
            "p95_ms": round(float(np.percentile(values, 95)), 3),
            "p99_ms": round(float(np.percentile(values, 99)), 3)}


def _run_batched(engine: ClassificationEngine, chunks: List[List[str]]
                 ) -> Tuple[float, List[float], List[Verdict]]:
    """One timed pass over all chunks; per-chunk latencies recorded."""
    verdicts: List[Verdict] = []
    latencies: List[float] = []
    start = time.perf_counter()
    for chunk in chunks:
        chunk_start = time.perf_counter()
        verdicts.extend(engine.classify_batch(chunk))
        latencies.append(time.perf_counter() - chunk_start)
    return time.perf_counter() - start, latencies, verdicts


def bench(profile: ScaleProfile, n_events: Optional[int], n_names: int,
          chunk_size: int, repeats: int,
          assert_ratios: bool) -> Dict[str, object]:
    digest, engine = _prepare(profile, n_events)
    stream = _query_stream(digest, n_names)
    chunks = _chunks(stream, chunk_size)
    distinct_names = len(set(stream))

    results: Dict[str, object] = {
        "profile": profile.name,
        "events_per_day": n_events or profile.events_per_day,
        "stream_names": len(stream),
        "distinct_names": distinct_names,
        "chunk_size": chunk_size,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpu_count(),
        "python": sys.version.split()[0],
    }
    if available_cpu_count() == 1:
        results["constrained"] = True

    # Grouped best-of-N with the collector paused (the ``timeit``
    # discipline): all repeats of one path run back to back and the
    # minimum is the comparable number.
    gc.collect()
    gc.disable()
    try:
        # -- single-name oracle loop ---------------------------------
        single_s = float("inf")
        oracle: Optional[List[Verdict]] = None
        for _ in range(repeats):
            start = time.perf_counter()
            attempt = [engine.classify_one(qname) for qname in stream]
            single_s = min(single_s, time.perf_counter() - start)
            oracle = oracle if oracle is not None else attempt

        # -- batched, cold verdict cache -----------------------------
        cold_s = float("inf")
        cold_latencies: List[float] = []
        batched: Optional[List[Verdict]] = None
        for _ in range(repeats):
            engine.clear_caches()
            elapsed, latencies, attempt = _run_batched(engine, chunks)
            if elapsed < cold_s:
                cold_s, cold_latencies = elapsed, latencies
            if batched is None:
                batched = attempt
                assert batched == oracle, \
                    "batched verdicts differ from the per-name oracle"

        # -- batched, warm verdict cache -----------------------------
        # The last cold pass left the verdict memo and the group LRU
        # populated; every warm pass must be answered without a single
        # new cache miss or group extraction.
        warm_s = float("inf")
        warm_latencies: List[float] = []
        warm: Optional[List[Verdict]] = None
        misses_before = engine.cache.misses
        extractions_before = engine.groups_extracted
        for _ in range(repeats):
            elapsed, latencies, attempt = _run_batched(engine, chunks)
            if elapsed < warm_s:
                warm_s, warm_latencies = elapsed, latencies
            if warm is None:
                warm = attempt
                assert warm == oracle, \
                    "cache-warm verdicts differ from the per-name oracle"
        assert engine.cache.misses == misses_before, \
            "warm passes missed the verdict cache"
        assert engine.groups_extracted == extractions_before, \
            "warm passes re-extracted group features"
        assert engine.cache.evictions == 0, \
            "verdict cache evicted during the bench (cache_size too small)"
    finally:
        gc.enable()

    assert oracle is not None
    group_keys = {(verdict.zone, verdict.depth) for verdict in oracle
                  if verdict.reason in ("classified", "unknown-group",
                                        "small-group")}
    results["distinct_group_keys"] = len(group_keys)
    results["verdict_reasons"] = {
        reason: sum(1 for verdict in oracle if verdict.reason == reason)
        for reason in sorted({verdict.reason for verdict in oracle})}
    results["disposable_fraction"] = round(
        sum(1 for verdict in oracle if verdict.disposable) / len(oracle), 4)

    n = len(stream)
    single_qps = n / single_s
    cold_qps = n / cold_s
    warm_qps = n / warm_s
    results["single_s"] = round(single_s, 4)
    results["batched_cold_s"] = round(cold_s, 4)
    results["batched_warm_s"] = round(warm_s, 4)
    results["single_qps"] = round(single_qps, 1)
    results["batched_cold_qps"] = round(cold_qps, 1)
    results["batched_warm_qps"] = round(warm_qps, 1)
    results["batched_vs_single_speedup"] = round(cold_qps / single_qps, 2)
    results["warm_vs_cold_speedup"] = round(warm_qps / cold_qps, 2)
    results["cold_chunk_latency"] = _percentiles(cold_latencies)
    results["warm_chunk_latency"] = _percentiles(warm_latencies)
    results["verdict_cache"] = engine.cache.stats()

    print(f"single:       {single_s:.3f}s  ({single_qps:,.0f} qps)")
    print(f"batched cold: {cold_s:.3f}s  ({cold_qps:,.0f} qps, "
          f"{cold_qps / single_qps:.1f}x single, verdicts identical)")
    print(f"batched warm: {warm_s:.3f}s  ({warm_qps:,.0f} qps, "
          f"{warm_qps / cold_qps:.1f}x cold, verdicts identical)")

    if assert_ratios:
        assert cold_qps / single_qps >= 5.0, \
            (f"batched engine is only {cold_qps / single_qps:.2f}x the "
             f"single-name loop (acceptance floor: 5x)")
        assert warm_qps / cold_qps >= 20.0, \
            (f"cache-warm serving is only {warm_qps / cold_qps:.2f}x "
             f"cold (acceptance floor: 20x)")
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="SMALL profile, few events: CI smoke mode "
                             "(equality checks only; does not overwrite "
                             "the recorded baseline)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"where to write results (default {OUTPUT})")
    args = parser.parse_args(argv)

    if args.quick:
        results = bench(SMALL, n_events=4_000, n_names=2_000,
                        chunk_size=256, repeats=2, assert_ratios=False)
        results["mode"] = "quick"
        print(json.dumps(results, indent=2))
        return 0

    results = bench(MEDIUM, n_events=None, n_names=12_000,
                    chunk_size=1_024, repeats=3, assert_ratios=True)
    results["mode"] = "baseline"
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
