"""Record the mining-pipeline performance baseline.

Times the two single-day mine+analyze paths on a fixed simulated
workload and writes the numbers to ``BENCH_miner.json`` at the repo
root:

* **legacy** — per-entry scans: ``compute_hit_rates`` +
  ``DisposableZoneRanker.run_day`` + the entry-list analysis functions
  (daily report, hourly volumes, clients per name, CHR split);
* **digest** — one ``build_day_digest`` pass + the columnar
  counterparts (``run_digest`` and the ``*_from_digest`` analyses).

The digest path's outputs are asserted equal to the legacy oracle's.
The recorded file captures ``cpu_count``/``available_cpus``.  Timing
lives here in ``tools/`` because ``src/repro`` is wall-clock-free by
the determinism contract (reprolint R001).

Usage::

    PYTHONPATH=src python tools/bench_miner.py            # MEDIUM
    PYTHONPATH=src python tools/bench_miner.py --quick    # SMALL, CI

The ``--quick`` mode runs the SMALL profile with few events so CI can
smoke-test the whole harness in seconds; its numbers are not meant to
be compared, only to prove the paths still run and still agree.
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

from repro.analysis.chrdist import (chr_split,  # noqa: E402
                                    chr_split_from_digest)
from repro.analysis.clients import (clients_per_name,  # noqa: E402
                                    clients_per_name_from_digest)
from repro.analysis.summary import (build_daily_report,  # noqa: E402
                                    build_daily_report_from_digest)
from repro.analysis.volume import (hourly_volumes,  # noqa: E402
                                   hourly_volumes_from_digest)
from repro.core.classifier import LadTreeClassifier  # noqa: E402
from repro.core.features import FeatureExtractor  # noqa: E402
from repro.core.hitrate import (compute_hit_rates,  # noqa: E402
                                hit_rates_from_digest)
from repro.core.interning import build_day_digest  # noqa: E402
from repro.core.labeling import build_training_set  # noqa: E402
from repro.core.miner import MinerConfig  # noqa: E402
from repro.core.parallelism import available_cpu_count  # noqa: E402
from repro.core.ranking import (DailyMiningResult,  # noqa: E402
                                DisposableZoneRanker,
                                build_tree_from_digest)
from repro.experiments.context import (MEDIUM, SMALL,  # noqa: E402
                                       TRAINING_DATE, ScaleProfile)
from repro.pdns.records import FpDnsDataset  # noqa: E402
from repro.traffic.simulate import PAPER_DATES, TraceSimulator  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_miner.json"


def _prepare(profile: ScaleProfile, n_events: Optional[int]
             ) -> Tuple[FpDnsDataset, LadTreeClassifier]:
    """Simulate the bench day plus the training day; train the model."""
    bench_date = PAPER_DATES[0]
    dates = sorted([bench_date, TRAINING_DATE], key=lambda d: d.day_index)
    simulator = TraceSimulator(profile.simulator_config())
    days = dict(zip([date.label for date in dates],
                    simulator.run_days(dates, n_events=n_events)))
    digest = build_day_digest(days[TRAINING_DATE.label])
    tree = build_tree_from_digest(digest)
    extractor = FeatureExtractor(tree, hit_rates_from_digest(digest))
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)
    return days[bench_date.label], classifier


def _legacy_day(dataset: FpDnsDataset, classifier: LadTreeClassifier) -> tuple:
    """The oracle: one day mined and analysed through per-entry scans."""
    hit_rates = compute_hit_rates(dataset)
    ranker = DisposableZoneRanker(classifier, MinerConfig())
    result = ranker.run_day(dataset, hit_rates)
    groups = result.groups
    report = build_daily_report(dataset, hit_rates=hit_rates,
                                disposable_groups=groups)
    volumes = (hourly_volumes(dataset, "below"),
               hourly_volumes(dataset, "above"))
    clients = clients_per_name(dataset, groups)
    split = chr_split(hit_rates, groups)
    return result, report, volumes, clients, split


def _digest_day(dataset: FpDnsDataset, classifier: LadTreeClassifier) -> tuple:
    """The same day through one digest pass + columnar consumers."""
    digest = build_day_digest(dataset)
    hit_rates = hit_rates_from_digest(digest)
    ranker = DisposableZoneRanker(classifier, MinerConfig())
    result = ranker.run_digest(digest, hit_rates)
    groups = result.groups
    report = build_daily_report_from_digest(digest, hit_rates=hit_rates,
                                            disposable_groups=groups)
    volumes = (hourly_volumes_from_digest(digest, "below"),
               hourly_volumes_from_digest(digest, "above"))
    clients = clients_per_name_from_digest(digest, groups)
    split = chr_split_from_digest(digest, groups, hit_rates)
    return result, report, volumes, clients, split


def _check_results_equal(reference: DailyMiningResult,
                         candidate: DailyMiningResult, label: str) -> None:
    """Mining results must agree exactly (findings compared as sets:
    the digest path orders findings by deterministic traversal, the
    legacy path by ``set`` iteration)."""
    same = (reference.day == candidate.day
            and set(reference.findings) == set(candidate.findings)
            and reference.queried_domains == candidate.queried_domains
            and reference.resolved_domains == candidate.resolved_domains
            and reference.distinct_rrs == candidate.distinct_rrs
            and reference.disposable_queried == candidate.disposable_queried
            and reference.disposable_resolved == candidate.disposable_resolved
            and reference.disposable_rrs == candidate.disposable_rrs)
    if not same:
        raise AssertionError(f"{label} differs from the legacy oracle "
                             f"on {reference.day}")


def _check_day_equal(legacy: tuple, digest: tuple) -> None:
    l_result, l_report, l_volumes, l_clients, l_split = legacy
    d_result, d_report, d_volumes, d_clients, d_split = digest
    _check_results_equal(l_result, d_result, "digest mining")
    assert l_report == d_report, "daily report differs"
    for l_series, d_series in zip(l_volumes, d_volumes):
        for column in ("total", "nxdomain", "google", "akamai"):
            assert np.array_equal(getattr(l_series, column),
                                  getattr(d_series, column)), \
                f"volume column {column} differs"
    assert np.array_equal(l_clients.disposable_counts,
                          d_clients.disposable_counts)
    assert np.array_equal(l_clients.other_counts, d_clients.other_counts)
    assert l_split.disposable_zero_fraction == d_split.disposable_zero_fraction
    assert l_split.non_disposable_median == d_split.non_disposable_median


def bench(profile: ScaleProfile,
          n_events: Optional[int]) -> Dict[str, object]:
    day, classifier = _prepare(profile, n_events)
    results: Dict[str, object] = {
        "profile": profile.name,
        "day": day.day,
        "events_per_day": n_events or profile.events_per_day,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpu_count(),
        "python": sys.version.split()[0],
    }

    # Grouped best-of-N with the collector paused — the ``timeit``
    # discipline.  All repeats of one path run back to back and the
    # minimum of each group is the comparable number; the GC is
    # disabled during the timed regions (as ``timeit`` does by
    # default) because generational passes over the long-lived
    # simulated datasets otherwise charge each path a load-dependent,
    # allocation-pattern-dependent tax that drowns the real ratio on
    # the shared recording box.  Equality is asserted on the first
    # result of each group.
    legacy_s = digest_s = float("inf")
    legacy = digest = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            attempt = _legacy_day(day, classifier)
            legacy_s = min(legacy_s, time.perf_counter() - start)
            legacy = legacy if legacy is not None else attempt
        gc.collect()
        for _ in range(5):
            start = time.perf_counter()
            attempt = _digest_day(day, classifier)
            digest_s = min(digest_s, time.perf_counter() - start)
            digest = digest if digest is not None else attempt
    finally:
        gc.enable()
    assert legacy is not None and digest is not None
    _check_day_equal(legacy, digest)
    results["single_day_legacy_s"] = round(legacy_s, 3)
    results["single_day_digest_s"] = round(digest_s, 3)
    results["single_day_speedup"] = round(legacy_s / digest_s, 2)
    print(f"single day: legacy {legacy_s:.2f}s, digest {digest_s:.2f}s "
          f"(speedup {legacy_s / digest_s:.2f}x, output identical)")
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="SMALL profile, few events: CI smoke mode "
                             "(does not overwrite the recorded baseline)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"where to write results (default {OUTPUT})")
    args = parser.parse_args(argv)

    if args.quick:
        results = bench(SMALL, n_events=4_000)
        results["mode"] = "quick"
        print(json.dumps(results, indent=2))
        return 0

    results = bench(MEDIUM, n_events=None)
    results["mode"] = "baseline"
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
