"""Record the fpDNS IO baseline: gzip-TSV interchange vs fpDNS-v2 files.

Times the two on-disk fpDNS formats on a fixed simulated workload and
writes the numbers to ``BENCH_io.json`` at the repo root: the gzip-TSV
interchange format of :mod:`repro.pdns.io` and the fpDNS-v2 binary
columnar format that the artifact cache stores
(:mod:`repro.pdns.columnar`).

* **save** — serialise each bench day to disk (``save_fpdns`` vs
  ``save_fpdns2``);
* **load** — read each day back (``load_fpdns`` re-parses every line
  and rebuilds every entry; ``load_fpdns2`` hands back numpy columns
  and a pre-built digest);
* **warm end-to-end** — the real warm-session path: load every day
  from disk, take its digest, mine it.  For TSV files that is
  load -> build_day_digest -> mine; for fpDNS-v2 it is disk -> numpy
  -> digest -> mine with zero entry materialisation.

Every timed path is asserted equal to the in-memory oracle while being
timed: loaded days compare equal to the simulated originals (entry
lists and digest columns) and mining results are identical across
formats.  Timing lives here in ``tools/`` because ``src/repro`` is
wall-clock-free by the determinism contract (reprolint R001).

Usage::

    PYTHONPATH=src python tools/bench_io.py            # MEDIUM baseline
    PYTHONPATH=src python tools/bench_io.py --quick    # SMALL, CI smoke

``--quick`` runs the SMALL profile with few events so CI can smoke the
harness in seconds; its numbers only prove the paths still run and
still agree.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.classifier import LadTreeClassifier  # noqa: E402
from repro.core.features import FeatureExtractor  # noqa: E402
from repro.core.hitrate import hit_rates_from_digest  # noqa: E402
from repro.core.interning import (STREAM_FIELDS,  # noqa: E402
                                  DayDigest, build_day_digest, digest_of)
from repro.core.labeling import build_training_set  # noqa: E402
from repro.core.miner import MinerConfig  # noqa: E402
from repro.core.ranking import (DailyMiningResult,  # noqa: E402
                                DisposableZoneRanker,
                                build_tree_from_digest)
from repro.experiments.context import (MEDIUM, SMALL,  # noqa: E402
                                       TRAINING_DATE, ScaleProfile)
from repro.pdns.columnar import load_fpdns2, save_fpdns2  # noqa: E402
from repro.pdns.io import load_fpdns, save_fpdns  # noqa: E402
from repro.pdns.records import FpDnsDataset  # noqa: E402
from repro.traffic.simulate import PAPER_DATES, TraceSimulator  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_io.json"

REPEATS = 3


def _prepare(profile: ScaleProfile, n_days: int, n_events: Optional[int]
             ) -> Tuple[List[FpDnsDataset], LadTreeClassifier]:
    """Simulate the bench days plus the training day; train the model."""
    bench_dates = PAPER_DATES[:n_days]
    dates = sorted([*bench_dates, TRAINING_DATE], key=lambda d: d.day_index)
    simulator = TraceSimulator(profile.simulator_config())
    days = dict(zip([date.label for date in dates],
                    simulator.run_days(dates, n_events=n_events)))
    digest = build_day_digest(days[TRAINING_DATE.label])
    tree = build_tree_from_digest(digest)
    extractor = FeatureExtractor(tree, hit_rates_from_digest(digest))
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)
    return [days[date.label] for date in bench_dates], classifier


def _check_day_equal(original: FpDnsDataset, loaded: FpDnsDataset,
                     label: str) -> None:
    assert loaded.day == original.day, f"{label}: day differs"
    assert loaded.below == original.below, f"{label}: below differs"
    assert loaded.above == original.above, f"{label}: above differs"


def _check_digest_equal(reference: DayDigest, candidate: DayDigest,
                        label: str) -> None:
    assert list(reference.names.names) == list(candidate.names.names), \
        f"{label}: name pool differs"
    assert reference.rr_keys == candidate.rr_keys, \
        f"{label}: RR table differs"
    for which in ("below", "above"):
        for field in STREAM_FIELDS:
            assert np.array_equal(
                getattr(getattr(reference, which), field),
                getattr(getattr(candidate, which), field)), \
                f"{label}: {which}.{field} differs"


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


def _mine(dataset: FpDnsDataset,
          classifier: LadTreeClassifier) -> DailyMiningResult:
    """Mine one day from its digest (reused when the day carries one)."""
    ranker = DisposableZoneRanker(classifier, MinerConfig())
    return ranker.run_digest(digest_of(dataset))


def bench(profile: ScaleProfile, n_days: int,
          n_events: Optional[int]) -> Dict[str, object]:
    datasets, classifier = _prepare(profile, n_days, n_events)
    results: Dict[str, object] = {
        "profile": profile.name,
        "n_days": len(datasets),
        "events_per_day": n_events or profile.events_per_day,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    oracle = [_mine(dataset, classifier) for dataset in datasets]

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        tsv_paths = [root / f"day{i}.fpdns.gz" for i in range(len(datasets))]
        col_paths = [root / f"day{i}.fpdns2" for i in range(len(datasets))]

        # -- save ---------------------------------------------------------
        def save_tsv() -> int:
            return sum(save_fpdns(dataset, path)
                       for dataset, path in zip(datasets, tsv_paths))

        def save_columnar() -> int:
            return sum(save_fpdns2(dataset, path)
                       for dataset, path in zip(datasets, col_paths))

        tsv_save_s, _ = _best_of(REPEATS, save_tsv)
        col_save_s, _ = _best_of(REPEATS, save_columnar)
        results["save_tsv_s"] = round(tsv_save_s, 3)
        results["save_columnar_s"] = round(col_save_s, 3)
        results["save_speedup"] = round(tsv_save_s / col_save_s, 2)
        results["bytes_tsv"] = sum(p.stat().st_size for p in tsv_paths)
        results["bytes_columnar"] = sum(p.stat().st_size for p in col_paths)
        print(f"save: tsv {tsv_save_s:.2f}s, columnar {col_save_s:.2f}s "
              f"(speedup {tsv_save_s / col_save_s:.2f}x)")

        # -- load ---------------------------------------------------------
        def load_tsv() -> List[FpDnsDataset]:
            return [load_fpdns(path) for path in tsv_paths]

        def load_columnar() -> List[FpDnsDataset]:
            return [load_fpdns2(path) for path in col_paths]

        tsv_load_s, tsv_loaded = _best_of(REPEATS, load_tsv)
        col_load_s, col_loaded = _best_of(REPEATS, load_columnar)
        for original, from_tsv in zip(datasets, tsv_loaded):
            _check_day_equal(original, from_tsv, "tsv load")
        # Columnar equality via digest columns first (the warm-path
        # contract), then the lazy entry views against the originals.
        for original, from_col in zip(datasets, col_loaded):
            _check_digest_equal(build_day_digest(original),
                                from_col.day_digest(), "columnar load")
            _check_day_equal(original, from_col, "columnar load")
        results["warm_load_tsv_s"] = round(tsv_load_s, 3)
        results["warm_load_columnar_s"] = round(col_load_s, 3)
        results["warm_load_speedup"] = round(tsv_load_s / col_load_s, 2)
        print(f"load: tsv {tsv_load_s:.2f}s, columnar {col_load_s:.2f}s "
              f"(speedup {tsv_load_s / col_load_s:.2f}x, output identical)")

        # -- warm end-to-end: load -> digest -> mine ----------------------
        def warm_tsv() -> List[DailyMiningResult]:
            return [_mine(load_fpdns(path), classifier)
                    for path in tsv_paths]

        def warm_columnar() -> List[DailyMiningResult]:
            return [_mine(load_fpdns2(path), classifier)
                    for path in col_paths]

        tsv_e2e_s, tsv_mined = _best_of(REPEATS, warm_tsv)
        col_e2e_s, col_mined = _best_of(REPEATS, warm_columnar)
        assert tsv_mined == oracle, "tsv warm mining diverged"
        assert col_mined == oracle, "columnar warm mining diverged"
        results["warm_e2e_tsv_s"] = round(tsv_e2e_s, 3)
        results["warm_e2e_columnar_s"] = round(col_e2e_s, 3)
        results["warm_e2e_speedup"] = round(tsv_e2e_s / col_e2e_s, 2)
        print(f"warm end-to-end: tsv {tsv_e2e_s:.2f}s, columnar "
              f"{col_e2e_s:.2f}s (speedup {tsv_e2e_s / col_e2e_s:.2f}x, "
              "output identical)")

    if (os.cpu_count() or 1) == 1:
        results["constrained"] = True
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
        results = bench(SMALL, n_days=2, n_events=4_000)
        results["mode"] = "quick"
        print(json.dumps(results, indent=2))
        return 0

    results = bench(MEDIUM, n_days=3, n_events=None)
    results["mode"] = "baseline"
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
