"""Record the simulator performance baseline.

Times the simulator on a fixed workload and writes the numbers to
``BENCH_simulator.json`` at the repo root:

* **serial** — :class:`repro.traffic.simulate.TraceSimulator`;
* **artifact cache** — a cold session that simulates and stores every
  day, then a warm session that loads them instead of simulating.

The cold and warm sessions' days are asserted equal to the serial
run's.  The recorded file also captures ``cpu_count``/
``available_cpus``, so numbers are comparable across machines only
together with those fields.  Timing lives here in ``tools/`` because
``src/repro`` is wall-clock-free by the determinism contract
(reprolint R001).

Usage::

    PYTHONPATH=src python tools/bench_baseline.py            # MEDIUM
    PYTHONPATH=src python tools/bench_baseline.py --quick    # SMALL, CI

The ``--quick`` mode runs the SMALL profile with few events so CI can
smoke-test the whole harness in seconds; its numbers are not meant to
be compared, only to prove the paths still run and still agree.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.parallelism import available_cpu_count  # noqa: E402
from repro.experiments.context import MEDIUM, SMALL, ScaleProfile  # noqa: E402
from repro.pdns.records import FpDnsDataset  # noqa: E402
from repro.traffic.artifacts import (FpDnsArtifactCache,  # noqa: E402
                                     artifact_key)
from repro.traffic.simulate import (PAPER_DATES,  # noqa: E402
                                    TraceSimulator)

OUTPUT = REPO_ROOT / "BENCH_simulator.json"


def _check_identical(reference: List[FpDnsDataset],
                     candidate: List[FpDnsDataset], label: str) -> None:
    for ref_day, cand_day in zip(reference, candidate):
        if (ref_day.day != cand_day.day or ref_day.below != cand_day.below
                or ref_day.above != cand_day.above):
            raise AssertionError(
                f"{label} output differs from serial on {ref_day.day}")


def bench(profile: ScaleProfile, n_days: int,
          n_events: Optional[int]) -> Dict[str, object]:
    dates = PAPER_DATES[:n_days]
    results: Dict[str, object] = {
        "profile": profile.name,
        "n_days": len(dates),
        "events_per_day": n_events or profile.events_per_day,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpu_count(),
        "python": sys.version.split()[0],
    }

    start = time.perf_counter()
    serial = TraceSimulator(profile.simulator_config())
    serial_days = serial.run_days(dates, n_events=n_events)
    serial_s = time.perf_counter() - start
    results["serial_s"] = round(serial_s, 3)
    print(f"serial: {serial_s:.2f}s")

    with tempfile.TemporaryDirectory() as tmp:
        cache = FpDnsArtifactCache(tmp)
        start = time.perf_counter()
        cold = TraceSimulator(profile.simulator_config())
        history = []
        cold_days = []
        for date in dates:
            day = cold.run_day(date, n_events=n_events)
            history.append(date)
            cache.store(artifact_key(cold.config, history,
                                     n_events=n_events), day)
            cold_days.append(day)
        cold_s = time.perf_counter() - start
        _check_identical(serial_days, cold_days, "cold session")

        warm_cache = FpDnsArtifactCache(tmp)
        start = time.perf_counter()
        warm_config = profile.simulator_config()
        warm_history = []
        warm_days = []
        for date in dates:
            warm_history.append(date)
            day = warm_cache.load(artifact_key(warm_config, warm_history,
                                               n_events=n_events))
            assert day is not None, "warm session missed the cache"
            warm_days.append(day)
        warm_s = time.perf_counter() - start
        assert warm_cache.misses == 0
        _check_identical(serial_days, warm_days, "warm session")

    results["cache_cold_s"] = round(cold_s, 3)
    results["cache_warm_s"] = round(warm_s, 3)
    results["cache_warm_speedup"] = round(cold_s / warm_s, 2)
    print(f"artifact cache: cold {cold_s:.2f}s, warm {warm_s:.2f}s "
          f"(speedup {cold_s / warm_s:.2f}x, {warm_cache.hits} hits, "
          "output identical)")
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
