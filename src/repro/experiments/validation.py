"""Calibration validation: does a simulated trace look like the paper's?

DESIGN.md §5 lists the qualitative facts the synthetic ISP must
reproduce for the substitution to be sound.  :func:`validate_calibration`
checks each one against a simulated day (plus ground truth) and returns
a scorecard — used by the test suite as a regression net around the
workload parameters, and runnable standalone to vet custom
configurations before trusting experiment output from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.analysis.chrdist import chr_cdf_for_zones
from repro.analysis.tail import LOW_VOLUME_THRESHOLD
from repro.analysis.volume import day_summary_from_digest
from repro.core.hitrate import HitRateTable, hit_rates_from_digest
from repro.core.interning import DayDigest
from repro.textutil import format_table
from repro.traffic.simulate import TraceSimulator

__all__ = ["CalibrationCheck", "CalibrationScorecard",
           "validate_calibration"]


@dataclass(frozen=True)
class CalibrationCheck:
    """One paper-shape invariant and its outcome."""

    name: str
    passed: bool
    measured: float
    expectation: str


@dataclass
class CalibrationScorecard:
    day: str
    checks: List[CalibrationCheck]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> List[CalibrationCheck]:
        return [check for check in self.checks if not check.passed]

    def render(self) -> str:
        rows = [(check.name, "PASS" if check.passed else "FAIL",
                 f"{check.measured:.3f}", check.expectation)
                for check in self.checks]
        return (f"Calibration scorecard — {self.day}\n"
                + format_table(["invariant", "status", "measured",
                                "expected"], rows))


def validate_calibration(simulator: TraceSimulator,
                         digest: DayDigest,
                         hit_rates: Optional[HitRateTable] = None
                         ) -> CalibrationScorecard:
    """Check the DESIGN.md §5 invariants on one simulated day."""
    if hit_rates is None:
        hit_rates = hit_rates_from_digest(digest)
    truth = simulator.disposable_truth()
    volumes = day_summary_from_digest(digest)
    checks: List[CalibrationCheck] = []

    def check(name: str, measured: float, passed: bool,
              expectation: str) -> None:
        checks.append(CalibrationCheck(name=name, passed=bool(passed),
                                       measured=float(measured),
                                       expectation=expectation))

    # 1. Less traffic above than below.
    ratio = volumes.above_below_ratio
    check("above/below volume ratio", ratio, ratio < 0.8, "< 0.8")

    # 2. NXDOMAIN concentrates upstream.
    check("NXDOMAIN share above vs below",
          (volumes.nxdomain_share_above
           / max(volumes.nxdomain_share_below, 1e-9)),
          volumes.nxdomain_share_above
          > 1.2 * volumes.nxdomain_share_below, "> 1.2x")

    # 3. NXDOMAIN small below.
    check("NXDOMAIN share below", volumes.nxdomain_share_below,
          volumes.nxdomain_share_below < 0.12, "< 0.12")

    # 4. Google+Akamai below half of traffic.
    check("google+akamai share below", volumes.google_akamai_share_below,
          volumes.google_akamai_share_below < 0.5, "< 0.5")

    # 5. Long tail of lookup volume.
    lookups = hit_rates.lookup_counts()
    low_tail = float(np.mean(lookups < LOW_VOLUME_THRESHOLD)) \
        if lookups.size else 0.0
    check("RRs with <10 lookups", low_tail, low_tail > 0.85, "> 0.85")

    # 6. Zero-DHR long tail.
    zero_dhr = hit_rates.zero_dhr_fraction()
    check("zero-DHR RR fraction", zero_dhr, zero_dhr > 0.6, "> 0.6")

    # 7. Disposable CHR collapses at zero.
    disposable_zones = [service.zone for service in
                        simulator.population.services]
    disposable_cdf = chr_cdf_for_zones(hit_rates, disposable_zones)
    disposable_zero = disposable_cdf.at(0.0) if len(disposable_cdf) else 0.0
    check("disposable CHR == 0", disposable_zero, disposable_zero > 0.85,
          "> 0.85")

    # 8. Popular zones keep healthy hit rates.
    popular_zones = [site.zone for site in
                     simulator.population.popular_sites]
    popular_cdf = chr_cdf_for_zones(hit_rates, popular_zones)
    popular_median = popular_cdf.quantile(0.5) if len(popular_cdf) else 0.0
    check("popular median CHR", popular_median,
          popular_median > disposable_zero - 1.0
          and popular_median > 0.1, "> 0.1 and >> disposable")

    _, resolved_hits, rr_hits = digest.match_counts(truth)

    # 9. Disposable share of resolved names in the paper's band.
    n_resolved = int(digest.resolved_name_ids().shape[0])
    disposable_share = resolved_hits / n_resolved if n_resolved else 0.0
    check("disposable share of resolved names", disposable_share,
          0.1 < disposable_share < 0.6, "in (0.1, 0.6)")

    # 10. Disposable RR share exceeds disposable name share.
    n_rrs = digest.distinct_rr_count()
    rr_share = rr_hits / n_rrs if n_rrs else 0.0
    check("disposable RR share > name share",
          rr_share - disposable_share, rr_share > disposable_share,
          "> 0")

    return CalibrationScorecard(day=digest.day, checks=checks)
