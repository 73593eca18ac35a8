"""Traffic-volume analysis (Figure 2).

Produces the hourly resource-record volumes above and below the
recursive servers, with the NXDOMAIN, Akamai and Google component
series the paper overlays, plus day-level aggregates (the
order-of-magnitude above/below gap, NXDOMAIN shares on each side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.interning import DayDigest, StreamColumns
from repro.core.names import is_subdomain
from repro.dns.message import RCode

__all__ = ["ZONE_GROUPS", "VolumeSeries", "DayVolumeSummary",
           "hourly_volumes_from_digest", "day_summary_from_digest"]

# The paper's two reference zone groups (its footnote 1).
ZONE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "google": ("google.com",),
    "akamai": ("akamai.com", "akamai.net", "akamaiedge.net", "akamaihd.net",
               "edgesuite.net", "akamaitech.net", "akadns.net", "akam.net"),
}


def _in_group(name: str, zones: Sequence[str]) -> bool:
    return any(is_subdomain(name, zone) for zone in zones)


@dataclass
class VolumeSeries:
    """Per-bin volumes for one day and one side of the resolvers."""

    day: str
    side: str                      # "below" or "above"
    bin_seconds: float
    total: np.ndarray
    nxdomain: np.ndarray
    google: np.ndarray
    akamai: np.ndarray

    def peak_bin(self) -> int:
        return int(np.argmax(self.total))

    def trough_bin(self) -> int:
        return int(np.argmin(self.total))


def _bin_volumes(day: str, side: str, n_bins: int, day_seconds: float,
                 timestamps: np.ndarray, is_nx: np.ndarray,
                 in_google: np.ndarray,
                 in_akamai: np.ndarray) -> VolumeSeries:
    """Vectorised binning of one stream's columns.

    The bin index is ``min(int((ts - min_ts) / width), n_bins - 1)``,
    evaluated in float64.
    """
    total = np.zeros(n_bins, dtype=int)
    nxdomain = np.zeros(n_bins, dtype=int)
    google = np.zeros(n_bins, dtype=int)
    akamai = np.zeros(n_bins, dtype=int)
    if timestamps.size:
        width = day_seconds / n_bins
        index = ((timestamps - timestamps.min()) / width).astype(np.int64)
        np.minimum(index, n_bins - 1, out=index)
        total += np.bincount(index, minlength=n_bins)
        nxdomain += np.bincount(index[is_nx], minlength=n_bins)
        google += np.bincount(index[in_google], minlength=n_bins)
        akamai += np.bincount(index[in_akamai], minlength=n_bins)
    return VolumeSeries(day=day, side=side,
                        bin_seconds=day_seconds / n_bins, total=total,
                        nxdomain=nxdomain, google=google, akamai=akamai)


def _stream_group_masks(digest: DayDigest, stream: StreamColumns
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """(google, akamai) per-entry masks from memoised per-name masks;
    google wins where the groups overlap."""
    google_names = digest.names.subdomain_mask(ZONE_GROUPS["google"])
    akamai_names = digest.names.subdomain_mask(ZONE_GROUPS["akamai"])
    in_google = google_names[stream.name_ids]
    in_akamai = akamai_names[stream.name_ids] & ~in_google
    return in_google, in_akamai


def hourly_volumes_from_digest(digest: DayDigest, side: str = "below",
                               n_bins: int = 24,
                               day_seconds: float = 86_400.0
                               ) -> VolumeSeries:
    """Bin one stream of an fpDNS day into ``n_bins`` volume counts.

    Per-name zone membership is computed once per distinct name, and
    the binning is pure numpy over the digest columns."""
    if side == "below":
        stream = digest.below
    elif side == "above":
        stream = digest.above
    else:
        raise ValueError(f"side must be 'below' or 'above', got {side!r}")
    in_google, in_akamai = _stream_group_masks(digest, stream)
    return _bin_volumes(digest.day, side, n_bins, day_seconds,
                        stream.timestamps,
                        stream.rcodes == RCode.NXDOMAIN.value,
                        in_google, in_akamai)


@dataclass(frozen=True)
class DayVolumeSummary:
    """Aggregate volume facts for one day (the Figure 2 headline)."""

    day: str
    below_total: int
    above_total: int
    below_nxdomain: int
    above_nxdomain: int
    below_google: int
    below_akamai: int

    @property
    def above_below_ratio(self) -> float:
        return self.above_total / self.below_total if self.below_total else 0.0

    @property
    def nxdomain_share_below(self) -> float:
        return (self.below_nxdomain / self.below_total
                if self.below_total else 0.0)

    @property
    def nxdomain_share_above(self) -> float:
        return (self.above_nxdomain / self.above_total
                if self.above_total else 0.0)

    @property
    def google_akamai_share_below(self) -> float:
        return ((self.below_google + self.below_akamai) / self.below_total
                if self.below_total else 0.0)


def day_summary_from_digest(digest: DayDigest) -> DayVolumeSummary:
    """Day-level volume, NXDOMAIN and zone-group totals.

    Unlike the hourly series, the summary counts google and akamai
    membership independently (no precedence).
    """
    google_names = digest.names.subdomain_mask(ZONE_GROUPS["google"])
    akamai_names = digest.names.subdomain_mask(ZONE_GROUPS["akamai"])
    below = digest.below
    nx_value = RCode.NXDOMAIN.value
    return DayVolumeSummary(
        day=digest.day,
        below_total=int(below.timestamps.size),
        above_total=int(digest.above.timestamps.size),
        below_nxdomain=int(np.count_nonzero(below.rcodes == nx_value)),
        above_nxdomain=int(np.count_nonzero(digest.above.rcodes == nx_value)),
        below_google=int(np.count_nonzero(google_names[below.name_ids])),
        below_akamai=int(np.count_nonzero(akamai_names[below.name_ids])))
