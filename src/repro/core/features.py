"""Statistical features for depth groups (Section V-A2).

For a zone ``z`` and a depth group ``G_k`` (the black descendants of
``z`` at depth ``k``), two feature families are computed:

* **Tree-structure features** over ``L_k`` — the set of labels adjacent
  to ``z`` on the paths to the group members: cardinality of ``L_k``
  and the max / min / mean / median / variance of the per-label Shannon
  character entropies.  Bulk-generated labels have uniformly high
  entropy; hand-named infrastructure ("www", "mail") does not.
* **Cache-hit-rate features** over the resource records owned by the
  group members: the median of the CHR distribution and the fraction
  of CHR samples that are exactly zero.  Disposable groups sit near
  (0, 1); non-disposable groups near (high, low) — Figure 7.

The resulting 8-dimensional vector is what the classifier consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, List, Sequence

import numpy as np

from repro.core.hitrate import HitRateTable, hit_rates_from_digest
from repro.core.names import shannon_entropy
from repro.core.tree import DomainNameTree

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.interning import DayDigest

__all__ = ["FEATURE_NAMES", "GroupFeatures", "FeatureExtractor"]

FEATURE_NAMES = (
    "label_set_size",
    "entropy_max",
    "entropy_min",
    "entropy_mean",
    "entropy_median",
    "entropy_variance",
    "chr_median",
    "chr_zero_fraction",
)


@dataclass(frozen=True)
class GroupFeatures:
    """Feature vector for one (zone, depth) group."""

    zone: str
    depth: int
    group_size: int
    label_set_size: int
    entropy_max: float
    entropy_min: float
    entropy_mean: float
    entropy_median: float
    entropy_variance: float
    chr_median: float
    chr_zero_fraction: float

    def vector(self) -> np.ndarray:
        """The 8-dimensional feature vector, ordered as FEATURE_NAMES."""
        return np.array([
            float(self.label_set_size),
            self.entropy_max,
            self.entropy_min,
            self.entropy_mean,
            self.entropy_median,
            self.entropy_variance,
            self.chr_median,
            self.chr_zero_fraction,
        ], dtype=float)


@lru_cache(maxsize=65_536)
def _label_entropy(label: str) -> float:
    """Process-wide memo over :func:`shannon_entropy`.

    The same adjacent labels recur across depth groups, zones and days
    (a calendar mining run re-hashes each hot label thousands of
    times), so per-label entropy is cached once per process.  Bounded
    (LRU) so a long-lived ``repro serve`` daemon cannot accumulate an
    unbounded label vocabulary.
    """
    return shannon_entropy(label)


def _entropy_stats(label_set: Sequence[str]) -> tuple:
    entropies = np.array([_label_entropy(label) for label in label_set],
                         dtype=float)
    if entropies.size == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    return (float(entropies.max()), float(entropies.min()),
            float(entropies.mean()), float(np.median(entropies)),
            float(entropies.var()))


class FeatureExtractor:
    """Computes :class:`GroupFeatures` from a tree + hit-rate table."""

    def __init__(self, tree: DomainNameTree, hit_rates: HitRateTable) -> None:
        self._tree = tree
        self._hit_rates = hit_rates

    @classmethod
    def from_digest(cls, digest: "DayDigest") -> "FeatureExtractor":
        """Extractor over a columnar day digest: tree and hit-rate
        table are both derived from the digest columns (no entry
        re-scan)."""
        return cls(DomainNameTree(digest.resolved_names_ordered()),
                   hit_rates_from_digest(digest))

    def features_for(self, zone: str, depth: int,
                     group: Iterable[str]) -> GroupFeatures:
        """Feature vector for the given ``G_k`` under ``zone``."""
        group_list = list(group)
        adjacent = self._tree.adjacent_labels(zone, group_list)
        label_set = sorted(set(adjacent))
        e_max, e_min, e_mean, e_median, e_var = _entropy_stats(label_set)

        rr_rates = self._hit_rates.for_names(group_list)
        chr_median = self._hit_rates.chr_median(rr_rates)
        chr_zero = self._hit_rates.chr_zero_fraction(rr_rates)

        return GroupFeatures(
            zone=zone, depth=depth, group_size=len(group_list),
            label_set_size=len(label_set),
            entropy_max=e_max, entropy_min=e_min, entropy_mean=e_mean,
            entropy_median=e_median, entropy_variance=e_var,
            chr_median=chr_median, chr_zero_fraction=chr_zero)

    def all_group_features(self, zone: str) -> List[GroupFeatures]:
        """Features for every depth group under ``zone``."""
        return [self.features_for(zone, depth, group)
                for depth, group in sorted(self._tree.depth_groups(zone).items())]
