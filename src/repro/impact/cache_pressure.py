"""DNS cache pressure study (Section VI-A).

Disposable entries fill LRU caches with records that will never be
re-queried; under a fixed memory allocation this prematurely evicts
useful non-disposable records, inflating upstream traffic and response
latency.  The study replays the *same* query stream against resolver
clusters of varying cache capacity, once as-is and once with the
disposable traffic removed, and compares:

* the cache hit rate experienced by *non-disposable* queries,
* live evictions (entries evicted with TTL remaining — the paper's
  "premature evictions"),
* upstream query volume, and
* mean resolution latency under a simple hit/miss latency model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.dns.authority import AuthoritativeHierarchy
from repro.dns.resolver import RdnsCluster
from repro.traffic.workload import QueryEvent

__all__ = ["LatencyModel", "ScenarioStats", "CachePressureComparison",
           "OccupancyReport", "cache_occupancy", "replay_events",
           "run_cache_pressure_study"]


@dataclass(frozen=True)
class LatencyModel:
    """Hit/miss latency costs in milliseconds."""

    cache_hit_ms: float = 1.0
    per_referral_ms: float = 30.0

    def query_latency(self, cache_hit: bool, referrals: int) -> float:
        if cache_hit:
            return self.cache_hit_ms
        return self.cache_hit_ms + referrals * self.per_referral_ms


@dataclass
class ScenarioStats:
    """Replay outcome for one (capacity, traffic-mix) scenario."""

    label: str
    capacity: int
    queries: int = 0
    cache_hits: int = 0
    upstream_queries: int = 0
    live_evictions: int = 0
    non_disposable_queries: int = 0
    non_disposable_hits: int = 0
    total_latency_ms: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def non_disposable_hit_rate(self) -> float:
        return (self.non_disposable_hits / self.non_disposable_queries
                if self.non_disposable_queries else 0.0)

    @property
    def mean_latency_ms(self) -> float:
        return self.total_latency_ms / self.queries if self.queries else 0.0


def replay_events(events: Sequence[QueryEvent],
                  cluster: RdnsCluster,
                  day_start: float,
                  label: str,
                  capacity: int,
                  skip_categories: Optional[Set[str]] = None,
                  latency: Optional[LatencyModel] = None) -> ScenarioStats:
    """Run ``events`` through ``cluster``, collecting scenario stats."""
    skip = skip_categories or set()
    latency_model = latency or LatencyModel()
    stats = ScenarioStats(label=label, capacity=capacity)
    for event in events:
        if event.category in skip:
            continue
        result = cluster.query(event.client_id, event.question,
                               day_start + event.timestamp)
        stats.queries += 1
        stats.total_latency_ms += latency_model.query_latency(
            result.cache_hit, result.upstream_referrals)
        if result.cache_hit:
            stats.cache_hits += 1
        else:
            stats.upstream_queries += 1
        if event.category != "disposable":
            stats.non_disposable_queries += 1
            if result.cache_hit:
                stats.non_disposable_hits += 1
    stats.live_evictions = sum(server.cache.stats.evicted_live
                               for server in cluster.servers)
    return stats


@dataclass
class OccupancyReport:
    """What the cache holds at one instant (Section VI-A's premise:
    'the DNS cache may start to be filled with entries that are highly
    unlikely to ever be reused')."""

    live_entries: int
    disposable_entries: int
    never_hit_entries: int
    disposable_never_hit: int

    @property
    def disposable_share(self) -> float:
        return (self.disposable_entries / self.live_entries
                if self.live_entries else 0.0)

    @property
    def never_hit_share(self) -> float:
        return (self.never_hit_entries / self.live_entries
                if self.live_entries else 0.0)

    @property
    def disposable_never_hit_rate(self) -> float:
        """Of the cached disposable entries, the share never re-queried
        while cached — the 'dead weight' fraction."""
        return (self.disposable_never_hit / self.disposable_entries
                if self.disposable_entries else 0.0)


def cache_occupancy(cluster: RdnsCluster, now: float,
                    disposable_groups: Set[Tuple[str, int]]) -> OccupancyReport:
    """Snapshot live cache contents across a cluster and attribute
    them to disposable (zone, depth) groups."""
    from repro.core.groups import name_matches_groups

    live = disposable = never_hit = disposable_never_hit = 0
    for server in cluster.servers:
        for name, _rtype, _ttl, hits in server.cache.entries_snapshot(now):
            live += 1
            is_disposable = name_matches_groups(name, disposable_groups)
            if is_disposable:
                disposable += 1
            if hits == 0:
                never_hit += 1
                if is_disposable:
                    disposable_never_hit += 1
    return OccupancyReport(live_entries=live, disposable_entries=disposable,
                           never_hit_entries=never_hit,
                           disposable_never_hit=disposable_never_hit)


@dataclass
class CachePressureComparison:
    """Paired scenarios at one capacity."""

    capacity: int
    with_disposable: ScenarioStats
    without_disposable: ScenarioStats

    @property
    def hit_rate_degradation(self) -> float:
        """Drop in non-disposable hit rate caused by disposable load."""
        return (self.without_disposable.non_disposable_hit_rate
                - self.with_disposable.non_disposable_hit_rate)

    @property
    def extra_live_evictions(self) -> int:
        return (self.with_disposable.live_evictions
                - self.without_disposable.live_evictions)

    @property
    def upstream_inflation(self) -> float:
        """Relative upstream traffic increase for non-disposable names
        cannot be separated post-hoc, so this reports total upstream
        inflation normalised by the larger query count."""
        if not self.without_disposable.queries:
            return 0.0
        base = (self.without_disposable.upstream_queries
                / self.without_disposable.queries)
        loaded = (self.with_disposable.upstream_queries
                  / self.with_disposable.queries)
        return loaded - base


def run_cache_pressure_study(
        authority: AuthoritativeHierarchy,
        events: Sequence[QueryEvent],
        capacities: Iterable[int],
        day_start: float = 0.0,
        n_servers: int = 2,
        latency: Optional[LatencyModel] = None
) -> List[CachePressureComparison]:
    """Sweep cache capacities, pairing loaded vs disposable-free runs.

    Each scenario uses a fresh cluster against the shared (stateless)
    authoritative hierarchy so runs are independent.
    """
    comparisons = []
    for capacity in capacities:
        loaded_cluster = RdnsCluster(authority, n_servers=n_servers,
                                     cache_capacity=capacity)
        loaded = replay_events(events, loaded_cluster, day_start,
                               label="with-disposable", capacity=capacity,
                               latency=latency)
        clean_cluster = RdnsCluster(authority, n_servers=n_servers,
                                    cache_capacity=capacity)
        clean = replay_events(events, clean_cluster, day_start,
                              label="without-disposable", capacity=capacity,
                              skip_categories={"disposable"},
                              latency=latency)
        comparisons.append(CachePressureComparison(
            capacity=capacity, with_disposable=loaded,
            without_disposable=clean))
    return comparisons
