"""Passive-DNS dataset containers (Section III-A).

The study uses two datasets:

* **fpDNS** — every response observed at the monitoring point, as
  tuples of (timestamp, anonymised client id, queried name, query
  type, TTL, RDATA).  We keep the below-the-resolvers stream and the
  above-the-resolvers stream separately, since all volume, hit-rate
  and NXDOMAIN analyses depend on which side an event was seen on.
* **rpDNS** — the distinct successful resource records, each tagged
  with the first date it was seen (built by
  :class:`repro.pdns.database.PassiveDnsDatabase`).

These containers are the mining system's input data model, so they live
in ``repro.core`` at the bottom of the layering DAG; the collection
machinery that *produces* them stays in :mod:`repro.pdns`.  Every
per-day computation reads a dataset through its columnar
:class:`~repro.core.interning.DayDigest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.core.dnstypes import RCode, RRType

__all__ = ["FpDnsEntry", "FpDnsDataset", "RpDnsEntry", "RRKey",
           "rr_sort_key"]

RRKey = Tuple[str, RRType, str]


def rr_sort_key(key: RRKey) -> Tuple[str, str, str]:
    """Total order for RR identity triples.

    ``RRType`` is a plain :class:`enum.Enum` (members do not compare),
    so any code that needs a deterministic iteration order over RR keys
    must sort through this projection rather than ``sorted()`` on the
    raw tuples.
    """
    return (key[0], key[1].value, key[2])


class FpDnsEntry(NamedTuple):
    """One observed response record.

    For a successful answer there is one entry per resource record in
    the answer section (``ttl``/``rdata`` set).  An NXDOMAIN produces a
    single entry with ``rcode=NXDOMAIN`` and no TTL/RDATA — the paper
    plots NXDOMAIN volumes, so failures must be visible in the stream.
    ``client_id`` is ``None`` for above-the-resolver events (the
    requester there is the RDNS server, not a customer).

    Tuple-backed (``NamedTuple``) rather than a dataclass: the
    collector constructs one of these per answer RR per response —
    tens of millions per simulated year — so C-level construction and
    ``__slots__``-free tuple storage matter here.
    """

    timestamp: float
    client_id: Optional[int]
    qname: str
    qtype: RRType
    rcode: RCode
    ttl: Optional[int] = None
    rdata: Optional[str] = None

    @property
    def is_answer(self) -> bool:
        return self.rcode is RCode.NOERROR and self.rdata is not None

    def rr_key(self) -> Optional[RRKey]:
        """Identity triple of the carried RR, or ``None`` for failures."""
        if not self.is_answer:
            return None
        return (self.qname, self.qtype, self.rdata)  # type: ignore[return-value]


@dataclass
class FpDnsDataset:
    """One day of full passive DNS: both monitored streams.

    ``day`` is a label such as ``"2011-02-01"``; the analyses treat it
    opaquely but the growth experiments order datasets by it.
    """

    day: str
    below: List[FpDnsEntry] = field(default_factory=list)
    above: List[FpDnsEntry] = field(default_factory=list)

    # -- volume ------------------------------------------------------

    def below_volume(self) -> int:
        return len(self.below)

    def above_volume(self) -> int:
        return len(self.above)

    # -- domain populations -------------------------------------------

    def queried_domains(self) -> Set[str]:
        """Every distinct name queried (successful or not), below."""
        return {entry.qname for entry in self.below}

    def resolved_domains(self) -> Set[str]:
        """Distinct names with at least one successful answer, below."""
        return {entry.qname for entry in self.below if entry.is_answer}

    def distinct_rrs(self) -> Set[RRKey]:
        """Distinct successful (name, type, rdata) triples, below."""
        keys = set()
        for entry in self.below:
            key = entry.rr_key()
            if key is not None:
                keys.add(key)
        return keys

    # -- per-RR aggregation --------------------------------------------

    def below_counts_by_rr(self) -> Dict[RRKey, int]:
        """Answer events per RR below the resolvers (total queries)."""
        counts: Dict[RRKey, int] = {}
        for entry in self.below:
            key = entry.rr_key()
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
        return counts

    def above_counts_by_rr(self) -> Dict[RRKey, int]:
        """Answer events per RR above the resolvers (cache misses)."""
        counts: Dict[RRKey, int] = {}
        for entry in self.above:
            key = entry.rr_key()
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
        return counts

    def ttls_by_rr(self) -> Dict[RRKey, int]:
        """Authoritative TTL per RR (as observed above the resolvers,
        falling back to the max TTL seen below, which is the least
        decayed observation)."""
        ttls: Dict[RRKey, int] = {}
        for entry in self.above:
            key = entry.rr_key()
            if key is not None and entry.ttl is not None:
                ttls[key] = max(ttls.get(key, 0), entry.ttl)
        for entry in self.below:
            key = entry.rr_key()
            if key is not None and key not in ttls and entry.ttl is not None:
                ttls[key] = max(ttls.get(key, 0), entry.ttl)
        return ttls

    def nxdomain_volume_below(self) -> int:
        return sum(1 for e in self.below if e.rcode is RCode.NXDOMAIN)

    def nxdomain_volume_above(self) -> int:
        return sum(1 for e in self.above if e.rcode is RCode.NXDOMAIN)


@dataclass(frozen=True)
class RpDnsEntry:
    """One deduplicated resource record with its first-seen day."""

    qname: str
    qtype: RRType
    rdata: str
    first_seen: str

    def rr_key(self) -> RRKey:
        return (self.qname, self.qtype, self.rdata)
