"""Passive-DNS collector: the monitoring tap of Section III-A.

Implements the :class:`repro.dns.resolver.MonitoringTap` protocol.
Attached to an :class:`repro.dns.resolver.RdnsCluster`, it records the
answer sections of every response below the resolvers and every
response above them into a daily :class:`FpDnsDataset` — the same
artifact the authors collected at the ISP.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.dns.message import RCode, Response
from repro.pdns.records import FpDnsDataset, FpDnsEntry

__all__ = ["PassiveDnsCollector", "entries_for_response"]

_NOERROR = RCode.NOERROR
_NXDOMAIN = RCode.NXDOMAIN


def entries_for_response(timestamp: float, client_id: Optional[int],
                         response: Response) -> List[FpDnsEntry]:
    """The fpDNS rows one observed response contributes."""
    if response.rcode is _NXDOMAIN or not response.answers:
        rcode = (response.rcode if response.rcode is not _NOERROR
                 else _NXDOMAIN)
        question = response.question
        return [FpDnsEntry(timestamp, client_id, question.qname,
                           question.qtype, rcode, None, None)]
    # Each answer RR is recorded under its own owner name: a
    # CNAME chain contributes one row per chain member, exactly as
    # passive-DNS taps store answer sections.
    return [
        FpDnsEntry(timestamp, client_id, rr.name, rr.rtype,
                   _NOERROR, rr.ttl, rr.rdata)
        for rr in response.answers
    ]


class PassiveDnsCollector:
    """Records both monitored streams into per-day fpDNS datasets.

    Parameters
    ----------
    day:
        Label of the first dataset to collect into.
    retain_days:
        How many *completed* (rolled) datasets to keep referenced.
        ``0`` (default) retains none — each completed day is returned
        to the caller and then owned solely by it, so a year-long
        simulation no longer pins every day (plus the synthetic warmup
        placeholders) in memory for the process lifetime.  A positive
        value keeps the most recent N; ``None`` keeps all (the
        pre-sharding behaviour).
    """

    def __init__(self, day: str = "warmup",
                 retain_days: Optional[int] = 0) -> None:
        if retain_days is not None and retain_days < 0:
            raise ValueError(
                f"retain_days must be >= 0, got {retain_days}")
        self._dataset = FpDnsDataset(day=day)
        self._finished: Optional[Deque[FpDnsDataset]]
        if retain_days == 0:
            self._finished = None
        else:
            self._finished = deque(maxlen=retain_days)

    @property
    def dataset(self) -> FpDnsDataset:
        """The dataset currently being collected."""
        return self._dataset

    @property
    def finished_datasets(self) -> List[FpDnsDataset]:
        """Completed datasets retained under the ``retain_days`` policy."""
        return list(self._finished) if self._finished is not None else []

    def begin_day(self, day: str) -> None:
        """Start collecting ``day``, discarding the current dataset.

        Used by the simulator at the top of each day: whatever was
        being collected (the initial warmup placeholder, or an idle
        gap between :meth:`end_day` and the next day) carries no
        observations and is dropped rather than retained.
        """
        self._dataset = FpDnsDataset(day=day)

    def end_day(self) -> FpDnsDataset:
        """Close the current day and return it.

        The completed dataset is retained per ``retain_days``; a fresh
        idle placeholder (never retained) collects anything observed
        before the next :meth:`begin_day`.
        """
        completed = self._dataset
        if self._finished is not None:
            self._finished.append(completed)
        self._dataset = FpDnsDataset(day=f"idle-after-{completed.day}")
        return completed

    def roll_day(self, new_day: str) -> FpDnsDataset:
        """Close the current day and start collecting ``new_day``.

        Returns the completed dataset (retained per ``retain_days``).
        """
        completed = self.end_day()
        self._dataset = FpDnsDataset(day=new_day)
        return completed

    # -- MonitoringTap protocol ----------------------------------------

    def observe_below(self, timestamp: float, client_id: Optional[int],
                      response: Response) -> None:
        self._dataset.below.extend(
            entries_for_response(timestamp, client_id, response))

    def observe_above(self, timestamp: float, response: Response) -> None:
        self._dataset.above.extend(
            entries_for_response(timestamp, None, response))
