"""On-disk fpDNS artifact cache.

Simulating the calendar is the expensive part of every experiment
session; the resulting fpDNS days are pure functions of the simulator
config and the chronological day sequence.  This module caches each
completed day on disk keyed by a content hash of exactly those inputs,
so a warm second session loads the year instead of re-simulating it.

Each day is stored as one fpDNS-v2 blob (:mod:`repro.pdns.columnar`)
in an :class:`~repro.core.artifact_store.ArtifactStore` (atomic
per-process temp-file publish, corrupt-blob-is-a-miss, size
accounting, LRU prune).  A warm load hands back numpy columns and a
pre-built :class:`~repro.core.interning.DayDigest`, with the legacy
entry lists materialised lazily only if a per-entry consumer asks:
this is the digest-native warm path.

Key derivation
--------------
:func:`artifact_key` hashes (via the shared
:func:`repro.core.keys.versioned_key` scheme) the canonical JSON of

* a format-version tag (bump to invalidate the whole cache when the
  keyed semantics change),
* the full :class:`~repro.traffic.simulate.SimulatorConfig` (including
  the nested population and workload configs — any knob change, e.g. a
  different seed or cache capacity, yields different traffic and must
  miss),
* the *chronological day history up to and including the keyed day* —
  resolver caches persist across days, so the same calendar day
  simulated after a different prefix is a different artifact,
* the per-day event-count override, if any.

Corrupt or truncated cache files, and blobs of an older fpDNS-v2
version, are treated as misses, never errors: the day is re-simulated
and its blob overwritten under the same key.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.artifact_store import ArtifactStore
from repro.core.interning import DayDigest
from repro.core.keys import versioned_key
from repro.pdns.columnar import dumps_fpdns2, loads_fpdns2
from repro.pdns.records import FpDnsDataset
from repro.traffic.simulate import MeasurementDate, SimulatorConfig

__all__ = ["ARTIFACT_FORMAT", "COLUMNAR_SUFFIX", "artifact_key",
           "FpDnsArtifactCache"]

#: Version tag baked into every key; bump on any change to the keyed
#: semantics that old artifacts would misstate.  (A change of the blob
#: layout bumps the fpDNS-v2 version instead: old blobs then miss.)
ARTIFACT_FORMAT = "repro-fpdns-cache-v1"

COLUMNAR_SUFFIX = ".fpdns2"

PathLike = Union[str, Path]


def artifact_key(config: SimulatorConfig,
                 history: Sequence[MeasurementDate],
                 n_events: Optional[int] = None) -> str:
    """Content hash identifying one simulated day.

    ``history`` is the chronological sequence of simulated days ending
    with the day being keyed.
    """
    if not history:
        raise ValueError("history must end with the day being keyed")
    return versioned_key(ARTIFACT_FORMAT, {
        "config": asdict(config),
        "history": [(date.label, date.day_index, date.year_fraction)
                    for date in history],
        "n_events": n_events,
    })


class FpDnsArtifactCache:
    """Directory of cached fpDNS days, one blob per key.

    Counts ``hits`` and ``misses`` so callers (and the cache tests) can
    verify that a warm session skipped simulation.
    """

    def __init__(self, root: PathLike,
                 artifact_format: str = "columnar") -> None:
        # fpDNS-v2 ("columnar") is the only backend; the parameter stays
        # so callers that name it keep working.
        if artifact_format != "columnar":
            raise ValueError(f"unknown artifact format {artifact_format!r}"
                             " (only 'columnar' is supported)")
        self.store_backend = ArtifactStore(root, COLUMNAR_SUFFIX)

    @property
    def root(self) -> Path:
        return self.store_backend.root

    @property
    def hits(self) -> int:
        return self.store_backend.hits

    @property
    def misses(self) -> int:
        return self.store_backend.misses

    def path_for(self, key: str) -> Path:
        return self.store_backend.path_for(key)

    def load(self, key: str) -> Optional[FpDnsDataset]:
        """Cached day for ``key``, or ``None`` (counted as a miss).

        The returned dataset carries its pre-built digest
        (``day_digest()``); per-entry views materialise lazily.
        """
        return self.store_backend.load(key, loads_fpdns2)

    def store(self, key: str, dataset: FpDnsDataset,
              digest: Optional[DayDigest] = None) -> Path:
        """Persist ``dataset`` under ``key``; returns the file path.

        ``digest`` lets callers that already built the day's digest
        (the experiment context) avoid a redundant single-pass build.
        """
        return self.store_backend.store_bytes(key,
                                              dumps_fpdns2(dataset, digest))

    def __len__(self) -> int:
        return len(self.store_backend)
