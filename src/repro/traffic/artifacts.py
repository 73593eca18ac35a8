"""On-disk fpDNS artifact cache.

Simulating the calendar is the expensive part of every experiment
session; the resulting fpDNS days are pure functions of the simulator
config and the chronological day sequence.  This module caches each
completed day on disk keyed by a content hash of exactly those inputs,
so a warm second session loads the year instead of re-simulating it.

Two storage backends share one key scheme and one
:class:`~repro.core.artifact_store.ArtifactStore` (atomic per-process
temp-file publish, corrupt-blob-is-a-miss, size accounting, LRU
prune):

* ``columnar`` (default) — the fpDNS-v2 binary columnar format of
  :mod:`repro.pdns.columnar`: a warm load hands back numpy columns and
  a pre-built :class:`~repro.core.interning.DayDigest`, with the
  legacy entry lists materialised lazily only if a per-entry consumer
  asks.  This is the digest-native warm path.
* ``tsv`` — the legacy gzip-TSV format of :mod:`repro.pdns.io`, kept
  as the interchange/fallback format behind
  ``REPRO_ARTIFACT_FORMAT=tsv`` and as the equality oracle in the
  tests and IO benchmark.

Both backends persist identical day semantics, so they share key
material (:data:`ARTIFACT_FORMAT`) and differ only in file suffix; a
cache directory may hold both side by side.

Key derivation
--------------
:func:`artifact_key` hashes (via the shared
:func:`repro.core.keys.versioned_key` scheme) the canonical JSON of

* a format-version tag (bump to invalidate the whole cache on layout
  or semantics changes),
* the full :class:`~repro.traffic.simulate.SimulatorConfig` (including
  the nested population and workload configs — any knob change, e.g. a
  different seed or cache capacity, yields different traffic and must
  miss),
* the *chronological day history up to and including the keyed day* —
  resolver caches persist across days, so the same calendar day
  simulated after a different prefix is a different artifact,
* the per-day event-count override, if any.

Corrupt or truncated cache files are treated as misses, never errors.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.artifact_store import ArtifactStore
from repro.core.interning import DayDigest
from repro.core.keys import versioned_key
from repro.pdns.columnar import dumps_fpdns2, loads_fpdns2
from repro.pdns.io import FormatError, dumps_fpdns, loads_fpdns
from repro.pdns.records import FpDnsDataset
from repro.traffic.simulate import MeasurementDate, SimulatorConfig

__all__ = ["ARTIFACT_FORMAT", "ARTIFACT_FORMATS", "COLUMNAR_SUFFIX",
           "TSV_SUFFIX", "artifact_key", "artifact_format_from_env",
           "FpDnsArtifactCache"]

#: Version tag baked into every key; bump on any change to the keyed
#: semantics that old artifacts would misstate.  Both storage backends
#: persist identical days, so they share this tag (the file suffix
#: separates their blobs).
ARTIFACT_FORMAT = "repro-fpdns-cache-v1"

#: Supported storage backends, default first.
ARTIFACT_FORMATS = ("columnar", "tsv")

COLUMNAR_SUFFIX = ".fpdns2"
TSV_SUFFIX = ".fpdns.gz"

PathLike = Union[str, Path]


def artifact_format_from_env() -> str:
    """The backend selected by ``REPRO_ARTIFACT_FORMAT`` (default
    ``columnar``).  The choice changes bytes on disk and wall-clock
    time, never a loaded day's content."""
    value = os.environ.get("REPRO_ARTIFACT_FORMAT", ARTIFACT_FORMATS[0])
    value = value.strip().lower()
    if value not in ARTIFACT_FORMATS:
        raise ValueError(
            f"REPRO_ARTIFACT_FORMAT={value!r} not in {ARTIFACT_FORMATS}")
    return value


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
                 artifact_format: Optional[str] = None) -> None:
        self.format = artifact_format or artifact_format_from_env()
        if self.format not in ARTIFACT_FORMATS:
            raise ValueError(f"unknown artifact format {self.format!r}")
        suffix = (COLUMNAR_SUFFIX if self.format == "columnar"
                  else TSV_SUFFIX)
        self.store_backend = ArtifactStore(root, suffix)

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

    def _decode(self, data: bytes) -> FpDnsDataset:
        if self.format == "columnar":
            return loads_fpdns2(data)
        return loads_fpdns(data)

    def load(self, key: str) -> Optional[FpDnsDataset]:
        """Cached day for ``key``, or ``None`` (counted as a miss).

        With the columnar backend the returned dataset carries its
        pre-built digest (``day_digest()``); per-entry views
        materialise lazily.
        """
        return self.store_backend.load(key, self._decode,
                                       miss_on=(FormatError,))

    def store(self, key: str, dataset: FpDnsDataset,
              digest: Optional[DayDigest] = None) -> Path:
        """Persist ``dataset`` under ``key``; returns the file path.

        ``digest`` lets callers that already built the day's digest
        (the experiment context) avoid a redundant single-pass build
        when encoding columnar blobs; the TSV backend ignores it.
        """
        if self.format == "columnar":
            data = dumps_fpdns2(dataset, digest)
        else:
            data = dumps_fpdns(dataset)
        return self.store_backend.store_bytes(key, data)

    def __len__(self) -> int:
        return len(self.store_backend)
