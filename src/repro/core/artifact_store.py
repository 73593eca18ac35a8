"""Content-addressed on-disk artifact store.

Both on-disk layers — the fpDNS artifact cache
(:mod:`repro.traffic.artifacts`) and the segmented pdns store
(:mod:`repro.pdns.store`) — need the same filesystem mechanics: a
directory of blobs named by content-hash key, atomic publication,
corrupt-blob-is-a-miss load semantics, hit/miss counters, size
accounting and an LRU prune policy.  :class:`ArtifactStore`
implements exactly that once, at the bottom of the layering DAG; the
callers supply only their key derivation (see :mod:`repro.core.keys`)
and their encode/decode codecs.

Atomicity and concurrency
-------------------------
Every write goes to a **per-process unique** temp file in the store
directory (``tempfile.mkstemp``) and is published with ``os.replace``.
Two processes storing the same key concurrently (e.g. two sessions
sharing a cache directory) therefore never clobber each other
mid-write: each writes its own temp file, and the last ``os.replace``
wins atomically.
A fixed temp name (``<key>.tmp``) would let the second writer truncate
the first one's half-written file — reprolint rule R008
(``atomic-cache-publish``) statically flags cache writes that skip
this pattern.

Load semantics
--------------
A missing, empty, unreadable or undecodable blob is a *miss*, never an
error: caches must degrade to recomputation, not crash a session.
Decoders of the shared container (:mod:`repro.core.container`) signal
a damaged blob with :class:`~repro.core.container.FormatError`, which
is always a miss; a decoder with other failure modes declares them per
call (``miss_on``), so unrelated bugs still surface.

Prune policy
------------
``load`` refreshes the blob's mtime, so mtime order is LRU order.
:meth:`ArtifactStore.prune` (and the directory-level
:func:`prune_directory` behind the ``repro cache`` CLI) removes
least-recently-used blobs until the store fits a byte budget.  Pruning
only ever affects wall-clock time of later sessions — a pruned day is
re-simulated bit-identically — so the policy is free to be operational
rather than deterministic.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Type, TypeVar, Union

from repro.core.container import FormatError

__all__ = ["ArtifactStore", "DirectoryStats", "directory_stats",
           "prune_directory"]

PathLike = Union[str, Path]

T = TypeVar("T")

#: Suffix of in-flight temp files; never loaded, always safe to sweep.
TMP_SUFFIX = ".tmp"


class ArtifactStore:
    """One directory of content-addressed blobs with a fixed suffix.

    ``hits``/``misses`` count :meth:`load` outcomes so callers (and the
    cache tests) can verify a warm session actually read from disk.
    """

    def __init__(self, root: PathLike, suffix: str) -> None:
        if not suffix or suffix == TMP_SUFFIX:
            raise ValueError(f"invalid artifact suffix {suffix!r}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.suffix = suffix
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}{self.suffix}"

    # -- load ----------------------------------------------------------

    def load(self, key: str, decode: Callable[[bytes], T],
             miss_on: Tuple[Type[BaseException], ...] = ()) -> Optional[T]:
        """Decoded blob for ``key``, or ``None`` (counted as a miss).

        ``decode`` turns raw bytes into the cached value; any exception
        listed in ``miss_on`` (plus ``OSError``/``EOFError``/
        :class:`~repro.core.container.FormatError`, which cover
        unreadable, truncated, damaged and empty blobs) demotes the
        artifact to a miss.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
            if not data:
                raise FormatError(f"{path}: zero-length artifact")
            value = decode(data)
        except (OSError, EOFError, FormatError) + miss_on:
            self.misses += 1
            return None
        self.hits += 1
        self._mark_used(path)
        return value

    def _mark_used(self, path: Path) -> None:
        """Refresh mtime so prune order tracks recency of use."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - raced with a prune/delete
            pass

    # -- store ---------------------------------------------------------

    def store_bytes(self, key: str, data: bytes) -> Path:
        """Atomically publish ``data`` under ``key``; returns the path.

        The temp file name is unique per process (``mkstemp``), so
        concurrent writers of the same key cannot clobber each other's
        half-written file; ``os.replace`` makes the publish atomic and
        last-writer-wins.

        Atomic, not durable: neither the file nor its directory is
        fsynced.  After a process crash a reader sees either the old
        blob or the new one; after a power loss it may see neither.
        """
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=f"{key}.",
                                        suffix=TMP_SUFFIX)
        try:
            handle = os.fdopen(fd, "wb")
        except BaseException:  # pragma: no cover - fdopen on a fresh fd
            try:
                os.close(fd)
            finally:
                os.unlink(tmp_name)
            raise
        try:
            try:
                handle.write(data)
            finally:
                handle.close()
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - already replaced/removed
                pass
            raise
        return path

    def delete(self, key: str) -> bool:
        """Remove ``key``'s blob; False when it was already gone.

        Every other failure to unlink (permissions, I/O) propagates: a
        caller that deletes to finish a change must not read a blob
        left in place as gone.
        """
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        return True

    # -- accounting ----------------------------------------------------

    def keys(self) -> List[str]:
        """Stored keys, sorted (stable listing order for tools/tests)."""
        cut = len(self.suffix)
        return sorted(path.name[:-cut]
                      for path in self.root.glob(f"*{self.suffix}"))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{self.suffix}"))

    def total_bytes(self) -> int:
        total = 0
        for path in sorted(self.root.glob(f"*{self.suffix}")):
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - raced with a delete
                pass
        return total

    def prune(self, max_bytes: int) -> List[str]:
        """Drop least-recently-used blobs until the store fits
        ``max_bytes``; returns the removed keys."""
        removed = [path.name[:-len(self.suffix)]
                   for path in _prune_paths(
                       sorted(self.root.glob(f"*{self.suffix}")), max_bytes)]
        return removed


# -- directory-level tooling (the ``repro cache`` CLI) -----------------


@dataclass(frozen=True)
class DirectoryStats:
    """Size accounting for one cache directory, grouped by suffix."""

    root: str
    n_artifacts: int
    total_bytes: int
    by_suffix: Tuple[Tuple[str, int, int], ...]  # (suffix, count, bytes)

    def render(self) -> str:
        lines = [f"{self.root}: {self.n_artifacts} artifacts, "
                 f"{self.total_bytes} bytes"]
        for suffix, count, size in self.by_suffix:
            lines.append(f"  {suffix:<16} {count:>6}  {size} bytes")
        return "\n".join(lines)


def _artifact_paths(root: Path) -> List[Path]:
    """Every published artifact in ``root`` (in-flight temps excluded)."""
    return sorted(path for path in root.iterdir()
                  if path.is_file() and not path.name.endswith(TMP_SUFFIX))


def _suffix_of(path: Path) -> str:
    """Grouping suffix: everything from the first dot of the name on."""
    name = path.name
    dot = name.find(".")
    return name[dot:] if dot >= 0 else ""


def directory_stats(root: PathLike) -> DirectoryStats:
    """Count and size every artifact under ``root``, grouped by suffix."""
    root_path = Path(root)
    sizes: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    total = 0
    n_artifacts = 0
    for path in _artifact_paths(root_path):
        try:
            size = path.stat().st_size
        except OSError:  # pragma: no cover - raced with a delete
            continue
        suffix = _suffix_of(path)
        sizes[suffix] = sizes.get(suffix, 0) + size
        counts[suffix] = counts.get(suffix, 0) + 1
        total += size
        n_artifacts += 1
    by_suffix = tuple(sorted((suffix, counts[suffix], sizes[suffix])
                             for suffix in sizes))
    return DirectoryStats(root=str(root_path), n_artifacts=n_artifacts,
                          total_bytes=total, by_suffix=by_suffix)


def _prune_paths(paths: List[Path], max_bytes: int) -> List[Path]:
    """Delete oldest-mtime paths until the remainder fits ``max_bytes``."""
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    stated: List[Tuple[float, str, int, Path]] = []
    total = 0
    for path in paths:
        try:
            stat = path.stat()
        except OSError:  # pragma: no cover - raced with a delete
            continue
        stated.append((stat.st_mtime, path.name, stat.st_size, path))
        total += stat.st_size
    removed: List[Path] = []
    for _, _, size, path in sorted(stated):
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced with a delete
            continue
        total -= size
        removed.append(path)
    return removed


def prune_directory(root: PathLike, max_bytes: int) -> List[str]:
    """LRU-prune *all* artifacts under ``root`` (any suffix) until the
    directory fits ``max_bytes``; returns removed file names."""
    return [path.name
            for path in _prune_paths(_artifact_paths(Path(root)), max_bytes)]
