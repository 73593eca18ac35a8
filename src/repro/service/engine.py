"""Batched, vectorised qname classification engine.

The offline pipeline answers "which (zone, depth) groups of this day
are disposable?"; the serving engine answers the online question —
"is *this qname* disposable?" — at high QPS.  One engine instance
holds:

* a :class:`~repro.core.classifier.compiled.CompiledLadTree` (the
  fitted LAD tree flattened into parallel stump arrays),
* the day's mining tree and hit-rate table, wrapped in a
  :class:`~repro.core.features.FeatureExtractor`, and
* a (zone, depth)-keyed :class:`VerdictCache` so repeat traffic
  short-circuits feature extraction entirely.

Two code paths produce :class:`Verdict` objects:

* :meth:`ClassificationEngine.classify_one` — the per-name **oracle**:
  no interning, no caching, one fresh ``depth_groups`` walk and one
  1-row ``decision_function`` call per qname.  Slow by construction;
  it defines the semantics.
* :meth:`ClassificationEngine.classify_batch` — the fast path, two
  cache levels deep.  Every qname first probes a per-qname verdict
  memo (one dict get — legal because the engine's tree, hit rates and
  model are immutable for its lifetime, so a qname's verdict can
  never change).  Missing qnames are interned through a
  :class:`~repro.core.interning.NameTable`, distinct names resolve to
  (zone, depth) group keys, the verdict cache is probed per key, and
  every *cold* qualifying group's 8-feature vector is stacked into
  one matrix scored by a single ``decision_function`` call.

The batch path returns *exactly* the oracle's verdicts (dataclass
equality, asserted while timed in ``tools/bench_serve.py``): the
compiled model scores each row independently of its batchmates, and
the sigmoid is evaluated with the same scalar ``math.exp`` in both
paths.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier.compiled import CompiledLadTree
from repro.core.features import FeatureExtractor
from repro.core.hitrate import HitRateTable, hit_rates_from_digest
from repro.core.interning import DayDigest, NameTable
from repro.core.names import InvalidDomainError, label_count, normalize
from repro.core.ranking import build_tree_from_digest
from repro.core.suffix import SuffixList, default_suffix_list
from repro.core.tree import DomainNameTree

__all__ = ["EngineConfig", "Verdict", "VerdictCache",
           "ClassificationEngine"]

GroupKey = Tuple[str, int]


@dataclass(frozen=True)
class EngineConfig:
    """Serving-side tunables.

    ``threshold`` mirrors the miner's θ: a group is called disposable
    when P(disposable) ≥ θ.  ``min_group_size`` mirrors the miner's
    guard against statistically meaningless groups.  ``cache_size``
    bounds the verdict cache (LRU entries, one per (zone, depth)).
    """

    threshold: float = 0.9
    min_group_size: int = 5
    cache_size: int = 4096

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {self.threshold}")
        if self.min_group_size < 1:
            raise ValueError(
                f"min_group_size must be >= 1, got {self.min_group_size}")
        if self.cache_size < 1:
            raise ValueError(
                f"cache_size must be >= 1, got {self.cache_size}")


@dataclass(frozen=True)
class Verdict:
    """The engine's answer for one qname.

    ``reason`` says how the verdict was reached:

    * ``"classified"`` — the qname sits in a scorable (zone, depth)
      group; ``score``/``probability`` are the model outputs.
    * ``"zone-apex"`` — the qname *is* its own registrable domain, so
      it heads groups rather than belonging to one.
    * ``"unknown-group"`` — the loaded mining tree has no group at the
      qname's (zone, depth) position.
    * ``"small-group"`` — the group exists but is below
      ``min_group_size``; the miner would never classify it.
    * ``"no-zone"`` — the qname has no registrable parent (it is an
      effective TLD).
    * ``"invalid-name"`` — the string is not a domain name.
    """

    qname: str
    zone: str
    depth: int
    reason: str
    disposable: bool
    score: float
    probability: float
    group_size: int

    def to_json(self) -> Dict[str, object]:
        return {"qname": self.qname, "zone": self.zone,
                "depth": self.depth, "reason": self.reason,
                "disposable": self.disposable, "score": self.score,
                "probability": self.probability,
                "group_size": self.group_size}


@dataclass(frozen=True)
class _GroupVerdict:
    """Cached per-(zone, depth) outcome, shared by every member qname."""

    reason: str
    disposable: bool
    score: float
    probability: float
    group_size: int


class VerdictCache:
    """(zone, depth)-keyed LRU over :class:`_GroupVerdict` entries."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[GroupKey, _GroupVerdict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: GroupKey) -> Optional[_GroupVerdict]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: GroupKey, verdict: _GroupVerdict) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = verdict
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"size": len(self._entries), "capacity": self.capacity,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


def _probability(score: float) -> float:
    """P(disposable) from the additive score — the LogitBoost link.

    Scalar ``math.exp`` on purpose: both engine paths call this exact
    function, so a verdict's probability never depends on whether the
    score came from a 1-row or an N-row ``decision_function`` call.
    """
    z = -2.0 * score
    if z > 700.0:        # math.exp overflows past ~709
        return 0.0
    return 1.0 / (1.0 + math.exp(z))


class ClassificationEngine:
    """Online qname classifier over one day's mining state."""

    def __init__(self, model: CompiledLadTree, tree: DomainNameTree,
                 hit_rates: HitRateTable, *,
                 suffixes: Optional[SuffixList] = None,
                 config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self._model = model
        self._tree = tree
        self._extractor = FeatureExtractor(tree, hit_rates)
        self._suffixes = suffixes or default_suffix_list()
        self.cache = VerdictCache(self.config.cache_size)
        # Front-line qname → Verdict memo for the batch path.  The
        # engine's tree, hit-rate table and model never change after
        # construction, so a qname's verdict is a pure function of the
        # engine — memoised verdicts can never go stale.  Bounded by
        # periodic reset: when full it is cleared outright, which keeps
        # the daemon's footprint flat without LRU bookkeeping on the
        # per-name hot path.
        self._verdict_memo: Dict[str, Verdict] = {}
        self._verdict_memo_limit = max(16 * self.config.cache_size, 65_536)
        # Monotonic counters for /metrics (ints; read without locking).
        self.single_calls = 0
        self.batch_calls = 0
        self.names_classified = 0
        self.groups_extracted = 0
        self.disposable_verdicts = 0

    @classmethod
    def from_digest(cls, digest: DayDigest, model: CompiledLadTree, *,
                    suffixes: Optional[SuffixList] = None,
                    config: Optional[EngineConfig] = None
                    ) -> "ClassificationEngine":
        """Engine over a columnar day digest: the mining tree and the
        hit-rate table both come from the digest columns, exactly as
        the daily pipeline builds them."""
        return cls(model, build_tree_from_digest(digest),
                   hit_rates_from_digest(digest),
                   suffixes=suffixes, config=config)

    # -- name resolution -----------------------------------------------

    def _resolve(self, qname: str) -> Tuple[str, str, int, Optional[str]]:
        """``(normalized, zone, depth, terminal_reason)`` for a qname.

        ``terminal_reason`` is non-``None`` when the name cannot be a
        group member (invalid / no zone / zone apex); otherwise
        ``(zone, depth)`` is a well-formed group key.
        """
        try:
            name = normalize(qname)
        except InvalidDomainError:
            return qname, "", 0, "invalid-name"
        depth = label_count(name)
        zone = self._suffixes.effective_2ld(name)
        if zone is None:
            return name, "", depth, "no-zone"
        if depth <= label_count(zone):
            return name, zone, depth, "zone-apex"
        return name, zone, depth, None

    def _terminal(self, qname: str, zone: str, depth: int,
                  reason: str) -> Verdict:
        return Verdict(qname=qname, zone=zone, depth=depth, reason=reason,
                       disposable=False, score=0.0, probability=0.0,
                       group_size=0)

    def _verdict(self, qname: str, zone: str, depth: int,
                 group: _GroupVerdict) -> Verdict:
        return Verdict(qname=qname, zone=zone, depth=depth,
                       reason=group.reason, disposable=group.disposable,
                       score=group.score, probability=group.probability,
                       group_size=group.group_size)

    def _score_group(self, zone: str, depth: int,
                     group: List[str]) -> _GroupVerdict:
        """Extract one group's features and score it (1-row call)."""
        features = self._extractor.features_for(zone, depth, group)
        self.groups_extracted += 1
        score = float(self._model.decision_function(
            features.vector().reshape(1, -1))[0])
        probability = _probability(score)
        return _GroupVerdict(reason="classified",
                             disposable=probability >= self.config.threshold,
                             score=score, probability=probability,
                             group_size=len(group))

    # -- the per-name oracle ---------------------------------------------

    def classify_one(self, qname: str) -> Verdict:
        """Classify one qname the slow, obvious way.

        No interning, no verdict cache: a fresh ``depth_groups`` walk
        and a 1-row model call per invocation.  This is the oracle the
        batch path is equality-tested against — and the "before" side
        of the serving benchmark.
        """
        self.single_calls += 1
        self.names_classified += 1
        name, zone, depth, terminal = self._resolve(qname)
        if terminal is not None:
            return self._terminal(name, zone, depth, terminal)
        group = self._tree.depth_groups(zone).get(depth)
        if group is None:
            return self._terminal(name, zone, depth, "unknown-group")
        if len(group) < self.config.min_group_size:
            outcome = _GroupVerdict(reason="small-group", disposable=False,
                                    score=0.0, probability=0.0,
                                    group_size=len(group))
        else:
            outcome = self._score_group(zone, depth, group)
        verdict = self._verdict(name, zone, depth, outcome)
        if verdict.disposable:
            self.disposable_verdicts += 1
        return verdict

    # -- the batched fast path ---------------------------------------------

    def classify_batch(self, qnames: Sequence[str]) -> List[Verdict]:
        """Classify a batch of qnames through the vectorised path.

        Repeat qnames are served straight from the verdict memo (one
        dict probe — the cache-warm fast path), the remainder are
        resolved once each (interning), group verdicts come from the
        LRU cache when warm, and all cold qualifying groups are scored
        by a single ``decision_function`` call.  Returns one
        :class:`Verdict` per input qname, in input order, bit-identical
        to :meth:`classify_one` on each.
        """
        self.batch_calls += 1
        self.names_classified += len(qnames)
        memo = self._verdict_memo
        out: List[Optional[Verdict]] = [None] * len(qnames)
        missing: List[int] = []
        disposable = 0
        for index, qname in enumerate(qnames):
            verdict = memo.get(qname)
            if verdict is None:
                missing.append(index)
            else:
                out[index] = verdict
                if verdict.disposable:
                    disposable += 1
        if missing:
            disposable += self._classify_missing(qnames, missing, out)
        self.disposable_verdicts += disposable
        return out  # type: ignore[return-value]  # every slot filled

    def _classify_missing(self, qnames: Sequence[str],
                          missing: List[int],
                          out: List[Optional[Verdict]]) -> int:
        """Slow half of the batch path: classify the positions of
        ``qnames`` the verdict memo could not answer, filling ``out``
        in place.  Returns the number of disposable verdicts served."""
        table = NameTable()
        name_ids = [table.intern(qnames[index]) for index in missing]

        # Resolve each distinct qname once: either a terminal verdict
        # or a (zone, depth) group key.
        resolved: List[Tuple[str, str, int, Optional[str]]] = [
            self._resolve(raw) for raw in table.names]
        # Group keys whose verdict is not cached, in first-appearance
        # order (deterministic extraction order).
        pending: "OrderedDict[GroupKey, Optional[List[str]]]" = OrderedDict()
        cached: Dict[GroupKey, _GroupVerdict] = {}
        for name, zone, depth, terminal in resolved:
            if terminal is not None:
                continue
            key = (zone, depth)
            if key in cached or key in pending:
                continue
            hit = self.cache.get(key)
            if hit is not None:
                cached[key] = hit
            else:
                pending[key] = None

        if pending:
            self._score_pending(pending, cached)

        verdicts_by_id: List[Verdict] = []
        for name, zone, depth, terminal in resolved:
            if terminal is not None:
                verdicts_by_id.append(
                    self._terminal(name, zone, depth, terminal))
            else:
                verdicts_by_id.append(
                    self._verdict(name, zone, depth, cached[(zone, depth)]))
        # Memoise under the *raw* spelling (the memo key future batches
        # probe with); the verdict itself carries the normalized qname.
        memo = self._verdict_memo
        if len(memo) + len(table.names) > self._verdict_memo_limit:
            memo.clear()
        for raw, verdict in zip(table.names, verdicts_by_id):
            memo[raw] = verdict

        disposable = 0
        for position, nid in zip(missing, name_ids):
            verdict = verdicts_by_id[nid]
            out[position] = verdict
            if verdict.disposable:
                disposable += 1
        return disposable

    def _score_pending(self, pending: "OrderedDict[GroupKey, Optional[List[str]]]",
                       cached: Dict[GroupKey, _GroupVerdict]) -> None:
        """Resolve every cold group key: non-qualifying keys get their
        terminal group verdict; qualifying groups are feature-extracted
        columnarly and scored in one stacked model call."""
        groups_by_zone: Dict[str, Dict[int, List[str]]] = {}
        qualifying: List[Tuple[GroupKey, List[str]]] = []
        for key in pending:
            zone, depth = key
            zone_groups = groups_by_zone.get(zone)
            if zone_groups is None:
                zone_groups = self._tree.depth_groups(zone)
                groups_by_zone[zone] = zone_groups
            group = zone_groups.get(depth)
            if group is None:
                outcome = _GroupVerdict(reason="unknown-group",
                                        disposable=False, score=0.0,
                                        probability=0.0, group_size=0)
            elif len(group) < self.config.min_group_size:
                outcome = _GroupVerdict(reason="small-group",
                                        disposable=False, score=0.0,
                                        probability=0.0,
                                        group_size=len(group))
            else:
                qualifying.append((key, group))
                continue
            cached[key] = outcome
            self.cache.put(key, outcome)
        if not qualifying:
            return
        matrix = np.vstack([
            self._extractor.features_for(zone, depth, group).vector()
            for (zone, depth), group in qualifying])
        self.groups_extracted += len(qualifying)
        scores = self._model.decision_function(matrix)
        for ((key, group), raw_score) in zip(qualifying, scores):
            score = float(raw_score)
            probability = _probability(score)
            outcome = _GroupVerdict(
                reason="classified",
                disposable=probability >= self.config.threshold,
                score=score, probability=probability,
                group_size=len(group))
            cached[key] = outcome
            self.cache.put(key, outcome)

    # -- maintenance -------------------------------------------------------

    def clear_caches(self) -> None:
        """Forget every memoised verdict — the engine's cold-start
        state.  Counters are kept.  (Values can never go
        *stale* — the engine is immutable — so this exists for
        benchmarking cold paths and for reclaiming memory, not for
        correctness.)"""
        self.cache.clear()
        self._verdict_memo.clear()

    # -- metrics -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {"single_calls": self.single_calls,
                "batch_calls": self.batch_calls,
                "names_classified": self.names_classified,
                "groups_extracted": self.groups_extracted,
                "disposable_verdicts": self.disposable_verdicts}
