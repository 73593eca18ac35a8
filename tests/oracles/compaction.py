"""The row-dict merge of segmented-store compaction: the byte oracle of
:func:`repro.pdns.segments.merge_segments`.

``SegmentedPdnsStore.compact`` merges its inputs over their columns.
Merging them the straightforward way — decode every row into one
``Dict[RRKey, str]``, keep the first copy of each key, union the day
rosters, write the result with the row writer — must give the same
bytes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.records import RRKey
from repro.pdns.segments import Segment, build_segment_bytes

__all__ = ["compacted_bytes", "merged_rows"]


def merged_rows(segments: Sequence[Segment]
                ) -> Tuple[Dict[RRKey, str], List[str]]:
    """Rows and sorted day roster a dict merge of ``segments`` collects;
    the first occurrence of a key in ``segments`` order wins."""
    rows: Dict[RRKey, str] = {}
    days: Set[str] = set()
    for segment in segments:
        for key, day in segment.rr_items():
            rows.setdefault(key, day)
        days.update(segment.meta.days)
    return rows, sorted(days)


def compacted_bytes(segments: Sequence[Segment]) -> bytes:
    """The segment the row writer makes of the dict merge."""
    rows, days = merged_rows(segments)
    return build_segment_bytes(rows, days=days)
