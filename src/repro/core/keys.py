"""Content-hash key derivation for the on-disk caches.

The fpDNS artifact cache (:mod:`repro.traffic.artifacts`) keys each
simulated day by the canonical JSON of the simulator configuration
plus the chronological day history.  The primitive — a SHA-256 over a
canonical byte serialisation — lives here, at the bottom of the
layering DAG, so every layer can derive keys without import cycles.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

__all__ = ["canonical_json_key", "versioned_key"]


def canonical_json_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``.

    Canonical means sorted keys and no whitespace, so logically equal
    payloads always hash identically regardless of construction order.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def versioned_key(format_tag: str, payload: Mapping[str, Any]) -> str:
    """The shared cache-key scheme: canonical JSON of ``payload`` with
    a ``format`` version field folded in.

    Bumping a format tag invalidates exactly that cache's old entries
    and nothing else.
    """
    if "format" in payload:
        raise ValueError("payload must not carry its own 'format' field")
    return canonical_json_key({"format": format_tag, **payload})
