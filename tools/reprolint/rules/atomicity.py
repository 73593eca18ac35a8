"""R008 atomic-cache-publish: cache writes must publish atomically.

The on-disk stores (:mod:`repro.traffic.artifacts`,
:mod:`repro.pdns.store`) may be shared between concurrent processes —
two sessions pointed at one directory both write to it.  A cache
method that opens the *final* path for writing exposes a torn-read
window: a concurrent reader (or a crashed writer) sees a half-written
blob.  Worse, two writers using the same fixed temp name
(``<key>.tmp``) truncate each other mid-write.  The repo-wide contract
is the one :class:`repro.core.artifact_store.ArtifactStore`
implements: write to a per-process unique temp file
(``tempfile.mkstemp``) and publish with ``os.replace``.

This rule flags file-writing calls inside methods of cache/store
classes (class name containing ``Cache`` or ``Store``) when the class
performs no ``replace``/``rename`` publication anywhere in its body.

Flagged write calls:

- ``open(path, "w"/"wb"/"wt"/"a"...)`` and ``gzip.open``/``bz2.open``/
  ``lzma.open`` with a write or append mode,
- ``path.write_text(...)`` / ``path.write_bytes(...)``,
- ``np.save``/``np.savez``/``np.savez_compressed``,
- ``json.dump``/``pickle.dump`` (writing into an already-open handle
  implies that handle was opened on some path).

A class that calls ``os.replace``/``os.rename`` (or the ``Path``
method equivalents) somewhere in its body is considered to implement
the temp-then-publish pattern and is not flagged — the rule is a
tripwire for caches that skip the pattern entirely, not a dataflow
prover.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from tools.reprolint.engine import ModuleContext, Rule, Violation

__all__ = ["AtomicCachePublishRule"]

#: Class-name substrings identifying persistence classes.
_CACHE_NAME_MARKERS = ("Cache", "Store")

#: ``module.open``-style openers that hit the filesystem.
_OPEN_FUNCTIONS = frozenset({"open"})
_OPEN_MODULES = frozenset({"gzip", "bz2", "lzma", "io"})

#: ``Path`` convenience writers.
_PATH_WRITERS = frozenset({"write_text", "write_bytes"})

#: numpy array persisters.
_NUMPY_WRITERS = frozenset({"save", "savez", "savez_compressed"})
_NUMPY_MODULES = frozenset({"np", "numpy"})

#: serialisers that write into an open handle.
_DUMPERS = frozenset({"dump"})
_DUMPER_MODULES = frozenset({"json", "pickle", "marshal"})

#: Calls whose presence marks the atomic-publish pattern.
_PUBLISH_ATTRS = frozenset({"replace", "rename"})


def _is_write_mode(call: ast.Call) -> bool:
    """True if an ``open``-style call's mode literal writes or appends."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in ("w", "a", "x", "+"))
    return False


def _module_of(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return ""


def _write_call_reason(call: ast.Call) -> str:
    """Why this call writes a file directly, or '' if it doesn't."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in _OPEN_FUNCTIONS:
        if _is_write_mode(call):
            return "open(..., 'w')"
        return ""
    if isinstance(func, ast.Attribute):
        module = _module_of(func)
        if func.attr in _OPEN_FUNCTIONS and module in _OPEN_MODULES:
            if _is_write_mode(call):
                return f"{module}.open(..., 'w')"
            return ""
        if func.attr in _PATH_WRITERS:
            return f".{func.attr}()"
        if func.attr in _NUMPY_WRITERS and module in _NUMPY_MODULES:
            return f"{module}.{func.attr}()"
        if func.attr in _DUMPERS and module in _DUMPER_MODULES:
            return f"{module}.{func.attr}()"
    return ""


def _publishes_atomically(class_node: ast.ClassDef) -> bool:
    """True if the class body contains a replace/rename publication."""
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _PUBLISH_ATTRS:
            return True
    return False


class AtomicCachePublishRule(Rule):
    rule_id = "R008"
    name = "atomic-cache-publish"
    description = ("cache/store classes must publish blobs atomically: "
                   "write to a per-process unique temp file and "
                   "os.replace() it into place, never open the final "
                   "path for writing.")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        classes: List[ast.ClassDef] = [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
            and any(marker in node.name for marker in _CACHE_NAME_MARKERS)]
        for class_node in classes:
            if _publishes_atomically(class_node):
                continue
            for node in ast.walk(class_node):
                if not isinstance(node, ast.Call):
                    continue
                reason = _write_call_reason(node)
                if reason:
                    yield self.violation(
                        ctx, node,
                        f"{class_node.name} writes via {reason} without an "
                        "os.replace() publish — write to a mkstemp() temp "
                        "file and os.replace() it into place (see "
                        "repro.core.artifact_store.ArtifactStore)")
