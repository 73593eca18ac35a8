"""R007 picklable-workers: multiprocessing entry points must pickle.

Process pools (``reprolint --jobs``, for one) fan work out to worker
processes.  Worker callables cross the process boundary by pickling,
and pickle serialises functions *by qualified name*: a lambda or a
function defined inside another function imports fine in the parent
but raises ``PicklingError`` the first time a pool actually runs —
typically only under a multi-worker configuration that the test
suite's fast paths never exercise.  This rule makes that a static
error instead.

Flagged:

- a ``lambda`` or nested ``def`` passed as the callable of a pool
  dispatch method (``pool.map(lambda ...)``),
- a ``lambda`` or nested ``def`` as the ``target=`` of a ``Process``.

Top-level functions (including imported names) pass: they have a
stable qualified name the child process can re-import.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from tools.reprolint.engine import ModuleContext, Rule, Violation

__all__ = ["PicklableWorkersRule"]

#: Pool methods whose first argument (or ``func=``) runs in a worker.
_POOL_DISPATCH = frozenset({
    "map", "map_async", "imap", "imap_unordered",
    "apply", "apply_async", "starmap", "starmap_async",
})

#: Constructors whose ``target=`` runs in a worker.
_PROCESS_TYPES = frozenset({"Process"})


def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function's body."""
    nested: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if inner is node:
                    continue
                if isinstance(inner, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    nested.add(inner.name)
    return nested


def _worker_argument(call: ast.Call) -> ast.expr:
    """The callable a pool dispatch call would ship to a worker."""
    for keyword in call.keywords:
        if keyword.arg == "func":
            return keyword.value
    if call.args:
        return call.args[0]
    return call.func  # degenerate call; nothing to flag


class PicklableWorkersRule(Rule):
    rule_id = "R007"
    name = "picklable-workers"
    description = ("multiprocessing worker entry points must be top-level "
                   "functions: lambdas and nested defs cannot be pickled "
                   "across the process boundary.")

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        nested = _nested_function_names(ctx.tree)

        def unpicklable(candidate: ast.expr) -> str:
            if isinstance(candidate, ast.Lambda):
                return "a lambda"
            if isinstance(candidate, ast.Name) and candidate.id in nested:
                return f"nested function {candidate.id!r}"
            return ""

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _POOL_DISPATCH):
                reason = unpicklable(_worker_argument(node))
                if reason:
                    yield self.violation(
                        ctx, node,
                        f"{reason} passed to pool.{func.attr}() cannot be "
                        "pickled into a worker process — use a top-level "
                        "function")
            target_name = (func.attr if isinstance(func, ast.Attribute)
                           else func.id if isinstance(func, ast.Name)
                           else "")
            if target_name in _PROCESS_TYPES:
                for keyword in node.keywords:
                    if keyword.arg != "target":
                        continue
                    reason = unpicklable(keyword.value)
                    if reason:
                        yield self.violation(
                            ctx, node,
                            f"{reason} as Process(target=...) cannot be "
                            "pickled into a worker process — use a "
                            "top-level function")
