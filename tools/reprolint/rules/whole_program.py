"""Whole-program rules R011 and R012.

Unlike R001–R010, these cannot be decided one file at a time: a worker
entry point may live in one package while the global it mutates sits
three calls away in ``core``, and a cache key may be
derived in ``core.keys`` from a value produced by a tainted helper in
another package.  Both rules therefore run over
:class:`~tools.reprolint.callgraph.ProgramFacts` — the module import
graph, the conservative call graph, and the per-def facts — after
every file's local analysis completes.

Violations are reported in ``repro.*``/``tools.*`` modules only; test
modules participate in the graphs (their dispatches make functions
worker-reachable) but are not themselves lint targets.
"""

from __future__ import annotations

from typing import Iterator, List

from tools.reprolint.callgraph import ProgramFacts
from tools.reprolint.engine import Violation

__all__ = ["ALL_PROGRAM_RULES", "ProgramRule",
           "TaintedCacheKeyRule", "WorkerSharedStateMutationRule"]


def _in_scope(module: str) -> bool:
    for prefix in ("repro", "tools"):
        if module == prefix or module.startswith(prefix + "."):
            return True
    return False


class ProgramRule:
    """Base class for rules that see the whole program at once."""

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def check(self, program: ProgramFacts) -> Iterator[Violation]:
        raise NotImplementedError


class WorkerSharedStateMutationRule(ProgramRule):
    rule_id = "R011"
    name = "worker-shared-state-mutation"
    description = ("functions reachable from a multiprocessing worker "
                   "entry point must not mutate module-level state: each "
                   "worker mutates its own copy, so results silently "
                   "depend on the work partition and worker count.")

    def check(self, program: ProgramFacts) -> Iterator[Violation]:
        graph = program.call_graph
        reachable = graph.reachable_from(program.worker_entry_points())
        for qualname in sorted(reachable):
            def_facts = graph.defs[qualname]
            module = program.module_of_def(qualname)
            if module is None or not _in_scope(module):
                continue
            for line, col, name, how in def_facts.global_writes:
                yield Violation(
                    rule_id=self.rule_id,
                    path=graph.def_paths[qualname], line=line, col=col,
                    message=(f"`{qualname}` runs inside worker processes "
                             f"(reachable from a pool/Process dispatch) "
                             f"but writes module-level `{name}` via "
                             f"{how} — each worker mutates a private "
                             f"copy, so the result depends on the work "
                             f"partition; pass state in and return it "
                             f"out instead"))


class TaintedCacheKeyRule(ProgramRule):
    rule_id = "R012"
    name = "tainted-cache-key"
    description = ("values derived from nondeterminism sources (wall "
                   "clock, global RNG, unsorted listings, hash()) must "
                   "never reach a cache key, an artifact payload, or a "
                   "parallel dispatch boundary — keys must be pure "
                   "content hashes.")

    def check(self, program: ProgramFacts) -> Iterator[Violation]:
        graph = program.call_graph
        tainted = graph.taint_map()
        for qualname in sorted(graph.defs):
            def_facts = graph.defs[qualname]
            module = program.module_of_def(qualname)
            if module is None or not _in_scope(module):
                continue
            for sink in def_facts.sink_calls:
                reasons: List[str] = [
                    f"nondeterminism source `{source}()`"
                    for source in sink.direct_sources]
                for target in sink.arg_calls:
                    if target in tainted:
                        reasons.append(
                            f"call to `{target}`, tainted by "
                            f"{tainted[target]}")
                if not reasons:
                    continue
                yield Violation(
                    rule_id=self.rule_id,
                    path=graph.def_paths[qualname],
                    line=sink.line, col=sink.col,
                    message=(f"argument of sink `{sink.sink}(...)` is "
                             f"tainted: {'; '.join(sorted(reasons))} — "
                             f"cache keys and artifact payloads must be "
                             f"pure functions of input content"))


ALL_PROGRAM_RULES: List[ProgramRule] = [
    WorkerSharedStateMutationRule(),
    TaintedCacheKeyRule(),
]
