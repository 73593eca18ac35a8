"""Shared benchmark fixtures.

All figure/table benches reuse one MEDIUM-profile experiment context:
the simulated year (the expensive part) is built once per session, and
each bench times the *analysis* that regenerates its figure, after a
warm-up call that populates the context caches.  Rendered paper-style
output is printed (run with ``-s`` to see it inline; it is also what
EXPERIMENTS.md records).

The simulation honours the opt-in ``REPRO_ARTIFACT_CACHE=DIR`` knob
(byte-identical to the default; see docs/PERFORMANCE.md): simulated
days persist in DIR, so a second bench session skips the simulation
entirely.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import MEDIUM, ExperimentContext, get_context


@pytest.fixture(scope="session")
def medium_context() -> ExperimentContext:
    return get_context(MEDIUM)


def run_and_render(benchmark, runner, ctx, *args, **kwargs):
    """Warm the context, benchmark the runner, print its rendering."""
    warm = runner(ctx, *args, **kwargs)   # populates caches
    result = benchmark.pedantic(runner, args=(ctx, *args), kwargs=kwargs,
                                rounds=3, iterations=1)
    print()
    print(result.render())
    return result
