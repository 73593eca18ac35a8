"""Host parallelism introspection.

``os.cpu_count()`` reports the *machine's* cores, not the cores this
process may run on: under cgroup CPU masks (CI runners, containers)
the two disagree, and sizing a pool by ``cpu_count`` over-subscribes
the schedulable cores with workers that then fight each other.  Worker
pools (``reprolint --jobs auto``) and benchmark environment records
therefore size themselves through :func:`available_cpu_count`, which
consults the scheduling affinity mask first.
"""

from __future__ import annotations

import os

__all__ = ["available_cpu_count"]


def available_cpu_count() -> int:
    """CPUs this process may actually schedule on.

    ``len(os.sched_getaffinity(0))`` honours cgroup/taskset masks;
    platforms without affinity support (macOS, Windows) fall back to
    ``os.cpu_count()``.  Always at least 1.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)
