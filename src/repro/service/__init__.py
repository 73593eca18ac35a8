"""Online serving layer: the high-QPS ``repro serve`` daemon.

Everything below is the *service surface* of the reproduction — the
one subpackage allowed to sit above every library layer (rule R003)
and the package library code must never import back (rule R017):

* :mod:`repro.service.engine` — the batched, vectorised
  :class:`~repro.service.engine.ClassificationEngine` with its
  (zone, depth)-keyed verdict LRU.
* :mod:`repro.service.http` — the stdlib HTTP/JSON API
  (``/classify``, ``/metrics``, ``/healthz``); each request is one
  engine call on its own handler thread.
* :mod:`repro.service.app` — wiring from experiment artifacts
  (simulated day + trained model) to a running daemon.
"""

from repro.service.engine import (ClassificationEngine, EngineConfig,
                                  Verdict, VerdictCache)
from repro.service.http import ClassifyServer, make_server

__all__ = [
    "ClassificationEngine", "EngineConfig", "Verdict", "VerdictCache",
    "ClassifyServer", "make_server",
]
