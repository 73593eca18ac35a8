"""Command-line entry point: regenerate any paper artifact.

Usage::

    python -m repro <experiment> [--profile small|medium]
    python -m repro list
    python -m repro cache stats [--dir DIR]
    python -m repro cache prune --max-bytes N [--dir DIR]
    python -m repro serve [--host H] [--port P] [--profile small|medium]

where ``<experiment>`` is one of the ids below (e.g. ``fig13``,
``table1``, ``sec6b``, ``all``).  Output is the same text rendering
the benchmarks print.

``cache`` inspects or LRU-prunes the on-disk artifact cache of
simulated fpDNS days (docs/PERFORMANCE.md §5).  Without ``--dir`` it
operates on the directory named by the ``REPRO_ARTIFACT_CACHE``
environment knob.

``pdns`` operates on segmented on-disk pdns stores
(:mod:`repro.pdns.store`; docs/PERFORMANCE.md §7): ``stats`` prints
segment counts/bytes and prefilter counters, ``compact`` k-way-merges
segments (``--max-rows`` limits merging to small segments), and
``prune`` destructively drops oldest segments to a ``--max-bytes``
budget.  Without ``--dir`` it uses the ``REPRO_PDNS_STORE`` knob.
Both maintenance commands refuse a directory that does not exist
rather than creating an empty one.

``serve`` starts the long-running classification daemon
(:mod:`repro.service`; see docs/PERFORMANCE.md §6): it simulates or
cache-loads the reference day, trains (or loads, with ``--model``)
the LAD tree, and answers ``POST /classify`` / ``GET /metrics`` /
``GET /healthz`` until interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.artifact_store import directory_stats, prune_directory
from repro.experiments.ablations import (run_classifier_comparison,
                                         run_feature_ablation,
                                         run_threshold_sweep)
from repro.experiments.context import (MEDIUM, SMALL, ExperimentContext,
                                       ScaleProfile, get_context)
from repro.experiments.figures import (run_fig02_traffic_volume,
                                       run_fig03_long_tail,
                                       run_fig04_chr_distribution,
                                       run_fig05_new_rrs,
                                       run_fig07_chr_labeled,
                                       run_fig12_roc, run_fig13_growth,
                                       run_fig14_ttl,
                                       run_fig15_pdns_growth)
from repro.experiments.impact_runs import (run_sec6a_cache_pressure,
                                           run_sec6b_dnssec,
                                           run_sec6c_pdns_storage)
from repro.experiments.tables import (run_fig11_summary,
                                      run_table1_lookup_tail,
                                      run_table2_dhr_tail)

__all__ = ["EXPERIMENTS", "main"]

EXPERIMENTS: Dict[str, Callable[[ExperimentContext], object]] = {
    "fig2": run_fig02_traffic_volume,
    "fig3": run_fig03_long_tail,
    "fig4": run_fig04_chr_distribution,
    "fig5": run_fig05_new_rrs,
    "fig7": run_fig07_chr_labeled,
    "fig11": run_fig11_summary,
    "fig12": run_fig12_roc,
    "fig13": run_fig13_growth,
    "fig14": run_fig14_ttl,
    "fig15": run_fig15_pdns_growth,
    "table1": run_table1_lookup_tail,
    "table2": run_table2_dhr_tail,
    "sec6a": run_sec6a_cache_pressure,
    "sec6b": run_sec6b_dnssec,
    "sec6c": run_sec6c_pdns_storage,
    "ablation-classifiers": run_classifier_comparison,
    "ablation-features": run_feature_ablation,
    "ablation-threshold": run_threshold_sweep,
}

_PROFILES: Dict[str, ScaleProfile] = {"small": SMALL, "medium": MEDIUM}

_CACHE_ENV_KNOB = "REPRO_ARTIFACT_CACHE"

_PDNS_ENV_KNOB = "REPRO_PDNS_STORE"


def _maintenance_directories(args: argparse.Namespace,
                             parser: argparse.ArgumentParser,
                             env_knob: str) -> List[Path]:
    """Directories a maintenance subcommand operates on: ``--dir``
    arguments if given, else the one named by ``env_knob``.

    Every directory must already exist: the maintenance commands only
    inspect and shrink, so a mistyped path is an error, never a fresh
    empty store.
    """
    if args.cache_dirs:
        directories = [Path(value) for value in args.cache_dirs]
    else:
        env_value = os.environ.get(env_knob)
        directories = [Path(env_value)] if env_value else []
    if not directories:
        parser.error(f"no directories: pass --dir or set {env_knob}")
    for directory in directories:
        if not directory.is_dir():
            parser.error(f"no such directory: {directory}")
    return directories


def _run_cache(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    action = args.action or "stats"
    if action not in ("stats", "prune"):
        parser.error(f"unknown cache action {action!r}; "
                     "expected 'stats' or 'prune'")
    directories = _maintenance_directories(args, parser, _CACHE_ENV_KNOB)
    if action == "prune":
        if args.max_bytes is None:
            parser.error("cache prune requires --max-bytes")
        for directory in directories:
            removed = prune_directory(directory, args.max_bytes)
            print(f"{directory}: pruned {len(removed)} artifacts")
        return 0
    for directory in directories:
        print(directory_stats(directory).render())
    return 0


def _run_pdns(args: argparse.Namespace,
              parser: argparse.ArgumentParser) -> int:
    """The ``pdns`` subcommand: segmented-store stats/compact/prune."""
    from repro.pdns.store import SegmentedPdnsStore

    action = args.action or "stats"
    if action not in ("stats", "compact", "prune"):
        parser.error(f"unknown pdns action {action!r}; "
                     "expected 'stats', 'compact' or 'prune'")
    directories = _maintenance_directories(args, parser, _PDNS_ENV_KNOB)
    if action == "prune" and args.max_bytes is None:
        parser.error("pdns prune requires --max-bytes")
    for directory in directories:
        store = SegmentedPdnsStore(directory, on_corrupt="skip")
        if action == "compact":
            print(f"{directory}: {store.compact(args.max_rows).render()}")
        elif action == "prune":
            removed = store.prune(args.max_bytes)
            print(f"{directory}: pruned {len(removed)} segments")
        else:
            print(store.stats().render())
        for _, error in store.corrupt_segments():
            print(f"  corrupt segment skipped: {error}")
    return 0


def _run_serve(argv: Sequence[str]) -> int:
    """The ``serve`` subcommand: stand up the classification daemon."""
    from repro.service.app import PROFILES, ServeSettings, build_server

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve online disposable-domain verdicts over HTTP.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8053,
                        help="bind port; 0 picks an ephemeral port "
                             "(default: 8053)")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="small",
                        help="simulation scale for the reference day "
                             "(default: small)")
    parser.add_argument("--model", default=None, metavar="PATH",
                        help="load a persisted LAD-tree model instead of "
                             "training (stump or compiled JSON form)")
    parser.add_argument("--threshold", type=float, default=0.9,
                        help="disposable probability threshold θ "
                             "(default: 0.9)")
    parser.add_argument("--min-group-size", type=int, default=5,
                        help="smallest classifiable depth group "
                             "(default: 5)")
    parser.add_argument("--cache-size", type=int, default=4096,
                        help="verdict-cache capacity in (zone, depth) "
                             "entries (default: 4096)")
    args = parser.parse_args(argv)

    settings = ServeSettings(
        host=args.host, port=args.port, profile=args.profile,
        model_path=args.model, threshold=args.threshold,
        min_group_size=args.min_group_size, cache_size=args.cache_size)
    print(f"preparing engine (profile={settings.profile}, "
          f"model={settings.model_path or 'trained in-process'}) ...")
    server = build_server(settings)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} "
          "(POST /classify, GET /metrics, GET /healthz; Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "serve":
        # ``serve`` takes daemon flags the experiment parser does not
        # know; dispatch before it can reject them.
        return _run_serve(arguments[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        help="experiment id (see 'list'), 'calibrate', "
                             "'cache', 'pdns', 'serve', or 'all'/'list'")
    parser.add_argument("action", nargs="?", default=None,
                        help="cache action ('stats'/'prune') or pdns "
                             "action ('stats'/'compact'/'prune')")
    parser.add_argument("--profile", choices=sorted(_PROFILES),
                        default="small",
                        help="simulation scale (default: small)")
    parser.add_argument("--dir", dest="cache_dirs", action="append",
                        metavar="DIR",
                        help="existing cache/store directory for "
                             "'cache'/'pdns' (repeatable; default: the "
                             "REPRO_ARTIFACT_CACHE / REPRO_PDNS_STORE "
                             "env knobs)")
    parser.add_argument("--max-bytes", type=int, default=None,
                        help="byte budget for 'cache prune'/'pdns prune'")
    parser.add_argument("--max-rows", type=int, default=None,
                        help="only merge segments at most this big "
                             "for 'pdns compact' (default: merge all)")
    args = parser.parse_args(arguments)

    if args.experiment == "cache":
        return _run_cache(args, parser)
    if args.experiment == "pdns":
        return _run_pdns(args, parser)
    if args.action is not None:
        parser.error(f"unexpected argument {args.action!r} "
                     f"for {args.experiment!r}")

    if args.experiment == "calibrate":
        from repro.experiments.validation import validate_calibration
        from repro.traffic.simulate import PAPER_DATES

        context = get_context(_PROFILES[args.profile])
        date = PAPER_DATES[-1]
        scorecard = validate_calibration(context.simulator,
                                         context.digest(date),
                                         context.hit_rates(date))
        print(scorecard.render())
        return 0 if scorecard.all_passed else 1

    if args.experiment == "list":
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  calibrate   (validation scorecard; exit 1 on failure)")
        print("  cache       (artifact-cache stats/prune; "
              "--dir / --max-bytes)")
        print("  pdns        (segmented-store stats/compact/prune; "
              "--dir / --max-rows / --max-bytes)")
        print("  serve       (classification daemon; "
              "--host / --port / --model)")
        return 0

    if args.experiment == "all":
        names = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        names = [args.experiment]
    else:
        parser.error(f"unknown experiment {args.experiment!r}; "
                     "use 'list' to see the catalogue")
        return 2  # pragma: no cover - parser.error raises

    context = get_context(_PROFILES[args.profile])
    for name in names:
        result = EXPERIMENTS[name](context)
        print(result.render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
