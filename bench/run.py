"""Run the repo benchmark: every workload end to end, or one traced.

Usage::

    python bench/run.py [--workload W] [--seed S] [--seconds T]
                        [--trace [0|1]] [--runs N] [--quick] [--out FILE]

Each workload runs in fresh subprocesses (``bench/workloads.py``): an
optional ``prepare`` that writes its inputs, then ``measure``, which
repeats the workload's pass for ``--seconds``.  Untraced runs print
every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` prints
every per-layer metric instead, a self-time table, and writes
``bench/out/trace-<workload>.json`` (Chrome trace events).  Outputs are
checked inside the workloads; any failed check, failed operation or
leftover temp file makes the exit code 1.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out`` appends one JSON record per workload run for
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("calendar-cold", "calendar-warm", "serve-replay",
             "pdns-ingest", "pdns-query", "pdns-compact")
NEEDS_PREPARE = ("calendar-warm", "serve-replay")
CHILD_TIMEOUT_S = 170
QUICK_SECONDS = 3


def load_spec() -> Dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def shm_segments() -> set:
    """Shared-memory segments the program's IPC layer may leave."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {path.name for path in shm.glob("repro-*")}


def child(mode: str, workload: str, args: argparse.Namespace,
          seed: int, workdir: Path) -> Optional[Dict[str, Any]]:
    command = [sys.executable, str(BENCH / "workloads.py"), mode,
               "--workload", workload, "--seed", str(seed),
               "--dir", str(workdir), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=REPO)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} {workload} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_workload(workload: str, args: argparse.Namespace,
                 seed: int) -> Dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    shm_before = shm_segments()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        if workload in NEEDS_PREPARE:
            child("prepare", workload, args, seed, workdir)
        result = child("measure", workload, args, seed, workdir)
        if result is None:
            raise RuntimeError(f"measure {workload} printed no result")
        stray = sorted(str(path.relative_to(workdir))
                       for path in workdir.rglob("*")
                       if path.name.endswith((".tmp", ".part")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leaked = sorted(shm_segments() - shm_before)
    failures = list(result["failures"])
    if stray:
        failures.append(f"stray temp files left: {stray}")
    if leaked:
        failures.append(f"shared-memory segments left: {leaked}")
    result["failures"] = failures
    result["failed"] = int(result["failed"]) + bool(stray) + bool(leaked)
    result["correct"] = result["failed"] == 0
    return result


def metrics_of(result: Dict[str, Any], spec: Dict[str, Any],
               trace: bool) -> Dict[str, Dict[str, Any]]:
    """The result's values for every metric ``BENCHMARK.json`` names;
    per-layer metrics of layers a workload never calls read 0."""
    if trace:
        values = result["per_layer"]
        catalogue = spec["per_layer"]
    else:
        values = result["end_to_end"]
        catalogue = spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in catalogue}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
    if not trace:
        missing = {m["name"] for m in catalogue} - set(values)
        if missing:
            raise RuntimeError(f"workload did not measure {sorted(missing)}")
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in catalogue}


def print_result(workload: str, result: Dict[str, Any],
                 metrics: Dict[str, Dict[str, Any]], trace: bool) -> None:
    env = result["env"]
    print(f"== {workload} (seed {env['seed']}, commit "
          f"{str(env['commit'])[:12]}, cpus {env['available_cpu_count']}"
          f"/{env['os_cpu_count']}, constrained {env['constrained']}, "
          f"python {env['python']}, numpy {env['numpy']})")
    print(f"   samples {result['samples']}, attempted {result['attempted']}"
          f", failed {result['failed']}")
    for message in result["failures"]:
        print(f"   FAILED: {message}")
    rows = list(metrics.items())
    if trace:
        # The self-time table first, largest layer on top.
        rows.sort(key=lambda item: -float(item[1]["value"])
                  if item[1]["unit"] == "s" else float("inf"))
        print("   per-layer (times are self time per pass, median):")
    for name, metric in rows:
        print(f"   {name:44s} {float(metric['value']):14.6g} "
              f"{metric['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload run "
                             f"(default run_seconds of BENCHMARK.json, "
                             f"{spec['run_seconds']}; {QUICK_SECONDS} with "
                             f"--quick); compare.py only compares result "
                             f"sets of one run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload with seeds S, S+1, ...")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny inputs, short windows")
    parser.add_argument("--out", type=Path,
                        help="append one JSON record per workload run")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)

    per_workload: Dict[str, List[Dict[str, Dict[str, Any]]]] = {}
    attempted = failed = 0
    for run in range(args.runs):
        for workload in workloads:
            seed = args.seed + run
            try:
                result = run_workload(workload, args, seed)
                metrics = metrics_of(result, spec, trace)
            except (RuntimeError, subprocess.TimeoutExpired,
                    ValueError, KeyError) as exc:
                print(f"{workload}: benchmark error: {exc}", file=sys.stderr)
                return 2
            print_result(workload, result, metrics, trace)
            attempted += int(result["attempted"])
            failed += int(result["failed"])
            per_workload.setdefault(workload, []).append(metrics)
            if args.out is not None:
                record = {key: result[key] for key in
                          ("env", "quick", "attempted", "failed", "correct",
                           "fingerprint", "samples", "failures")}
                record.update(workload=workload, seed=seed, trace=trace,
                              seconds=args.seconds, metrics=metrics)
                with args.out.open("a") as handle:
                    handle.write(json.dumps(record) + "\n")

    summary: Dict[str, Dict[str, Any]] = {}
    for workload, runs in per_workload.items():
        prefix = "" if len(per_workload) == 1 else f"{workload}/"
        for name in runs[0]:
            summary[prefix + name] = {
                "value": statistics.median(
                    float(run[name]["value"]) for run in runs),
                "unit": runs[0][name]["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
