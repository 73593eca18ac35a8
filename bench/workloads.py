"""The benchmark's four workloads, each run in fresh subprocesses.

``bench/run.py`` spawns this file twice per workload at most::

    python bench/workloads.py prepare --workload W --seed S --dir D [--quick]
    python bench/workloads.py measure --workload W --seed S --dir D \
        --seconds T --trace 0|1 [--quick]

``prepare`` writes the inputs a workload reads (the warm calendar's
artifacts, the serve model and digest) so their cost stays out of the
measured process's memory peak.  ``measure`` repeats the workload's
pass until ``--seconds`` have elapsed (serve-replay sizes its traffic
phases from it instead) and prints one JSON object as the
last line of stdout: end-to-end values, per-layer values when traced,
op counts and failures, the output fingerprint and an environment block.

Set-up is timed apart as ``setup_s`` (before every calendar and pdns
pass; five server start-ups for serve).  A pass times only calls into
the program, and the spans named here are the layer names of the
per-layer metrics.  With ``--trace 1`` passes alternate traced and
untraced, so the untraced ones give the tracing overhead.

The three pdns workloads share one store pass: ``pdns-ingest`` times
its writes, ``pdns-query`` its reads and ``pdns-compact`` its
compaction plus the reads of the compacted store; the phases before the
timed one are that workload's set-up.  Each phase is its own workload so
that a change that speeds one phase and slows another cannot cancel out
in one ``run_s``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import hashlib
import http.client
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

from repro.analysis import (build_daily_report_from_digest,  # noqa: E402
                            chr_split_from_digest,
                            clients_per_name_from_digest,
                            day_summary_from_digest,
                            hourly_volumes_from_digest)
from repro.core.classifier import LadTreeClassifier  # noqa: E402
from repro.core.classifier.compiled import compile_lad_tree  # noqa: E402
from repro.core.classifier.persistence import (  # noqa: E402
    load_compiled_lad_tree, save_compiled_lad_tree)
from repro.core.features import FeatureExtractor  # noqa: E402
from repro.core.hitrate import hit_rates_from_digest  # noqa: E402
from repro.core.interning import (DayDigest, build_day_digest,  # noqa: E402
                                  digest_of)
from repro.core.labeling import build_training_set  # noqa: E402
from repro.core.miner import MinerConfig  # noqa: E402
from repro.core.parallelism import available_cpu_count  # noqa: E402
from repro.core.ranking import (DisposableZoneRanker,  # noqa: E402
                                build_tree_from_digest)
from repro.core.records import RpDnsEntry, RRKey  # noqa: E402
from repro.dns.message import RRType  # noqa: E402
from repro.experiments.context import (SMALL, TRAINING_DATE,  # noqa: E402
                                       ScaleProfile)
from repro.pdns.columnar import load_fpdns2, save_fpdns2  # noqa: E402
from repro.pdns.store import SegmentedPdnsStore  # noqa: E402
from repro.service.engine import ClassificationEngine  # noqa: E402
from repro.traffic.artifacts import FpDnsArtifactCache, artifact_key  # noqa
from repro.traffic.simulate import (PAPER_DATES,  # noqa: E402
                                    MeasurementDate, SimulatorConfig,
                                    TraceSimulator)

from spans import (Span, Tracer, descendants,  # noqa: E402
                   self_time_by_name, write_chrome_trace)

PDNS_WORKLOADS = ("pdns-ingest", "pdns-query", "pdns-compact")
WORKLOADS = ("calendar-cold", "calendar-warm", "serve-replay",
             *PDNS_WORKLOADS)

#: The serving day (yesterday's tree) and the replayed day (today's
#: traffic) of serve-replay.
SERVE_DATE = PAPER_DATES[3]     # 2011-11-14
REPLAY_DATE = PAPER_DATES[4]    # 2011-11-29

#: Latency limit of the serve rate ladder and the share that must meet it.
LADDER_LIMIT_S = 0.100
LADDER_SHARE = 0.98

#: Server start-ups timed per serve run (``setup_s`` is their median).
SERVER_STARTS = 5

#: Qnames per classify request.
NAMES_PER_REQUEST = 8

#: Open-loop rate of serve-replay.  Between about 26 and 45 req/s each
#: keep-alive connection is bistable (a Nagle / delayed-ACK stall either
#: persists or never starts), so the median would flip between ~4 ms
#: and ~45 ms from run to run; at 20 req/s only the fast state is stable.
SERVE_RATE = 20.0
LADDER = (20.0, 40.0, 80.0, 160.0, 320.0)

#: Shares of ``--seconds`` the serve open loop and the whole ladder
#: take; the closed loop is a fixed number of passes instead, so the
#: traffic a run sends does not depend on how fast the server is.
OPEN_RUN_SHARE = 0.4
LADDER_RUN_SHARE = 0.2

#: Names under the pdns burst zone, which appears every 9th day.
PDNS_BURST = 60

#: Span names that are the benchmark's own glue (their self time is
#: the residual no layer accounts for).
BENCH_SPANS = ("bench.pass", "bench.day", "bench.phase")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark mode."""

    profile: ScaleProfile
    calendar: Tuple[MeasurementDate, ...]   # chronological, has training
    pdns_days: int
    pdns_fresh: int
    pdns_stable: int
    #: first_seen, entries_for_name, entries_for_rdata, names_under_zone,
    #: post-compaction first_seen probes per pass.
    pdns_queries: Tuple[int, int, int, int, int]
    pass_requests: int
    closed_passes: int
    oracle_sample: int


def _chronological(dates: Sequence[MeasurementDate]
                   ) -> Tuple[MeasurementDate, ...]:
    return tuple(sorted(dates, key=lambda date: date.day_index))


#: The calendar is the paper's, cut from the end down to the training
#: day so that several passes fit in one run.
FULL = Sizes(profile=SMALL,
             calendar=_chronological([*PAPER_DATES[:3], TRAINING_DATE]),
             pdns_days=10, pdns_fresh=3_000, pdns_stable=500,
             pdns_queries=(2_000, 200, 50, 50, 500), pass_requests=32,
             closed_passes=8, oracle_sample=2_000)

QUICK = replace(FULL, profile=replace(SMALL, name="small-quick",
                                      events_per_day=4_000),
                calendar=_chronological([PAPER_DATES[0], TRAINING_DATE]),
                pdns_days=5, pdns_fresh=600, pdns_stable=40,
                pdns_queries=(200, 20, 5, 5, 50), pass_requests=8,
                closed_passes=4, oracle_sample=300)


def simulator_config(sizes: Sizes, seed: int) -> SimulatorConfig:
    config = sizes.profile.simulator_config()
    return replace(config, workload=replace(config.workload, seed=seed))


# ---------------------------------------------------------------- results

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Recorder:
    """Per-run accumulators shared by every workload."""

    def __init__(self, trace: bool) -> None:
        self.tracer = Tracer(trace)
        self.setup_s: List[float] = []
        #: (traced, seconds) of every pass, in order.
        self.passes: List[Tuple[bool, float]] = []
        #: Op latencies, one list per untraced pass (or phase).
        self.pass_ops: List[List[float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.fingerprints: List[str] = []
        self.disk_bytes = 0
        self.layers: List[Dict[str, float]] = []   # one per traced pass
        self.extra_layers: Dict[str, float] = {}
        #: Set when the measured process is not this one (the server).
        self.peak_rss_kb: Optional[int] = None
        self.remote_spans: Dict[int, List[Span]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """A correctness check: counted as one op, failed if false."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def traced_pass(self, index: int) -> bool:
        """Passes alternate traced / untraced when tracing is on."""
        return self.tracer.enabled and index % 2 == 0

    @property
    def run_s(self) -> List[float]:
        return [seconds for traced, seconds in self.passes if not traced]

    def trace_overhead(self) -> float:
        """Median over adjacent (traced, untraced) pass pairs of
        traced / untraced - 1; pairing cancels slow drift."""
        ratios = [traced_s / plain_s - 1.0
                  for (traced, traced_s), (plain, plain_s)
                  in zip(self.passes, self.passes[1:])
                  if traced and not plain]
        return median(ratios)

    def finish_pass(self, traced: bool, run_s: float, ops_s: List[float],
                    root: Optional[Span], counters: Dict[str, float]
                    ) -> None:
        self.passes.append((traced, run_s))
        if traced:
            assert root is not None
            self.layers.append({**layer_seconds(self.tracer.spans(), root),
                                **counters})
        elif ops_s:
            self.pass_ops.append(ops_s)


def layer_seconds(spans: List[Span], root: Span) -> Dict[str, float]:
    """``<layer>_s`` self seconds under ``root``; bench glue goes to
    ``residual_s``."""
    out: Dict[str, float] = {"residual_s": 0.0}
    for name, seconds in self_time_by_name(descendants(spans, root)).items():
        if name in BENCH_SPANS:
            out["residual_s"] += seconds
        else:
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + seconds
    return out


def time_boxed(seconds: float, min_passes: int,
               run_pass: Callable[[int], None]) -> None:
    """Run passes until ``seconds`` have elapsed (at least
    ``min_passes``).  A full collection between passes (untimed) starts
    each pass from the same heap; the collector stays enabled inside
    them."""
    start = time.perf_counter()
    index = 0
    while index < min_passes or time.perf_counter() - start < seconds:
        run_pass(index)
        gc.collect()
        index += 1


def canonical(value: object) -> object:
    """JSON-able, order-independent form of an analysis output; floats
    keep every bit (``repr``)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__,
                [[field.name, canonical(getattr(value, field.name))]
                 for field in dataclasses.fields(value)]]
    if isinstance(value, np.ndarray):
        return [str(value.dtype), canonical(value.tolist())]
    if isinstance(value, np.generic):
        return canonical(value.item())
    if isinstance(value, dict):
        items = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(items, key=json.dumps)
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def fingerprint(value: object) -> str:
    blob = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def directory_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


# ------------------------------------------------------------ calendars

def train(tracer: Tracer, digest: DayDigest,
          simulator: TraceSimulator) -> LadTreeClassifier:
    """The LAD tree on the training day, as the experiments train it."""
    with tracer.span("core.classifier.train"):
        with tracer.span("core.hitrate.compute"):
            hit_rates = hit_rates_from_digest(digest)
        tree = build_tree_from_digest(digest)
        training = build_training_set(simulator.labeled_zones(), tree,
                                      FeatureExtractor(tree, hit_rates))
        return LadTreeClassifier().fit(training.X, training.y)


def analyse_day(tracer: Tracer, digest: DayDigest,
                classifier: LadTreeClassifier,
                store: SegmentedPdnsStore) -> Dict[str, Any]:
    """Mine one paper day, run the five digest analyses, ingest it."""
    with tracer.span("core.hitrate.compute"):
        hit_rates = hit_rates_from_digest(digest)
    with tracer.span("core.ranking.mine"):
        mining = DisposableZoneRanker(
            classifier, MinerConfig(threshold=0.9)).run_digest(digest,
                                                               hit_rates)
    groups = mining.groups
    with tracer.span("analysis.build_daily_report"):
        report = build_daily_report_from_digest(digest, hit_rates, groups)
    with tracer.span("analysis.hourly_volumes"):
        hourly = hourly_volumes_from_digest(digest)
    with tracer.span("analysis.day_summary"):
        summary = day_summary_from_digest(digest)
    with tracer.span("analysis.clients_per_name"):
        clients = clients_per_name_from_digest(digest, groups)
    with tracer.span("analysis.chr_split"):
        chr_split = chr_split_from_digest(digest, groups, hit_rates)
    with tracer.span("pdns.store.ingest"):
        ingest = store.ingest_digest(digest)
    return {"mining": mining, "report": report, "hourly": hourly,
            "summary": summary, "clients": clients, "chr": chr_split,
            "ingest": ingest}


def calendar_pass(sizes: Sizes, seed: int, rec: Recorder, artifacts: Path,
                  store_root: Path, cold: bool, traced: bool
                  ) -> Tuple[str, int]:
    """One pass over the calendar, cold (simulate) or warm (load);
    returns (output fingerprint, bytes left on disk)."""
    tracer = rec.tracer if traced else Tracer(False)
    setup_start = time.perf_counter()
    simulator = TraceSimulator(simulator_config(sizes, seed))
    cache = FpDnsArtifactCache(artifacts, "columnar")
    store = SegmentedPdnsStore(store_root)
    rec.setup_s.append(time.perf_counter() - setup_start)

    calendar = sizes.calendar
    day_s: Dict[str, float] = {}
    digests: Dict[str, DayDigest] = {}
    outputs: List[Tuple[str, Dict[str, Any]]] = []
    start = time.perf_counter()
    with tracer.span("bench.pass") as root:
        for index, date in enumerate(calendar):
            day_start = time.perf_counter()
            with tracer.span("bench.day"):
                key = artifact_key(simulator.config, calendar[:index + 1])
                if cold:
                    with tracer.span("traffic.simulate"):
                        dataset = simulator.run_day(date)
                    with tracer.span("core.interning.digest"):
                        digest = build_day_digest(dataset)
                    with tracer.span("traffic.artifacts.store"):
                        cache.store(key, dataset, digest=digest)
                else:
                    with tracer.span("traffic.artifacts.load"):
                        loaded = cache.load(key)
                        if loaded is None:
                            raise RuntimeError(
                                f"warm artifact missing for {date.label}")
                    with tracer.span("core.interning.digest"):
                        digest = digest_of(loaded)
            digests[date.label] = digest
            day_s[date.label] = time.perf_counter() - day_start
        day_start = time.perf_counter()
        with tracer.span("bench.day"):
            classifier = train(tracer, digests[TRAINING_DATE.label],
                               simulator)
        day_s[TRAINING_DATE.label] += time.perf_counter() - day_start
        for date in calendar:
            if date.label == TRAINING_DATE.label:
                continue
            day_start = time.perf_counter()
            with tracer.span("bench.day"):
                outputs.append((date.label, analyse_day(
                    tracer, digests[date.label], classifier, store)))
            day_s[date.label] += time.perf_counter() - day_start
    run_s = time.perf_counter() - start

    counters: Dict[str, float] = {
        "core.interning.names": float(sum(
            len(d.names.names) for d in digests.values())),
        "core.ranking.groups": float(sum(
            len(out["mining"].findings)
            for _, out in outputs)),
        "pdns.store.ingest_rows": float(sum(
            out["ingest"].total_records_seen
            for _, out in outputs)),
        "traffic.artifacts.bytes": float(directory_bytes(artifacts)),
        "traffic.artifacts.hits": float(cache.hits),
        "traffic.artifacts.misses": float(cache.misses),
    }
    if cold:
        dns = simulator.cluster.total_stats()
        lookups = dns["hits"] + dns["misses"]
        counters.update({
            "traffic.events": float(dns["answered_queries"]),
            "traffic.entries": float(sum(
                len(d.below) + len(d.above) for d in digests.values())),
            "dns.cache_hit_ratio": dns["hits"] / max(lookups, 1),
            "dns.upstream_queries": float(dns["upstream_queries"]),
        })
    rec.attempted += len(day_s)
    rec.finish_pass(traced, run_s, list(day_s.values()), root, counters)

    # -- checks (untimed) ------------------------------------------
    expected = set()
    for label, _ in outputs:
        expected.update(digests[label].distinct_rr_keys_ordered())
    ledger = store.new_records_per_day()
    rec.check(len(store) == len(expected) == sum(ledger.values()),
              f"pdns store holds {len(store)} rows, ledger "
              f"{sum(ledger.values())}, expected {len(expected)}")
    rec.check(sorted(ledger) == sorted(label for label, _ in outputs),
              f"pdns ledger days {sorted(ledger)}")
    rec.check(all(out["mining"].findings
                  for _, out in outputs),
              "a paper day mined no disposable zone")
    outputs_only = [(label, {name: value for name, value in out.items()
                             if name != "ingest"})
                    for label, out in outputs]
    disk = directory_bytes(artifacts) + store.storage_bytes()
    store.release()
    return fingerprint([outputs_only, sorted(ledger.items())]), disk


def measure_calendar(args: argparse.Namespace, sizes: Sizes,
                     rec: Recorder, cold: bool) -> None:
    workdir = Path(args.dir)
    reference: Optional[str] = None
    if not cold:
        reference = json.loads((workdir / "reference.json").read_text())[
            "fingerprint"]

    def one_pass(index: int) -> None:
        pass_dir = workdir / f"pass-{index}"
        artifacts = pass_dir / "artifacts" if cold else workdir / "artifacts"
        try:
            result, disk = calendar_pass(
                sizes, args.seed, rec, artifacts, pass_dir / "pdns", cold,
                rec.traced_pass(index))
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        rec.fingerprints.append(result)
        rec.disk_bytes = disk

    time_boxed(args.seconds, 2 if rec.tracer.enabled else 1, one_pass)
    rec.check(len(set(rec.fingerprints)) == 1,
              "calendar outputs differ between passes of one seed")
    if reference is not None:
        rec.check(rec.fingerprints[0] == reference,
                  "warm outputs differ from the cold run's")


def prepare_calendar_warm(args: argparse.Namespace, sizes: Sizes) -> None:
    """Simulate the calendar once (writing its artifacts) and record the
    cold outputs' fingerprint for the warm passes to match."""
    workdir = Path(args.dir)
    rec = Recorder(False)
    result, _ = calendar_pass(sizes, args.seed, rec, workdir / "artifacts",
                              workdir / "prepare-pdns", True, False)
    shutil.rmtree(workdir / "prepare-pdns", ignore_errors=True)
    if rec.failed:
        raise RuntimeError(f"cold reference run failed: {rec.failures}")
    (workdir / "reference.json").write_text(
        json.dumps({"fingerprint": result}))


# ------------------------------------------------------- pdns workloads

DISPOSABLE_ZONES = tuple(f"metric.cdn-{k}.example.com" for k in range(7))
STABLE_ZONE = "www.example.net"
BURST_ZONE = "burst.example.org"
ABSENT_ZONES = ("absent.example", "nothing.example.com")


def day_label(index: int) -> str:
    return f"2011-{3 + index // 28:02d}-{1 + index % 28:02d}"


@dataclass
class PdnsInputs:
    """Seeded RR stream plus the ground truth it implies."""

    days: List[List[RRKey]]
    first_seen: Dict[RRKey, str]
    by_name: Dict[str, List[RRKey]]
    by_rdata: Dict[str, List[RRKey]]
    by_zone: Dict[str, set]


def pdns_inputs(sizes: Sizes, seed: int) -> PdnsInputs:
    """One-time names under a few disposable zones, a stable core that
    repeats every day, and a burst zone every 9th day."""
    rng = random.Random(seed)
    days: List[List[RRKey]] = []
    first_seen: Dict[RRKey, str] = {}
    by_name: Dict[str, List[RRKey]] = {}
    by_rdata: Dict[str, List[RRKey]] = {}
    by_zone: Dict[str, set] = {}
    for index in range(sizes.pdns_days):
        keys: List[RRKey] = []
        for i in range(sizes.pdns_fresh):
            zone = DISPOSABLE_ZONES[rng.randrange(len(DISPOSABLE_ZONES))]
            name = f"u{index:03d}x{i:05d}{rng.getrandbits(32):08x}.{zone}"
            rdata = (f"10.{rng.randrange(200)}.{rng.randrange(250)}."
                     f"{index % 200 + 1}")
            keys.append((name, RRType.A, rdata))
        keys.extend((f"stable{i:04d}.{STABLE_ZONE}", RRType.A,
                     f"192.0.2.{i % 200 + 1}")
                    for i in range(sizes.pdns_stable))
        if index % 9 == 0:
            keys.extend((f"b{index:03d}x{i:03d}.{BURST_ZONE}", RRType.A,
                         f"198.51.100.{rng.randrange(1, 255)}")
                        for i in range(PDNS_BURST))
        label = day_label(index)
        for key in keys:
            if key in first_seen:
                continue
            first_seen[key] = label
            name, _, rdata = key
            by_name.setdefault(name, []).append(key)
            by_rdata.setdefault(rdata, []).append(key)
            zone = name.split(".", 1)[1]
            by_zone.setdefault(zone, set()).add(name)
        days.append(keys)
    return PdnsInputs(days, first_seen, by_name, by_rdata, by_zone)


def _entries(inputs: PdnsInputs, keys: List[RRKey]) -> List[Tuple]:
    return sorted((name, qtype.value, rdata, inputs.first_seen[key])
                  for key in keys for name, qtype, rdata in [key])


def _rows(entries: List[RpDnsEntry]) -> List[Tuple]:
    return sorted((e.qname, e.qtype.value, e.rdata, e.first_seen)
                  for e in entries)


def pdns_queries(sizes: Sizes, inputs: PdnsInputs, seed: int
                 ) -> Dict[str, list]:
    """The seeded probe lists of one pass."""
    rng = random.Random(seed + 1)
    n_first, n_name, n_rdata, n_zone, n_post = sizes.pdns_queries
    one_day = [key for key in inputs.first_seen
               if not key[0].startswith("stable")]
    stable = [key for key in inputs.first_seen
              if key[0].startswith("stable")]
    absent: List[RRKey] = [(f"never{i:05d}.{DISPOSABLE_ZONES[i % 7]}",
                            RRType.A, "10.255.255.255")
                           for i in range(n_first)]
    probes = (rng.sample(one_day, n_first // 2)
              + [rng.choice(stable) for _ in range(n_first // 4)]
              + absent[:n_first - n_first // 2 - n_first // 4])
    rng.shuffle(probes)
    names = [key[0] for key in rng.sample(one_day, n_name)]
    rdatas = [key[2] for key in rng.sample(one_day, n_rdata)]
    # Every zone equally often (a heavy disposable-zone scan costs ~50x
    # an absent zone), so the seed changes the order, not the work.
    zone_pool = [*DISPOSABLE_ZONES, STABLE_ZONE, BURST_ZONE, *ABSENT_ZONES]
    zones = [zone_pool[i % len(zone_pool)] for i in range(n_zone)]
    rng.shuffle(zones)
    post = rng.sample(probes, n_post)
    reads = ([("first_seen", key) for key in probes]
             + [("name", name) for name in names]
             + [("rdata", rdata) for rdata in rdatas]
             + [("zone", zone) for zone in zones])
    return {"reads": reads, "post": [("first_seen", key) for key in post]}


#: Store method answering each kind of pdns read.
PDNS_READS = {"first_seen": "first_seen", "name": "entries_for_name",
              "rdata": "entries_for_rdata", "zone": "names_under_zone"}


def expected_answer(inputs: PdnsInputs, kind: str, arg: Any) -> Any:
    """The generator's ground truth for one read."""
    if kind == "first_seen":
        return inputs.first_seen.get(arg)
    if kind == "name":
        return _entries(inputs, inputs.by_name.get(arg, []))
    if kind == "rdata":
        return _entries(inputs, inputs.by_rdata.get(arg, []))
    return inputs.by_zone.get(arg, set())


def measure_pdns(args: argparse.Namespace, sizes: Sizes,
                 rec: Recorder) -> None:
    """One phase of a store's life per workload (see the module doc);
    the inputs are generated once, before any timing."""
    workdir = Path(args.dir)
    phase = args.workload
    inputs = pdns_inputs(sizes, args.seed)
    probes = pdns_queries(sizes, inputs, args.seed)
    truth = dict(Counter(inputs.first_seen.values()))

    def ingest(store: SegmentedPdnsStore, tracer: Tracer,
               ops_s: List[float]) -> None:
        for index, keys in enumerate(inputs.days):
            op_start = time.perf_counter()
            with tracer.span("pdns.store.ingest"):
                store.ingest_rrs(day_label(index), keys)
            ops_s.append(time.perf_counter() - op_start)

    def one_pass(index: int) -> None:
        traced = rec.traced_pass(index)
        tracer = rec.tracer if traced else Tracer(False)
        root_dir = workdir / f"pass-{index}"
        setup_start = time.perf_counter()
        store = SegmentedPdnsStore(root_dir)
        try:
            if phase != "pdns-ingest":
                ingest(store, Tracer(False), [])
            rec.setup_s.append(time.perf_counter() - setup_start)
            run_pass(traced, tracer, store)
        finally:
            store.release()
            shutil.rmtree(root_dir, ignore_errors=True)

    def run_pass(traced: bool, tracer: Tracer,
                 store: SegmentedPdnsStore) -> None:
        answers: List[Tuple[str, Any, Any]] = []
        ops_s: List[float] = []

        def read(kind: str, arg: Any) -> None:
            call = getattr(store, PDNS_READS[kind])
            op_start = time.perf_counter()
            with tracer.span("pdns.store.query"):
                answer = call(arg)
            ops_s.append(time.perf_counter() - op_start)
            answers.append((kind, arg, answer))

        counters: Dict[str, float] = {}
        if phase == "pdns-compact":
            counters["pdns.store.bytes_before_compact"] = float(
                store.storage_bytes())
        store.reset_counters()
        start = time.perf_counter()
        with tracer.span("bench.pass") as root:
            if phase == "pdns-ingest":
                ingest(store, tracer, ops_s)
            elif phase == "pdns-query":
                for kind, arg in probes["reads"]:
                    read(kind, arg)
            else:
                with tracer.span("pdns.store.compact"):
                    store.compact()
                for kind, arg in probes["post"]:
                    read(kind, arg)
        run_s = time.perf_counter() - start

        stats = store.stats()
        if phase == "pdns-ingest":
            counters["pdns.store.ingest_rows"] = float(
                sum(len(keys) for keys in inputs.days))
        else:
            probed = stats.segments_opened + stats.segments_skipped
            counters.update({
                "pdns.store.segments_opened": float(stats.segments_opened),
                "pdns.store.segments_skipped": float(stats.segments_skipped),
                "pdns.store.prefilter_skip_ratio":
                    stats.segments_skipped / max(probed, 1),
            })
        rec.attempted += (len(inputs.days) if phase == "pdns-ingest"
                          else len(answers) + (phase == "pdns-compact"))
        rec.finish_pass(traced, run_s, ops_s, root, counters)
        rec.disk_bytes = store.storage_bytes()

        # -- checks against the generator's ground truth (untimed) ------
        for kind, arg, answer in answers:
            expected = expected_answer(inputs, kind, arg)
            if kind in ("name", "rdata"):
                answer = _rows(answer)
            if answer != expected:
                rec.fail(f"{kind}({arg!r}) answered {answer!r:.80}, "
                         f"expected {expected!r:.80}")
        rec.check(store.new_records_per_day() == truth,
                  "first-seen ledger differs from the generator's")
        rec.check(len(store) == len(inputs.first_seen),
                  f"store holds {len(store)} rows, generator "
                  f"{len(inputs.first_seen)}")

    time_boxed(args.seconds, 2 if rec.tracer.enabled else 1, one_pass)


# ----------------------------------------------------------- serve-replay

def prepare_serve(args: argparse.Namespace, sizes: Sizes) -> None:
    """Yesterday's model and tree for the server, today's qnames for the
    client: simulate the calendar through the replay day, train on the
    training day, persist the model and the serving day's digest."""
    workdir = Path(args.dir)
    simulator = TraceSimulator(simulator_config(sizes, args.seed))
    dates = [date for date in _chronological([*PAPER_DATES, TRAINING_DATE])
             if date.day_index <= REPLAY_DATE.day_index]
    quiet = Tracer(False)
    for date in dates:
        dataset = simulator.run_day(date)
        if date.label == TRAINING_DATE.label:
            classifier = train(quiet, build_day_digest(dataset), simulator)
        elif date.label == SERVE_DATE.label:
            save_fpdns2(dataset, workdir / "serve.fpdns2")
        elif date.label == REPLAY_DATE.label:
            digest = build_day_digest(dataset)
            stream = [digest.names.name(int(nid))
                      for nid in digest.below.name_ids]
            (workdir / "replay.json").write_text(json.dumps(stream))
    save_compiled_lad_tree(compile_lad_tree(classifier),
                           workdir / "model.json")


class ServerProcess:
    """``bench/serve_main.py`` in a subprocess; killed in ``close``."""

    def __init__(self, workdir: Path, trace: bool) -> None:
        command = [sys.executable, str(BENCH / "serve_main.py"),
                   "--model", str(workdir / "model.json"),
                   "--digest", str(workdir / "serve.fpdns2"),
                   "--trace", "1" if trace else "0"]
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.port = 0

    def wait_ready(self, timeout: float = 60.0) -> None:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("serve subprocess exited before binding")
        self.port = int(json.loads(line)["port"])
        deadline = time.perf_counter() + timeout
        while True:
            try:
                status, _ = http_get(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def stop(self) -> Dict[str, Any]:
        """Close stdin (the shutdown signal); the server answers with its
        peak RSS and spans."""
        assert self.proc.stdin is not None
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.close()
            raise
        lines = [line for line in out.splitlines() if line.strip()]
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"serve subprocess exited {self.proc.returncode}")
        return json.loads(lines[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def http_get(port: int, path: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def parse_metrics(text: str) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


@dataclass
class Request:
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    unsent: bool = False


def replay_requests(stream: List[str]) -> List[List[str]]:
    """The replayed day's qnames cut into classify requests, in order."""
    return [stream[i:i + NAMES_PER_REQUEST]
            for i in range(0, len(stream), NAMES_PER_REQUEST)]


def serve_plan(sizes: Sizes, seconds: float) -> Dict[str, int]:
    """Requests each serve phase draws from the replay stream.  Fixed
    by the run length and sizes alone, never by the server's speed."""
    open_s = OPEN_RUN_SHARE * seconds
    step_s = LADDER_RUN_SHARE * seconds / len(LADDER)
    return {"warmup": max(int(seconds * 2), 4),
            "open": open_loop_size(SERVE_RATE, open_s),
            "ladder": sum(open_loop_size(rate, step_s) for rate in LADDER),
            "closed": sizes.closed_passes * sizes.pass_requests}


def open_loop_size(rate: float, seconds: float) -> int:
    return max(int(seconds * rate), 1)


def repeat_share(requests: List[List[str]], start: int, end: int) -> float:
    """Share of the names in ``requests[start:end]`` already sent in an
    earlier request: the most the server's per-qname memo can answer."""
    seen = {name for request in requests[:start] for name in request}
    repeats = total = 0
    for request in requests[start:end]:
        repeats += sum(1 for name in request if name in seen)
        total += len(request)
        seen.update(request)
    return repeats / max(total, 1)


class ReplayClient:
    """One process, two threads, two keep-alive connections.  Each
    request takes the next slice of the replay stream; the stream is
    never wrapped, so a replayed name is only as repeated as it is in
    the day's traffic."""

    CONNECTIONS = 2

    def __init__(self, port: int, requests: List[List[str]]) -> None:
        self.requests = requests
        self.conns = [http.client.HTTPConnection("127.0.0.1", port,
                                                 timeout=30)
                      for _ in range(self.CONNECTIONS)]
        self._lock = threading.Lock()
        self.cursor = 0

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def _next_names(self) -> List[str]:
        with self._lock:
            names = self.requests[self.cursor]
            self.cursor += 1
        return names

    def post(self, conn: http.client.HTTPConnection,
             names: List[str]) -> Tuple[bool, List[dict]]:
        body = json.dumps({"qnames": names}).encode()
        try:
            conn.request("POST", "/classify", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()        # reconnects on the next request
            return False, []
        if response.status != 200:
            return False, []
        verdicts = json.loads(payload)["verdicts"]
        ok = (len(verdicts) == len(names)
              and all(v["qname"] == name for v, name in zip(verdicts, names)))
        return ok, verdicts

    def _two_threads(self, work: Callable[[http.client.HTTPConnection],
                                          None]) -> None:
        threads = [threading.Thread(target=work, args=(conn,))
                   for conn in self.conns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError("client thread did not finish")

    def open_loop(self, rate: float, seconds: float, drop_late: bool,
                  tracer: Tracer, parent: Optional[Span]) -> List[Request]:
        """Requests due every ``1/rate`` s; latency counts from the due
        time.  With ``drop_late`` a request still unsent at the end of
        the window is not sent (a miss)."""
        start = time.perf_counter() + 0.002
        requests = [Request(start + i / rate)
                    for i in range(open_loop_size(rate, seconds))]
        end = start + seconds
        order = iter(requests)

        def work(conn: http.client.HTTPConnection) -> None:
            while True:
                with self._lock:
                    request = next(order, None)
                if request is None:
                    return
                delay = request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if drop_late and time.perf_counter() > end:
                    request.unsent = True
                    continue
                names = self._next_names()
                request.sent = time.perf_counter()
                with tracer.span("service.http.request", parent):
                    request.ok, _ = self.post(conn, names)
                request.done = time.perf_counter()

        self._two_threads(work)
        return requests

    def closed_pass(self, n_requests: int, tracer: Tracer,
                    parent: Optional[Span]) -> Tuple[float, int]:
        """``n_requests`` back to back on both connections; returns
        (seconds, failures)."""
        remaining = [n_requests]
        failures = [0]

        def work(conn: http.client.HTTPConnection) -> None:
            while True:
                with self._lock:
                    if remaining[0] == 0:
                        return
                    remaining[0] -= 1
                names = self._next_names()
                with tracer.span("service.http.request", parent):
                    ok, _ = self.post(conn, names)
                if not ok:
                    with self._lock:
                        failures[0] += 1

        start = time.perf_counter()
        self._two_threads(work)
        return time.perf_counter() - start, failures[0]


def measure_serve(args: argparse.Namespace, sizes: Sizes,
                  rec: Recorder) -> None:
    workdir = Path(args.dir)
    stream: List[str] = json.loads((workdir / "replay.json").read_text())
    requests = replay_requests(stream)
    seconds = args.seconds
    plan = serve_plan(sizes, seconds)
    if sum(plan.values()) > len(requests):
        raise RuntimeError(
            f"serve phases need up to {sum(plan.values())} requests, the "
            f"replay stream holds {len(requests)}: run too long")
    rec.disk_bytes = sum((workdir / name).stat().st_size
                         for name in ("model.json", "serve.fpdns2"))
    tracer = rec.tracer
    server: Optional[ServerProcess] = None
    client: Optional[ReplayClient] = None
    try:
        # -- set-up: cold starts to /healthz; the last one serves -------
        for attempt in range(SERVER_STARTS):
            start = time.perf_counter()
            server = ServerProcess(workdir, tracer.enabled)
            server.wait_ready()
            rec.setup_s.append(time.perf_counter() - start)
            if attempt < SERVER_STARTS - 1:
                server.stop()
                server.close()
        assert server is not None
        client = ReplayClient(server.port, requests)

        # -- warm-up, then the open loop at a fixed rate ----------------
        client.closed_pass(plan["warmup"], Tracer(False), None)
        with tracer.span("bench.phase") as open_phase:
            opened = client.open_loop(SERVE_RATE, OPEN_RUN_SHARE * seconds,
                                      False, tracer, open_phase)
        rec.attempted += len(opened)
        for request in opened:
            if not request.ok:
                rec.fail("open-loop request failed")
        latencies = [r.done - r.due for r in opened if r.ok]
        rec.pass_ops.append(latencies)
        rec.extra_layers["service.client.lateness_ms"] = 1000 * median(
            [r.sent - r.due for r in opened])

        # -- rate ladder: highest rate meeting the latency limit --------
        step = LADDER_RUN_SHARE * seconds / len(LADDER)
        best = 0.0
        for rate in LADDER:
            with tracer.span("bench.phase") as phase:
                due = client.open_loop(rate, step, True, tracer, phase)
            errors = sum(1 for r in due if not r.unsent and not r.ok)
            rec.attempted += sum(1 for r in due if not r.unsent)
            for _ in range(errors):
                rec.fail(f"ladder request failed at {rate} req/s")
            met = sum(1 for r in due
                      if r.ok and r.done - r.due <= LADDER_LIMIT_S)
            if errors == 0 and met >= LADDER_SHARE * len(due):
                best = rate
        rec.extra_layers["service.max_rate_rps"] = best

        # -- closed loop at saturation: fixed-size passes ---------------
        traced_roots: List[Span] = []

        def one_pass(index: int) -> None:
            traced = rec.traced_pass(index)
            pass_tracer = tracer if traced else Tracer(False)
            with pass_tracer.span("bench.pass") as root:
                run_s, failures = client.closed_pass(
                    sizes.pass_requests, pass_tracer, root)
            rec.attempted += sizes.pass_requests
            for _ in range(failures):
                rec.fail("closed-loop request failed")
            if traced:
                traced_roots.append(root)
            rec.finish_pass(traced, run_s, [], root, {})

        closed_start = client.cursor
        for index in range(sizes.closed_passes):
            one_pass(index)
        rec.extra_layers["service.client.repeat_name_ratio"] = repeat_share(
            requests, closed_start, client.cursor)
        status, body = http_get(server.port, "/metrics")
        rec.check(status == 200, f"/metrics answered {status}")
        counters = parse_metrics(body.decode())

        # -- checks: a fixed sample against the in-process oracle -------
        oracle = ClassificationEngine.from_digest(
            digest_of(load_fpdns2(workdir / "serve.fpdns2")),
            load_compiled_lad_tree(workdir / "model.json"))
        distinct = sorted(set(stream))
        sample = random.Random(args.seed).sample(
            distinct, min(sizes.oracle_sample, len(distinct)))
        mismatches = 0
        for offset in range(0, len(sample), 200):
            names = sample[offset:offset + 200]
            ok, verdicts = client.post(client.conns[0], names)
            rec.check(ok, "oracle sample request failed")
            for name, verdict in zip(names, verdicts):
                if verdict != oracle.classify_one(name).to_json():
                    mismatches += 1
        rec.check(mismatches == 0,
                  f"{mismatches} served verdicts differ from classify_one")

        client.close()
        summary = server.stop()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.close()

    rec.peak_rss_kb = int(summary["ru_maxrss_kb"])
    cache_lookups = (counters["repro_serve_verdict_cache_hits_total"]
                     + counters["repro_serve_verdict_cache_misses_total"])
    names = counters["repro_serve_engine_names_classified_total"]
    batches = counters["repro_serve_batcher_batches_total"]
    requests = counters["repro_serve_batcher_requests_total"]
    rec.extra_layers.update({
        "service.startup_s": median(rec.setup_s),
        "service.engine.group_cache_hit_ratio":
            counters["repro_serve_verdict_cache_hits_total"]
            / max(cache_lookups, 1),
        "service.engine.extractions_per_1k_names":
            1000 * counters["repro_serve_engine_groups_extracted_total"]
            / max(names, 1),
        "service.batching.names_per_batch":
            counters["repro_serve_batcher_names_total"] / max(batches, 1),
        "service.batching.coalesced_ratio":
            counters["repro_serve_batcher_coalesced_requests_total"]
            / max(requests, 1),
    })
    if not tracer.enabled:
        return

    # -- server-side engine time, matched to traced passes by clock -----
    server_spans = [Span.from_row(row)
                    for row in summary["spans"]]
    rec.remote_spans[int(summary["pid"])] = server_spans

    def in_pass(span: Span) -> bool:
        return any(root.start_ns <= span.start_ns <= root.end_ns
                   for root in traced_roots)

    for layer, root in zip(rec.layers, traced_roots):
        layer["service.engine.batch_s"] = sum(
            max(0, min(span.end_ns, root.end_ns)
                - max(span.start_ns, root.start_ns))
            for span in server_spans) / 1e9
    request_ms = [1000 * span.seconds for span in rec.tracer.spans()
                  if span.name == "service.http.request" and in_pass(span)]
    engine_ms = [1000 * span.seconds for span in server_spans
                 if in_pass(span)]
    rec.extra_layers["service.http.overhead_ms"] = (
        median(request_ms) - median(engine_ms))


# ------------------------------------------------------------- reporting

def environment(workload: str, seed: int) -> Dict[str, Any]:
    cpus = available_cpu_count()
    return {"workload": workload, "seed": seed,
            "available_cpu_count": cpus, "os_cpu_count": os.cpu_count(),
            "constrained": cpus == 1,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read without running git."""
    head = REPO / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = REPO / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (REPO / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summarise(args: argparse.Namespace, rec: Recorder) -> Dict[str, Any]:
    peak_kb = rec.peak_rss_kb
    if peak_kb is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result: Dict[str, Any] = {
        "env": environment(args.workload, args.seed),
        "quick": args.quick,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "failures": rec.failures,
        "fingerprint": rec.fingerprints[0] if rec.fingerprints else None,
        "samples": {"setup": len(rec.setup_s), "passes": len(rec.passes),
                    "ops": sum(len(ops) for ops in rec.pass_ops)},
    }
    if rec.tracer.enabled:
        layers: Dict[str, float] = {}
        names = sorted({name for layer in rec.layers for name in layer})
        for name in names:
            layers[name] = median([layer.get(name, 0.0)
                                   for layer in rec.layers])
        layers.update(rec.extra_layers)
        layers["trace_overhead_ratio"] = rec.trace_overhead()
        result["per_layer"] = layers
        write_trace(args, rec)
    else:
        result["end_to_end"] = {
            "setup_s": median(rec.setup_s),
            "run_s": median(rec.run_s),
            "op_p50_ms": 1000 * median([percentile(ops, 50)
                                        for ops in rec.pass_ops]),
            "op_p90_ms": 1000 * median([percentile(ops, 90)
                                        for ops in rec.pass_ops]),
            "peak_rss_mb": peak_kb / 1024.0,
            "disk_bytes": float(rec.disk_bytes),
        }
    return result


def write_trace(args: argparse.Namespace, rec: Recorder) -> None:
    spans_by_pid = {os.getpid(): rec.tracer.spans(), **rec.remote_spans}
    write_chrome_trace(BENCH / "out" / f"trace-{args.workload}.json",
                       spans_by_pid)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["prepare", "measure"])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    sizes = QUICK if args.quick else FULL

    if args.mode == "prepare":
        if args.workload == "calendar-warm":
            prepare_calendar_warm(args, sizes)
        elif args.workload == "serve-replay":
            prepare_serve(args, sizes)
        return 0

    rec = Recorder(bool(args.trace))
    if args.workload in ("calendar-cold", "calendar-warm"):
        measure_calendar(args, sizes, rec,
                         cold=args.workload == "calendar-cold")
    elif args.workload in PDNS_WORKLOADS:
        measure_pdns(args, sizes, rec)
    else:
        measure_serve(args, sizes, rec)
    print(json.dumps(summarise(args, rec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
