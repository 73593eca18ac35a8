"""Compare two benchmark result sets, for example parent and change.

Usage::

    python bench/compare.py A.jsonl B.jsonl

Each file holds the records ``bench/run.py --out FILE`` appends, one
per workload run.  For every end-to-end metric x workload the table
shows each side's median and quartiles, the change of the median, the
share of pairs B won (pairs match by seed, else by order; ties count
for neither side) and a status against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` - either side's quartile spread is wider than the
  bound, and not every run of B beats every run of A;
* ``worse`` - B's median is worse than A's by more than the bound;
* ``better`` - B won at least nine tenths of at least ten pairs and the
  medians differ by more than A's own quartile spread;
* ``same`` - none of the above.

Exits 1 when any row is ``worse`` or ``unresolved``, and 2 without a
table when the records were not all made with one run length and size
mode (``--seconds`` / ``--quick``): a longer run repeats the pass more
often and sends more serve traffic, so its numbers are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9

Runs = List[Tuple[int, float]]       # (seed, value)


def load(path: Path, settings: Set[Tuple[float, bool]]
         ) -> Dict[Tuple[str, str], Runs]:
    """(workload, metric) -> runs, from untraced records; adds each
    record's (seconds, quick) to ``settings``."""
    table: Dict[Tuple[str, str], Runs] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace"):
            continue
        settings.add((float(record["seconds"]), bool(record["quick"])))
        for name, metric in record["metrics"].items():
            table.setdefault((record["workload"], name), []).append(
                (int(record["seed"]), float(metric["value"])))
    return table


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(a: Runs, b: Runs) -> List[Tuple[float, float]]:
    seeds_a = [seed for seed, _ in a]
    seeds_b = [seed for seed, _ in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(a):
        return [(x, y) for (_, x), (_, y) in zip(sorted(a), sorted(b))]
    return [(x, y) for (_, x), (_, y) in zip(a, b)]


def judge(a: Runs, b: Runs, lower_better: bool,
          bound: float) -> Dict[str, Any]:
    va = [value for _, value in a]
    vb = [value for _, value in b]
    q1a, ma, q3a = quartiles(va)
    q1b, mb, q3b = quartiles(vb)
    sign = 1.0 if lower_better else -1.0
    worse_by = sign * (mb - ma) / ma if ma else 0.0
    matched = pairs(a, b)
    won = sum(1 for x, y in matched if sign * (y - x) < 0)
    share = won / len(matched) if matched else 0.0
    spread = max((q3a - q1a) / ma if ma else 0.0,
                 (q3b - q1b) / mb if mb else 0.0)
    every_run_better = (max(vb) < min(va) if lower_better
                        else min(vb) > max(va))
    if len(va) < 2 or len(vb) < 2 or (spread > bound
                                      and not every_run_better):
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    elif (len(matched) >= MIN_PAIRS_FOR_GAIN
          and share >= WIN_SHARE_FOR_GAIN and abs(mb - ma) > q3a - q1a
          and worse_by < 0):
        status = "better"
    else:
        status = "same"
    return {"a": (q1a, ma, q3a), "b": (q1b, mb, q3b), "change": worse_by,
            "won": f"{won}/{len(matched)}", "spread": spread,
            "status": status}


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    settings: Set[Tuple[float, bool]] = set()
    side_a, side_b = load(Path(args[0]), settings), load(Path(args[1]),
                                                         settings)
    if len(settings) > 1:
        print(f"records differ in run length or size mode "
              f"(seconds, quick): {sorted(settings)}", file=sys.stderr)
        return 2
    workloads = sorted({workload for workload, _ in side_a}
                       & {workload for workload, _ in side_b})
    header = (f"{'workload':16s} {'metric':12s} {'A median [q1, q3]':>30s} "
              f"{'B median [q1, q3]':>30s} {'change':>8s} {'B won':>6s} "
              f"{'bound':>6s}  status")
    print(header)
    failing = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in side_a or key not in side_b:
                continue
            row = judge(side_a[key], side_b[key],
                        metric["better"] == "lower", metric["bound"])
            q1a, ma, q3a = row["a"]
            q1b, mb, q3b = row["b"]
            print(f"{workload:16s} {metric['name']:12s} "
                  f"{ma:12.5g} [{q1a:.4g}, {q3a:.4g}]".ljust(61)
                  + f"{mb:12.5g} [{q1b:.4g}, {q3b:.4g}]".rjust(30)
                  + f" {100 * row['change']:+7.1f}% {row['won']:>6s} "
                  f"{100 * metric['bound']:5.0f}%  {row['status']}")
            failing += row["status"] in ("worse", "unresolved")
    print("change: + is worse; B won counts pairs where B is better")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
