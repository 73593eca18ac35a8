"""Extension — 'queried by a handful of clients' (Section I).

Measures distinct querying clients per resolved name, split by the
miner's disposable classification: popular names spread across the
subscriber base, disposable names stay with their emitting hosts.
"""

from repro.analysis.clients import clients_per_name_from_digest
from repro.textutil import format_kv, format_percent
from repro.traffic.simulate import PAPER_DATES


def test_bench_ext_client_spread(benchmark, medium_context):
    date = PAPER_DATES[-1]
    digest = medium_context.digest(date)
    groups = medium_context.mined_groups(date)

    report = benchmark(clients_per_name_from_digest, digest, groups)
    print()
    print(format_kv([
        ("disposable median clients/name", report.disposable_median),
        ("non-disposable median clients/name", report.other_median),
        ("disposable names with <= 3 clients",
         format_percent(report.disposable_handful_fraction(3))),
        ("mean spread ratio (non-disposable / disposable)",
         f"{report.spread_ratio():.1f}x"),
    ]))
    assert report.disposable_handful_fraction(3) > 0.9
    assert report.spread_ratio() > 1.5
    assert report.disposable_median <= report.other_median
