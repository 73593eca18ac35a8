"""Extension — RFC 2308 negative caching vs upstream NXDOMAIN load.

The paper attributes its 40%-NXDOMAIN-above anomaly to resolvers that
ignore RFC 2308; this bench quantifies how much upstream NXDOMAIN
traffic honoring the negative cache removes.
"""

from repro.textutil import format_percent, format_table
from repro.impact.negative_cache import run_negative_cache_study
from repro.traffic.diurnal import SECONDS_PER_DAY


def test_bench_ext_negative_cache(benchmark, medium_context):
    simulator = medium_context.simulator
    events = simulator.workload.generate_day(430, year_fraction=0.95,
                                             n_events=30_000)

    study = benchmark.pedantic(
        run_negative_cache_study,
        args=(simulator.authority, events),
        kwargs={"cache_capacity": medium_context.profile.cache_capacity,
                "day_start": 430 * SECONDS_PER_DAY},
        rounds=2, iterations=1)
    print()
    rows = [
        (s.label, s.upstream_total, s.upstream_nxdomain,
         format_percent(s.nxdomain_share_above), s.negative_cache_hits)
        for s in (study.without_rfc2308, study.with_rfc2308)
    ]
    print(format_table(["policy", "upstream", "upstream NXDOMAIN",
                        "NX share above", "negative-cache hits"], rows))
    assert study.upstream_nxdomain_saved > 0
    assert (study.with_rfc2308.nxdomain_share_above
            < study.without_rfc2308.nxdomain_share_above)
