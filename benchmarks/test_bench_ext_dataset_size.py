"""Extension — fpDNS dataset byte growth (Section III-A).

The paper's compressed fpDNS dataset grew from ~60 GB/day (February)
to ~145 GB/day (December 2011).  This bench prices simulated February
and December days in wire-format bytes and attributes the growth to
the rising share of (long-named) disposable records.
"""

from repro.textutil import format_percent, format_table
from repro.pdns.sizing import estimate_dataset_size
from repro.traffic.simulate import PAPER_DATES


def test_bench_ext_dataset_size(benchmark, medium_context):
    feb_date, dec_date = PAPER_DATES[0], PAPER_DATES[-1]
    feb = medium_context.dataset(feb_date)
    dec = medium_context.dataset(dec_date)
    groups_feb = medium_context.mined_groups(feb_date)
    groups_dec = medium_context.mined_groups(dec_date)

    def price():
        return (estimate_dataset_size(feb, disposable_groups=groups_feb),
                estimate_dataset_size(dec, disposable_groups=groups_dec))

    feb_report, dec_report = benchmark(price)
    print()
    rows = [
        (report.day, f"{report.raw_bytes / 1e6:.1f} MB",
         f"{report.compressed_bytes / 1e6:.1f} MB",
         f"{report.mean_entry_bytes:.1f} B",
         format_percent(report.disposable_byte_share))
        for report in (feb_report, dec_report)
    ]
    print(format_table(["day", "raw", "compressed", "bytes/entry",
                        "disposable byte share"], rows))
    growth = dec_report.raw_bytes / feb_report.raw_bytes
    print(f"Feb->Dec byte growth: {growth:.2f}x (paper: ~2.4x)")
    # Shape: December costs more per entry and in total; disposable
    # records account for a disproportionate byte share.
    assert dec_report.mean_entry_bytes > feb_report.mean_entry_bytes
    assert growth > 1.05
    assert (dec_report.disposable_byte_share
            > feb_report.disposable_byte_share)
