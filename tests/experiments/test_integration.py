"""End-to-end integration tests: the full Figure 10 pipeline against
the simulator's ground truth."""

import pytest

from repro.core.groups import name_matches_groups
from repro.traffic.simulate import PAPER_DATES


class TestEndToEndPipeline:
    @pytest.fixture(scope="class")
    def december(self, small_context):
        return small_context.mining_result(PAPER_DATES[-1])

    def test_miner_recovers_most_truth_zones(self, small_context, december):
        """Every ground-truth disposable (zone, depth) with enough
        observed names should be discovered, possibly keyed at an
        ancestor zone."""
        truth = small_context.truth_groups()
        found = december.groups
        dataset = small_context.dataset(PAPER_DATES[-1])
        resolved = dataset.resolved_domains()
        recovered = 0
        eligible = 0
        for zone, depth in truth:
            observed = sum(1 for name in resolved
                           if name.endswith("." + zone))
            if observed < 5:
                continue  # below the miner's min_group_size
            eligible += 1
            if any((fz == zone or zone.endswith("." + fz)) and fd == depth
                   for fz, fd in found):
                recovered += 1
        assert eligible > 10
        assert recovered / eligible > 0.85

    def test_low_false_positive_rate_on_names(self, small_context, december):
        """Few non-disposable resolved names should be flagged.  CDN
        names are excluded from the accounting, as the paper itself
        found CDN zones at the definition's boundary (0.6% of zones)."""
        truth = small_context.truth_groups()
        dataset = small_context.dataset(PAPER_DATES[-1])
        resolved = [name for name in dataset.resolved_domains()
                    if "akamai" not in name]
        flagged_false = sum(
            1 for name in resolved
            if name_matches_groups(name, december.groups)
            and not name_matches_groups(name, truth))
        non_disposable = sum(1 for name in resolved
                             if not name_matches_groups(name, truth))
        assert flagged_false / non_disposable < 0.05

    def test_mining_is_deterministic(self, small_context):
        a = small_context.mining_result(PAPER_DATES[2])
        # Recompute from scratch with the same classifier.
        from repro.core.miner import MinerConfig
        from repro.core.ranking import DisposableZoneRanker
        ranker = DisposableZoneRanker(small_context.classifier(),
                                      MinerConfig(threshold=0.9))
        b = ranker.run_digest(small_context.digest(PAPER_DATES[2]),
                              small_context.hit_rates(PAPER_DATES[2]))
        assert a.groups == b.groups

    def test_fig11_style_zone_inventory(self, small_context, december):
        """The December run should discover a substantial zone
        inventory spanning multiple 2LDs (paper: 14,488 zones under
        12,397 2LDs over 6 days)."""
        assert len(december.findings) >= 15
        assert len(december.disposable_2lds) >= 10
