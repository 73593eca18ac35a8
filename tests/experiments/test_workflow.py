"""End-to-end deployment workflow: everything a real operator would
run, chained across module boundaries.

tap → fpDNS file → streaming mine (with a persisted model) → discovery
ledger → zone profile → pDNS-DB → wildcard mitigation → forensic query.
"""

import pytest

from repro.core.classifier import load_lad_tree, save_lad_tree
from repro.core.features import FeatureExtractor
from repro.core.miner import MinerConfig
from repro.core.profile import ZoneProfiler
from repro.core.streaming import StreamingDayBuilder, mine_stream
from repro.core.tracking import ZoneTracker
from repro.pdns.database import PassiveDnsDatabase, wildcard_aggregated_size
from repro.pdns.io import iter_fpdns_entries, save_fpdns
from repro.pdns.query import PdnsQueryIndex


class TestOperatorWorkflow:
    @pytest.fixture(scope="class")
    def workflow(self, small_context, tmp_path_factory):
        """Run the whole chain once; tests assert on the artifacts."""
        tmp = tmp_path_factory.mktemp("workflow")
        from repro.traffic.simulate import PAPER_DATES

        # 1. Train on the labeling day and persist the model.
        model_path = tmp / "model.json"
        save_lad_tree(small_context.classifier(), model_path)

        # 2. The tap wrote a day to disk.
        date = PAPER_DATES[-1]
        dataset = small_context.dataset(date)
        day_path = tmp / "day.tsv.gz"
        save_fpdns(dataset, day_path)

        # 3. Daily job: stream the file, mine with the deployed model.
        deployed = load_lad_tree(model_path)
        findings, stats = mine_stream(iter_fpdns_entries(day_path),
                                      deployed, MinerConfig(),
                                      day=dataset.day)

        # 4. Ledger + profile of the top finding.
        tracker = ZoneTracker()
        tracker.ingest_findings(dataset.day, findings)
        builder = StreamingDayBuilder(day=dataset.day)
        builder.observe_many(iter_fpdns_entries(day_path))
        tree, hit_rates = builder.finish()
        top = max(findings, key=lambda f: f.group_size)
        profile = ZoneProfiler(tree, hit_rates, deployed).profile(top.zone)

        # 5. pDNS-DB ingest + mitigation + forensic index.
        database = PassiveDnsDatabase()
        database.ingest_day(dataset)
        groups = {finding.as_group_key() for finding in findings}
        mitigated_rows = wildcard_aggregated_size(database, groups)
        index = PdnsQueryIndex(database)

        return {
            "dataset": dataset, "findings": findings, "stats": stats,
            "tracker": tracker, "profile": profile, "database": database,
            "mitigated_rows": mitigated_rows, "index": index, "top": top,
            "context": small_context,
        }

    def test_streaming_matches_batch_mining(self, workflow):
        from repro.traffic.simulate import PAPER_DATES
        batch = workflow["context"].mining_result(PAPER_DATES[-1]).groups
        streamed = {finding.as_group_key()
                    for finding in workflow["findings"]}
        assert streamed == batch

    def test_ledger_populated(self, workflow):
        tracker = workflow["tracker"]
        assert tracker.total_zones() == len(workflow["findings"])
        assert tracker.total_2lds() >= 1

    def test_profile_confirms_top_finding(self, workflow):
        profile = workflow["profile"]
        top = workflow["top"]
        assert top.depth in profile.disposable_depths(threshold=0.5)
        assert "disposable" in profile.render()

    def test_mitigation_shrinks_database(self, workflow):
        assert workflow["mitigated_rows"] < len(workflow["database"])

    def test_forensic_pivot_reaches_flagged_zone(self, workflow):
        top = workflow["top"]
        index = workflow["index"]
        under = index.names_under_zone(top.zone)
        assert len(under) >= 5
        history = index.history_for_name(under[0])
        assert history
        assert history[0].first_seen == workflow["dataset"].day

    def test_stats_agree_with_dataset(self, workflow):
        stats = workflow["stats"]
        dataset = workflow["dataset"]
        assert stats.below_entries == dataset.below_volume()
        assert stats.above_entries == dataset.above_volume()
