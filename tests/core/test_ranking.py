"""Tests for the daily ranking pipeline (Figure 10)."""

import numpy as np
import pytest

from repro.core.classifier import LadTreeClassifier
from repro.core.classifier.base import BinaryClassifier
from repro.core.features import FeatureExtractor
from repro.core.hitrate import compute_hit_rates, hit_rates_from_digest
from repro.core.interning import build_day_digest
from repro.core.labeling import build_training_set
from repro.core.miner import MinerConfig
from repro.core.ranking import (DisposableZoneRanker, build_tree_for_day,
                                build_tree_from_digest, name_matches_groups)
from repro.dns.message import RCode, RRType
from repro.pdns.records import FpDnsDataset, FpDnsEntry
from repro.traffic.simulate import PAPER_DATES, TraceSimulator

from tests.conftest import TINY_DATE, tiny_simulator_config


class ChrOracle(BinaryClassifier):
    def fit(self, X, y):
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return np.where(X[:, 7] > 0.9, 0.99, 0.01)


class TestNameMatchesGroups:
    def test_exact_depth_under_zone(self):
        groups = {("mcafee.com", 4)}
        assert name_matches_groups("x.avqs.mcafee.com", groups)

    def test_wrong_depth(self):
        groups = {("mcafee.com", 4)}
        assert not name_matches_groups("deep.x.avqs.mcafee.com", groups)

    def test_unrelated_zone(self):
        groups = {("mcafee.com", 4)}
        assert not name_matches_groups("x.y.other.com", groups)

    def test_deeper_zone_key(self):
        groups = {("avqs.mcafee.com", 4)}
        assert name_matches_groups("h4sh.avqs.mcafee.com", groups)

    def test_tld_never_matches(self):
        assert not name_matches_groups("com", {("mcafee.com", 4)})


class TestBuildTreeForDay:
    def test_only_resolved_names_are_black(self):
        ds = FpDnsDataset(day="t")
        ds.below.append(FpDnsEntry(0.0, 1, "ok.site.com", RRType.A,
                                   RCode.NOERROR, 300, "1.1.1.1"))
        ds.below.append(FpDnsEntry(1.0, 1, "missing.site.com", RRType.A,
                                   RCode.NXDOMAIN))
        tree = build_tree_for_day(ds)
        assert tree.is_black("ok.site.com")
        assert not tree.is_black("missing.site.com")


class TestRankerOnSimulatedDay:
    @pytest.fixture(scope="class")
    def result(self, tiny_day):
        ranker = DisposableZoneRanker(ChrOracle(),
                                      MinerConfig(min_group_size=5))
        return ranker.run_day(tiny_day)

    def test_counts_consistent(self, result, tiny_day):
        assert result.queried_domains == len(tiny_day.queried_domains())
        assert result.resolved_domains == len(tiny_day.resolved_domains())
        assert result.distinct_rrs == len(tiny_day.distinct_rrs())
        assert 0 <= result.disposable_resolved <= result.resolved_domains
        assert 0 <= result.disposable_queried <= result.queried_domains

    def test_finds_simulated_disposable_zones(self, result):
        zones = {finding.zone for finding in result.findings}
        # The big named services should surface via their 2LD or apex.
        assert any("mcafee" in zone for zone in zones)

    def test_fractions_in_unit_interval(self, result):
        for value in (result.queried_fraction, result.resolved_fraction,
                      result.rr_fraction):
            assert 0.0 <= value <= 1.0

    def test_resolved_fraction_at_least_queried(self, result):
        """Queried includes NXDOMAIN names that are never disposable,
        so the disposable share of resolved names is >= of queried."""
        assert result.resolved_fraction >= result.queried_fraction - 1e-9

    def test_ranked_findings_sorted(self, result):
        ranked = result.ranked_findings()
        confidences = [finding.confidence for finding in ranked]
        assert confidences == sorted(confidences, reverse=True)

    def test_disposable_2lds_subset_of_findings(self, result):
        assert len(result.disposable_2lds) <= max(len(result.findings), 1)

    def test_reuses_precomputed_hit_rates(self, tiny_day):
        ranker = DisposableZoneRanker(ChrOracle(),
                                      MinerConfig(min_group_size=5))
        hit_rates = compute_hit_rates(tiny_day)
        a = ranker.run_day(tiny_day, hit_rates)
        b = ranker.run_day(tiny_day)
        assert a.groups == b.groups


@pytest.fixture(scope="module")
def calendar():
    """Three simulated days plus a classifier trained on a fourth."""
    dates = sorted([*PAPER_DATES[:3], TINY_DATE], key=lambda d: d.day_index)
    simulator = TraceSimulator(tiny_simulator_config())
    days = dict(zip([date.label for date in dates],
                    simulator.run_days(dates)))
    digest = build_day_digest(days[TINY_DATE.label])
    tree = build_tree_from_digest(digest)
    extractor = FeatureExtractor(tree, hit_rates_from_digest(digest))
    training = build_training_set(simulator.labeled_zones(), tree, extractor)
    classifier = LadTreeClassifier().fit(training.X, training.y)
    datasets = [days[date.label] for date in PAPER_DATES[:3]]
    return datasets, classifier


def _run_digest(dataset, classifier):
    ranker = DisposableZoneRanker(classifier, MinerConfig())
    return ranker.run_digest(build_day_digest(dataset))


class TestRunDigest:
    """``run_digest`` — the path experiments and the benchmark mine
    through — must equal the per-entry ``run_day`` oracle, day for
    day."""

    def test_equals_legacy_run_day(self, calendar):
        datasets, classifier = calendar
        ranker = DisposableZoneRanker(classifier, MinerConfig())
        for dataset in datasets:
            reference = ranker.run_day(dataset)
            candidate = _run_digest(dataset, classifier)
            assert candidate.day == reference.day
            # Findings compared as sets: the legacy path orders them by
            # `set` iteration, the digest path by deterministic
            # traversal order.
            assert set(candidate.findings) == set(reference.findings)
            assert candidate.queried_domains == reference.queried_domains
            assert candidate.resolved_domains == reference.resolved_domains
            assert candidate.distinct_rrs == reference.distinct_rrs
            assert (candidate.disposable_queried
                    == reference.disposable_queried)
            assert (candidate.disposable_resolved
                    == reference.disposable_resolved)
            assert candidate.disposable_rrs == reference.disposable_rrs

    def test_findings_nonempty_somewhere(self, calendar):
        # The simulated calendar plants disposable zones; the
        # equivalence test above would pass vacuously if nothing were
        # ever mined.
        datasets, classifier = calendar
        assert any(_run_digest(dataset, classifier).findings
                   for dataset in datasets)
