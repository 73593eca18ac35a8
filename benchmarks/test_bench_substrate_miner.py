"""Substrate microbenchmark — Algorithm 1 mining throughput."""

from conftest import run_and_render
from repro.core.features import FeatureExtractor
from repro.core.miner import DisposableZoneMiner, MinerConfig
from repro.core.ranking import build_tree_from_digest
from repro.traffic.simulate import PAPER_DATES


def test_bench_substrate_miner(benchmark, medium_context):
    date = PAPER_DATES[-1]
    digest = medium_context.digest(date)
    hit_rates = medium_context.hit_rates(date)
    classifier = medium_context.classifier()

    def mine_full_day():
        tree = build_tree_from_digest(digest)
        extractor = FeatureExtractor(tree, hit_rates)
        miner = DisposableZoneMiner(classifier, MinerConfig())
        return miner.mine(tree, extractor)

    findings = benchmark(mine_full_day)
    assert len(findings) > 10
