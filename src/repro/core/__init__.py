"""The paper's primary contribution: the disposable-zone mining system."""

from repro.core.crossnetwork import (CrossNetworkReport, ZoneConsensus,
                                     compare_networks)
from repro.core.dnstypes import RCode, RRType
from repro.core.features import FEATURE_NAMES, FeatureExtractor, GroupFeatures
from repro.core.hitrate import (HitRateTable, RRHitRate, compute_hit_rates,
                                hit_rates_from_digest)
from repro.core.interning import (DayDigest, NameTable, StreamColumns,
                                  build_day_digest)
from repro.core.labeling import LabeledZone, TrainingSet, build_training_set
from repro.core.miner import (DisposableZoneFinding, DisposableZoneMiner,
                              MinerConfig)
from repro.core.names import labels, nld, normalize, shannon_entropy
from repro.core.numeric import approx_eq, is_zero
from repro.core.profile import (GroupProfile, ZoneProfile, ZoneProfiler,
                                lad_tree_attribution)
from repro.core.streaming import (StreamingDayBuilder, StreamStats,
                                  mine_stream)
from repro.core.ranking import (DailyMiningResult, DisposableZoneRanker,
                                build_tree_for_day, build_tree_from_digest,
                                name_matches_groups)
from repro.core.records import FpDnsDataset, FpDnsEntry, RpDnsEntry, RRKey
from repro.core.suffix import SuffixList, default_suffix_list
from repro.core.tracking import TrackedZone, ZoneTracker
from repro.core.tree import DomainNameTree, TreeNode

__all__ = [
    "CrossNetworkReport", "ZoneConsensus", "compare_networks",
    "RCode", "RRType",
    "FEATURE_NAMES", "FeatureExtractor", "GroupFeatures",
    "FpDnsDataset", "FpDnsEntry", "RpDnsEntry", "RRKey",
    "HitRateTable", "RRHitRate", "compute_hit_rates",
    "hit_rates_from_digest",
    "DayDigest", "NameTable", "StreamColumns", "build_day_digest",
    "LabeledZone", "TrainingSet", "build_training_set",
    "DisposableZoneFinding", "DisposableZoneMiner", "MinerConfig",
    "labels", "nld", "normalize", "shannon_entropy",
    "approx_eq", "is_zero",
    "GroupProfile", "ZoneProfile", "ZoneProfiler", "lad_tree_attribution",
    "StreamingDayBuilder", "StreamStats", "mine_stream",
    "DailyMiningResult", "DisposableZoneRanker", "build_tree_for_day",
    "build_tree_from_digest", "name_matches_groups",
    "SuffixList", "default_suffix_list",
    "TrackedZone", "ZoneTracker",
    "DomainNameTree", "TreeNode",
]
