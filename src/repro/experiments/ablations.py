"""Ablation experiments beyond the paper's headline results.

* Classifier comparison — the paper's model-selection step (it reports
  trying naive Bayes, nearest neighbours, neural networks and logistic
  regression before choosing the LAD tree, omitting the numbers "in
  the interest of space"; we print them).
* Feature-family ablation — tree-structure features only vs
  cache-hit-rate features only vs both, quantifying the paper's claim
  that the CHR features "provide the necessary classification signal"
  while the entropy features handle structure.
* Threshold sweep — miner precision/recall against ground truth as θ
  varies, contextualising the paper's θ = 0.9 choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.classifier import (BinaryClassifier, DecisionTreeClassifier,
                                   GaussianNaiveBayes, KNearestNeighbors,
                                   LadTreeClassifier,
                                   LogisticRegressionClassifier,
                                   NeuralNetworkClassifier,
                                   cross_validate, evaluate_classifiers)
from repro.core.miner import MinerConfig
from repro.core.groups import name_matches_groups
from repro.core.ranking import DisposableZoneRanker
from repro.experiments.context import TRAINING_DATE, ExperimentContext
from repro.textutil import format_percent, format_table

__all__ = ["ClassifierComparisonResult", "run_classifier_comparison",
           "FeatureAblationResult", "run_feature_ablation",
           "ThresholdSweepResult", "run_threshold_sweep"]

# Column indices of the two feature families in the 8-dim vector.
TREE_FEATURES = (0, 1, 2, 3, 4, 5)
CHR_FEATURES = (6, 7)


def default_candidates() -> Dict[str, Callable[[], BinaryClassifier]]:
    return {
        "lad-tree": lambda: LadTreeClassifier(),
        "cart": lambda: DecisionTreeClassifier(),
        "naive-bayes": lambda: GaussianNaiveBayes(),
        "knn": lambda: KNearestNeighbors(k=5),
        "logistic": lambda: LogisticRegressionClassifier(),
        "neural-net": lambda: NeuralNetworkClassifier(),
    }


@dataclass
class ClassifierComparisonResult:
    summary: Dict[str, Dict[str, float]]

    def render(self) -> str:
        rows = [(name,
                 f"{m['auc']:.3f}",
                 format_percent(m["tpr@0.5"]),
                 format_percent(m["fpr@0.5"]),
                 format_percent(m["tpr@0.9"]),
                 format_percent(m["fpr@0.9"]))
                for name, m in sorted(self.summary.items(),
                                      key=lambda kv: -kv[1]["auc"])]
        table = format_table(
            ["model", "AUC", "TPR@0.5", "FPR@0.5", "TPR@0.9", "FPR@0.9"],
            rows)
        return "Ablation — model selection (Section V-C)\n" + table

    def best_model(self) -> str:
        return max(self.summary, key=lambda name: self.summary[name]["auc"])


def run_classifier_comparison(ctx: ExperimentContext,
                              n_folds: int = 10) -> ClassifierComparisonResult:
    training = ctx.training_set()
    summary = evaluate_classifiers(default_candidates(), training.X,
                                   training.y, n_folds=n_folds, seed=11)
    return ClassifierComparisonResult(summary=summary)


@dataclass
class FeatureAblationResult:
    aucs: Dict[str, float]

    def render(self) -> str:
        rows = [(name, f"{auc:.3f}") for name, auc in self.aucs.items()]
        return ("Ablation — feature families\n"
                + format_table(["feature set", "AUC"], rows))


def run_feature_ablation(ctx: ExperimentContext,
                         n_folds: int = 10) -> FeatureAblationResult:
    training = ctx.training_set()
    subsets = {
        "tree-structure only": TREE_FEATURES,
        "cache-hit-rate only": CHR_FEATURES,
        "both families": tuple(range(training.X.shape[1])),
    }
    aucs = {}
    for name, columns in subsets.items():
        X = training.X[:, list(columns)]
        cv = cross_validate(lambda: LadTreeClassifier(), X, training.y,
                            n_folds=n_folds, seed=11)
        aucs[name] = cv.auc()
    return FeatureAblationResult(aucs=aucs)


@dataclass
class ThresholdSweepResult:
    rows: List[Tuple[float, float, float, int]]  # theta, precision, recall, n

    def render(self) -> str:
        body = [(f"{theta:.2f}", format_percent(precision),
                 format_percent(recall), count)
                for theta, precision, recall, count in self.rows]
        return ("Ablation — miner threshold sweep (paper uses theta=0.9)\n"
                + format_table(["theta", "precision", "recall",
                                "zones found"], body))


def run_threshold_sweep(ctx: ExperimentContext,
                        thresholds: Sequence[float] = (0.5, 0.7, 0.9, 0.99)
                        ) -> ThresholdSweepResult:
    """Mine the training day at several θ and score vs ground truth.

    Precision: fraction of flagged names (sampled from the day's
    resolved names) that are truly disposable.  Recall: fraction of
    truly disposable names flagged.
    """
    dataset = ctx.dataset(TRAINING_DATE)
    truth = ctx.truth_groups()
    names = sorted(dataset.resolved_domains())
    truth_flags = np.array([name_matches_groups(name, truth)
                            for name in names])
    rows = []
    for theta in thresholds:
        result = ctx.mining_result(TRAINING_DATE, threshold=theta)
        mined = result.groups
        mined_flags = np.array([name_matches_groups(name, mined)
                                for name in names])
        tp = int(np.sum(mined_flags & truth_flags))
        fp = int(np.sum(mined_flags & ~truth_flags))
        fn = int(np.sum(~mined_flags & truth_flags))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        rows.append((theta, precision, recall, len(result.findings)))
    return ThresholdSweepResult(rows=rows)
