"""Tests for LAD-tree persistence."""

import json

import numpy as np
import pytest

from repro.core.classifier import LadTreeClassifier
from repro.core.classifier.compiled import compile_lad_tree
from repro.core.classifier.persistence import (ModelFormatError,
                                               compiled_from_dict,
                                               compiled_to_dict,
                                               lad_tree_from_dict,
                                               lad_tree_to_dict,
                                               load_compiled_lad_tree,
                                               load_lad_tree,
                                               save_compiled_lad_tree,
                                               save_lad_tree)


@pytest.fixture
def fitted():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 0.4, (40, 3)),
                   rng.normal(2.5, 0.4, (40, 3))])
    y = np.array([0] * 40 + [1] * 40)
    return LadTreeClassifier(n_rounds=12).fit(X, y), X


class TestRoundTrip:
    def test_file_roundtrip_identical_predictions(self, fitted, tmp_path):
        model, X = fitted
        path = tmp_path / "model.json"
        save_lad_tree(model, path)
        loaded = load_lad_tree(path)
        assert loaded.predict_proba(X) == pytest.approx(
            model.predict_proba(X))
        assert loaded.decision_function(X) == pytest.approx(
            model.decision_function(X))

    def test_dict_roundtrip(self, fitted):
        model, X = fitted
        clone = lad_tree_from_dict(lad_tree_to_dict(model))
        assert clone.predict_proba(X) == pytest.approx(
            model.predict_proba(X))

    def test_hyperparameters_preserved(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "model.json"
        save_lad_tree(model, path)
        loaded = load_lad_tree(path)
        assert loaded.n_rounds == model.n_rounds
        assert loaded.z_clip == model.z_clip
        assert len(loaded.stumps_) == len(model.stumps_)

    def test_document_is_plain_json(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "model.json"
        save_lad_tree(model, path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro-lad-tree-v1"
        assert len(document["stumps"]) == 12


class TestCompiledRoundTrip:
    def test_file_roundtrip_bit_identical_scores(self, fitted, tmp_path):
        model, X = fitted
        compiled = compile_lad_tree(model)
        path = tmp_path / "compiled.json"
        save_compiled_lad_tree(compiled, path)
        loaded = load_compiled_lad_tree(path)
        assert np.array_equal(loaded.decision_function(X),
                              compiled.decision_function(X))
        assert loaded.prior_f == compiled.prior_f
        assert np.array_equal(loaded.features, compiled.features)

    def test_dict_roundtrip(self, fitted):
        model, X = fitted
        compiled = compile_lad_tree(model)
        clone = compiled_from_dict(compiled_to_dict(compiled))
        assert np.array_equal(clone.decision_function(X),
                              compiled.decision_function(X))

    def test_document_format_versioned(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "compiled.json"
        save_compiled_lad_tree(compile_lad_tree(model), path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro-lad-tree-compiled-v1"
        assert len(document["features"]) == 12

    def test_load_compiled_accepts_stump_form(self, fitted, tmp_path):
        """``repro serve --model`` takes whichever artifact the
        training job produced; a stump document compiles on load."""
        model, X = fitted
        path = tmp_path / "stumps.json"
        save_lad_tree(model, path)
        loaded = load_compiled_lad_tree(path)
        assert np.array_equal(loaded.decision_function(X),
                              model.decision_function(X))


class TestCompiledErrors:
    def test_corrupt_file_names_path(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"format": "repro-lad-tree-compiled-v1", ')
        with pytest.raises(ModelFormatError, match="corrupt.json"):
            load_compiled_lad_tree(path)

    def test_unknown_format_names_path(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelFormatError, match="other.json"):
            load_compiled_lad_tree(path)

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ModelFormatError, match="not a mapping"):
            load_compiled_lad_tree(path)

    def test_wrong_format_dict_rejected(self):
        with pytest.raises(ModelFormatError):
            compiled_from_dict({"format": "repro-lad-tree-v1"})

    def test_malformed_arrays_rejected(self):
        with pytest.raises(ModelFormatError):
            compiled_from_dict({"format": "repro-lad-tree-compiled-v1",
                                "prior_f": 0.0,
                                "features": [0],
                                "thresholds": ["not-a-number"],
                                "left": [1.0], "right": [-1.0]})

    def test_truncated_arrays_rejected(self):
        with pytest.raises(ModelFormatError):
            compiled_from_dict({"format": "repro-lad-tree-compiled-v1",
                                "prior_f": 0.0,
                                "features": [0, 1],
                                "thresholds": [0.5],
                                "left": [1.0, 2.0], "right": [-1.0, -2.0]})


class TestErrors:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ModelFormatError):
            lad_tree_to_dict(LadTreeClassifier())

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelFormatError):
            lad_tree_from_dict({"format": "something-else"})

    def test_non_mapping_rejected(self):
        with pytest.raises(ModelFormatError):
            lad_tree_from_dict([1, 2, 3])  # type: ignore[arg-type]

    def test_malformed_stumps_rejected(self):
        with pytest.raises(ModelFormatError):
            lad_tree_from_dict({"format": "repro-lad-tree-v1",
                                "n_rounds": 2, "z_clip": 4.0,
                                "weight_floor": 1e-6, "prior_f": 0.0,
                                "stumps": [{"feature": 0}]})

    def test_empty_stumps_rejected(self):
        with pytest.raises(ModelFormatError):
            lad_tree_from_dict({"format": "repro-lad-tree-v1",
                                "n_rounds": 2, "z_clip": 4.0,
                                "weight_floor": 1e-6, "prior_f": 0.0,
                                "stumps": []})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_lad_tree(path)


class TestDeploymentFlow:
    def test_train_save_deploy_mine(self, small_context, tmp_path):
        """Train on the labeling day, persist, reload in a 'daily job'
        and verify the mining output matches the in-memory model."""
        from repro.core.miner import MinerConfig
        from repro.core.ranking import DisposableZoneRanker
        from repro.traffic.simulate import PAPER_DATES

        path = tmp_path / "deployed.json"
        save_lad_tree(small_context.classifier(), path)
        deployed = load_lad_tree(path)

        date = PAPER_DATES[1]
        ranker = DisposableZoneRanker(deployed, MinerConfig())
        result = ranker.run_digest(small_context.digest(date),
                                   small_context.hit_rates(date))
        assert result.groups == small_context.mining_result(date).groups
