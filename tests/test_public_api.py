"""Public-API integrity: every name each package exports must resolve,
and key entry points must exist where README documents them."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.classifier",
    "repro.dns",
    "repro.traffic",
    "repro.pdns",
    "repro.analysis",
    "repro.impact",
    "repro.experiments",
    "repro.service",
    "repro.textutil",
]


@pytest.mark.parametrize("module_name", PACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip(f"{module_name} defines no __all__")
    for name in exported:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_no_duplicate_exports_within_package():
    for module_name in PACKAGES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module_name


def test_readme_documented_entry_points():
    from repro.core import (DisposableZoneRanker, FeatureExtractor,
                            MinerConfig, build_day_digest,
                            build_training_set, build_tree_from_digest,
                            hit_rates_from_digest)
    from repro.core.classifier import LadTreeClassifier
    from repro.traffic import (MeasurementDate, SimulatorConfig,
                               TraceSimulator)
    assert all([DisposableZoneRanker, FeatureExtractor, MinerConfig,
                build_day_digest, build_training_set,
                build_tree_from_digest, hit_rates_from_digest,
                DisposableZoneRanker.run_digest, LadTreeClassifier,
                MeasurementDate, SimulatorConfig, TraceSimulator])


def test_cli_module_runnable():
    import repro.__main__  # noqa: F401 - import must succeed
    from repro.experiments.cli import EXPERIMENTS, main
    assert callable(main)
    assert len(EXPERIMENTS) >= 15


def test_version_defined():
    import repro
    assert repro.__version__
