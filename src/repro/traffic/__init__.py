"""Synthetic ISP workload: the substitute for the paper's Comcast traces."""

from repro.traffic.artifacts import FpDnsArtifactCache, artifact_key
from repro.traffic.clients import ClientPopulation
from repro.traffic.diurnal import SECONDS_PER_DAY, DiurnalProfile
from repro.traffic.generators import (AvHashNameGenerator,
                                      CdnShardNameGenerator,
                                      DisposableNameGenerator,
                                      DnsblNameGenerator,
                                      MeasurementNameGenerator,
                                      TelemetryNameGenerator,
                                      TrackingNameGenerator)
from repro.traffic.population import (DisposableService, PopulationConfig,
                                      PopularSite, ZonePopulation)
from repro.traffic.scenarios import SCENARIOS, scenario, scenario_names
from repro.traffic.simulate import (PAPER_DATES, RPDNS_WINDOW_DATES,
                                    MeasurementDate, SimulatorConfig,
                                    TraceSimulator)
from repro.traffic.workload import QueryEvent, WorkloadConfig, WorkloadModel
from repro.traffic.zipf import ZipfSampler

__all__ = [
    "FpDnsArtifactCache", "artifact_key",
    "ClientPopulation",
    "SECONDS_PER_DAY", "DiurnalProfile",
    "AvHashNameGenerator", "CdnShardNameGenerator",
    "DisposableNameGenerator", "DnsblNameGenerator",
    "MeasurementNameGenerator", "TelemetryNameGenerator",
    "TrackingNameGenerator",
    "DisposableService", "PopulationConfig", "PopularSite", "ZonePopulation",
    "SCENARIOS", "scenario", "scenario_names",
    "PAPER_DATES", "RPDNS_WINDOW_DATES", "MeasurementDate",
    "SimulatorConfig", "TraceSimulator",
    "QueryEvent", "WorkloadConfig", "WorkloadModel",
    "ZipfSampler",
]
