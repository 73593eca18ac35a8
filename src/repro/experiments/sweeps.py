"""Generic parameter-sweep harness.

Several of the paper's arguments are really claims about how a
statistic moves along a knob — cache pressure vs capacity, the
above/below ratio vs query density, growth vs disposable share.  This
harness runs a fresh simulation per grid point and collects any
metrics computed from the resulting day, giving experiments and users
a uniform way to produce such curves.

Example::

    sweep = ParameterSweep(
        base=SimulatorConfig(...),
        vary=("workload.events_per_day", [8_000, 32_000, 96_000]),
        metrics={"ratio": lambda sim, day: day.above_volume()
                                           / day.below_volume()})
    result = sweep.run()
    result.series("ratio")   # [(8_000, …), (32_000, …), (96_000, …)]
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.records import FpDnsDataset
from repro.textutil import format_table
from repro.traffic.simulate import (MeasurementDate, SimulatorConfig,
                                    TraceSimulator)

__all__ = ["MetricFn", "SweepResult", "ParameterSweep", "set_config_attr"]

MetricFn = Callable[[TraceSimulator, FpDnsDataset], float]

_DEFAULT_PROBE = MeasurementDate("sweep-probe", 200, 0.7)
_DEFAULT_WARMUP = MeasurementDate("sweep-warmup", 199, 0.7)


def set_config_attr(config: SimulatorConfig, path: str, value: Any) -> None:
    """Set a dotted attribute path on a config, e.g.
    ``"workload.events_per_day"`` or ``"cache_capacity"``."""
    parts = path.split(".")
    target = config
    for part in parts[:-1]:
        target = getattr(target, part)
    if not hasattr(target, parts[-1]):
        raise AttributeError(f"no config attribute {path!r}")
    setattr(target, parts[-1], value)


@dataclass
class SweepResult:
    """Grid values and the metrics collected at each point."""

    parameter: str
    values: List[Any]
    metrics: Dict[str, List[float]]

    def series(self, metric: str) -> List[Tuple[Any, float]]:
        return list(zip(self.values, self.metrics[metric]))

    def is_monotone(self, metric: str, increasing: bool = True,
                    slack: float = 0.0) -> bool:
        """True if the metric moves monotonically along the grid."""
        series = self.metrics[metric]
        if increasing:
            return all(later >= earlier - slack
                       for earlier, later in zip(series, series[1:]))
        return all(later <= earlier + slack
                   for earlier, later in zip(series, series[1:]))

    def render(self) -> str:
        headers = [self.parameter] + sorted(self.metrics)
        rows = []
        for i, value in enumerate(self.values):
            rows.append([value] + [f"{self.metrics[name][i]:.4f}"
                                   for name in sorted(self.metrics)])
        return format_table(headers, rows)


class ParameterSweep:
    """Runs one simulated day per grid point and collects metrics."""

    def __init__(self, base: SimulatorConfig,
                 vary: Tuple[str, Sequence[Any]],
                 metrics: Dict[str, MetricFn],
                 probe_date: MeasurementDate = _DEFAULT_PROBE,
                 warmup_date: Optional[MeasurementDate] = _DEFAULT_WARMUP,
                 events_per_day: Optional[int] = None) -> None:
        if not metrics:
            raise ValueError("need at least one metric")
        self.base = base
        self.parameter, self.values = vary
        if not self.values:
            raise ValueError("need at least one grid value")
        self.metrics = dict(metrics)
        self.probe_date = probe_date
        self.warmup_date = warmup_date
        self.events_per_day = events_per_day

    def run(self) -> SweepResult:
        collected: Dict[str, List[float]] = {name: []
                                             for name in self.metrics}
        for value in self.values:
            config = copy.deepcopy(self.base)
            set_config_attr(config, self.parameter, value)
            simulator = TraceSimulator(config)
            if self.warmup_date is not None:
                simulator.run_day(self.warmup_date,
                                  n_events=self.events_per_day)
            day = simulator.run_day(self.probe_date,
                                    n_events=self.events_per_day)
            for name, metric in self.metrics.items():
                collected[name].append(float(metric(simulator, day)))
        return SweepResult(parameter=self.parameter,
                           values=list(self.values), metrics=collected)
