"""Sweeps comparing Semantic and Traditional caching on identical traces.

Three sweep variables are supported: number of users, cache size and cache
location.  Every sweep point runs both modes on exactly the same trace so
the comparison isolates the effect of inference and prefetching.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence, TextIO

from semcache.kb import KnowledgeBase
from semcache.metrics import MetricsReport
from semcache.sim import Mode, Topology, run_simulation
from semcache.workload import SyntheticSpec, TraceEntry, generate_trace


class ExperimentError(Exception):
    pass


class ScenarioMismatch(ExperimentError):
    """The two reports being compared come from different scenarios."""


class SweepVariable(enum.Enum):
    USER_COUNT = "user_count"
    CACHE_SIZE = "cache_size"
    CACHE_LOCATION = "cache_location"


@dataclass(frozen=True)
class Scenario:
    """Fixed parameters shared by all points of a sweep.  ``run_sweep``
    replaces ``workload.seed`` with the ``SweepSpec``'s seed."""

    topology: Topology
    workload: SyntheticSpec


@dataclass(frozen=True)
class SweepSpec:
    """A sweep of ``variable`` over ``values``.  ``seed`` seeds every point's
    trace and report; the scenario's ``workload.seed`` is not used."""

    variable: SweepVariable
    values: tuple
    scenario: Scenario
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.variable, SweepVariable):
            raise TypeError(f"sweep variable must be a SweepVariable, got {self.variable!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        for value in self.values:
            # Refused before any point runs, by the type that owns the field:
            # a TypeError for a wrong type (never converted), a ValueError out of range.
            try:
                _apply(self.scenario, self.variable, value)
            except (TypeError, ValueError) as exc:
                raise type(exc)(f"{self.variable.value} sweep value {value!r}: {exc}") from None


@dataclass(frozen=True)
class SweepPoint:
    value: object
    mode: Mode
    report: MetricsReport


def _apply(scenario: Scenario, variable: SweepVariable, value) -> Scenario:
    if variable is SweepVariable.USER_COUNT:
        return replace(scenario, workload=replace(scenario.workload, n_users=value))
    if variable is SweepVariable.CACHE_SIZE:
        topo = replace(scenario.topology, cache_capacity=value)
        return replace(scenario, topology=topo)
    if variable is SweepVariable.CACHE_LOCATION:
        topo = replace(scenario.topology, cache_location=value)
        return replace(scenario, topology=topo)


def run_sweep(spec: SweepSpec, kb: KnowledgeBase) -> list[SweepPoint]:
    """Run both modes at every sweep value; points are keyed, order stable."""
    points: list[SweepPoint] = []
    # Only a user-count sweep changes the workload; the others share one
    # trace, which keeps its preparation for every simulation that runs it.
    traces: dict[SyntheticSpec, Sequence[TraceEntry]] = {}
    for value in spec.values:
        try:
            scen = _apply(spec.scenario, spec.variable, value)
            workload = replace(scen.workload, seed=spec.seed)
            if workload not in traces:
                traces[workload] = generate_trace(kb, workload)
            trace = traces[workload]
            for mode in (Mode.SEMANTIC, Mode.TRADITIONAL):
                report, _ = run_simulation(scen.topology, kb, trace, mode, spec.seed)
                report.scenario["sweep_variable"] = spec.variable.value
                report.scenario["sweep_value"] = _value_str(value)
                points.append(SweepPoint(value, mode, report))
        except Exception as exc:
            raise ExperimentError(
                f"sweep point {spec.variable.value}={_value_str(value)} failed: {exc}"
            ) from exc
    return points


def _value_str(value) -> str:
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


def improvement(semantic: MetricsReport, traditional: MetricsReport) -> dict:
    """Relative gains of Semantic over Traditional on the same scenario.

    ``hit_ratio_increase_pct`` is ``inf`` when the traditional hit ratio is
    zero (any semantic hit is an infinite relative improvement).
    """
    ignore = {"seed"}
    sem_params = {k: v for k, v in semantic.scenario.items() if k not in ignore}
    trad_params = {k: v for k, v in traditional.scenario.items() if k not in ignore}
    if sem_params != trad_params:
        raise ScenarioMismatch("reports come from different scenarios")
    if traditional.hit_ratio == 0.0:
        hit_increase = math.inf if semantic.hit_ratio > 0 else 0.0
    else:
        hit_increase = (
            100.0 * (semantic.hit_ratio - traditional.hit_ratio) / traditional.hit_ratio
        )
    if traditional.mean_latency_ms == 0.0:
        latency_decrease = 0.0
    else:
        latency_decrease = (
            100.0
            * (traditional.mean_latency_ms - semantic.mean_latency_ms)
            / traditional.mean_latency_ms
        )
    return {
        "hit_ratio_increase_pct": hit_increase,
        "latency_decrease_pct": latency_decrease,
    }


def write_csv(points: Sequence[SweepPoint], sink: TextIO) -> None:
    """One CSV row per (sweep value, mode) with all report fields."""
    if not points:
        return
    rows = [p.report.flat_dict() for p in points]
    fieldnames = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(sink, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def summary_table(points: Sequence[SweepPoint]) -> str:
    """Human-readable sweep summary for standard output."""
    lines = [
        f"{'value':>12}  {'mode':>12}  {'hit_ratio':>9}  {'latency_ms':>10}  "
        f"{'useless_pf':>10}"
    ]
    for p in points:
        r = p.report
        lines.append(
            f"{_value_str(p.value):>12}  {r.mode:>12}  {r.hit_ratio:>9.4f}  "
            f"{r.mean_latency_ms:>10.2f}  {r.useless_prefetch_ratio:>10.4f}"
        )
    return "\n".join(lines)
