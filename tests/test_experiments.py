import io
import math

import pytest

from semcache.experiments import (
    Scenario,
    ScenarioMismatch,
    SweepSpec,
    SweepVariable,
    improvement,
    run_sweep,
    summary_table,
    write_csv,
)
from semcache.reference import reference_kb, reference_topology, reference_workload
from semcache.sim import CacheLocation, Mode, run_simulation
from semcache.workload import generate_trace


@pytest.fixture(scope="module")
def kb():
    return reference_kb()


def small_workload(n_users=6):
    spec = reference_workload(n_users)
    return spec


class TestRunSweep:
    def test_single_point_matches_direct_run(self, kb):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        spec = SweepSpec(SweepVariable.CACHE_SIZE, (20_000_000,), scen, seed=42)
        points = run_sweep(spec, kb)
        assert len(points) == 2

        trace = generate_trace(kb, small_workload())
        direct, _ = run_simulation(
            reference_topology(), kb, trace, Mode.SEMANTIC, 42
        )
        sem = next(p for p in points if p.mode is Mode.SEMANTIC)
        assert sem.report.hit_ratio == direct.hit_ratio
        assert sem.report.mean_latency_ms == direct.mean_latency_ms

    def test_both_modes_on_identical_trace(self, kb):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        spec = SweepSpec(SweepVariable.USER_COUNT, (2, 4), scen, seed=1)
        points = run_sweep(spec, kb)
        assert [(p.value, p.mode) for p in points] == [
            (2, Mode.SEMANTIC),
            (2, Mode.TRADITIONAL),
            (4, Mode.SEMANTIC),
            (4, Mode.TRADITIONAL),
        ]
        for sem, trad in zip(points[::2], points[1::2]):
            assert sem.report.requests_total == trad.report.requests_total

    def test_location_sweep(self, kb):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        spec = SweepSpec(
            SweepVariable.CACHE_LOCATION,
            (CacheLocation.ENODEB, CacheLocation.PGW),
            scen,
            seed=1,
        )
        points = run_sweep(spec, kb)
        locations = {p.report.scenario["cache_location"] for p in points}
        assert locations == {"enodeb", "pgw"}

    def test_failure_names_sweep_point(self, kb):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        spec = SweepSpec(SweepVariable.CACHE_SIZE, (-5,), scen, seed=1)
        with pytest.raises(Exception, match="cache_size=-5"):
            run_sweep(spec, kb)


class TestImprovement:
    def _pair(self, kb, mode_pair=None):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        spec = SweepSpec(SweepVariable.CACHE_SIZE, (20_000_000,), scen, seed=42)
        points = run_sweep(spec, kb)
        sem = next(p.report for p in points if p.mode is Mode.SEMANTIC)
        trad = next(p.report for p in points if p.mode is Mode.TRADITIONAL)
        return sem, trad

    def test_arithmetic(self, kb):
        sem, trad = self._pair(kb)
        sem.hit_ratio, trad.hit_ratio = 0.50, 0.22
        out = improvement(sem, trad)
        assert out["hit_ratio_increase_pct"] == pytest.approx(127.27, abs=0.01)

    def test_equal_reports_zero(self, kb):
        sem, trad = self._pair(kb)
        trad.hit_ratio = sem.hit_ratio
        trad.mean_latency_ms = sem.mean_latency_ms
        out = improvement(sem, trad)
        assert out == {"hit_ratio_increase_pct": 0.0, "latency_decrease_pct": 0.0}

    def test_zero_traditional_gives_inf_marker(self, kb):
        sem, trad = self._pair(kb)
        trad.hit_ratio = 0.0
        out = improvement(sem, trad)
        assert math.isinf(out["hit_ratio_increase_pct"])

    def test_scenario_mismatch(self, kb):
        sem, trad = self._pair(kb)
        trad.scenario["cache_capacity"] = 123
        with pytest.raises(ScenarioMismatch):
            improvement(sem, trad)


class TestOutput:
    def test_csv_shape_and_determinism(self, kb):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        spec = SweepSpec(SweepVariable.CACHE_SIZE, (5_000_000, 20_000_000), scen, seed=3)

        def render():
            sink = io.StringIO()
            write_csv(run_sweep(spec, kb), sink)
            return sink.getvalue()

        first = render()
        assert first == render()
        lines = first.strip().splitlines()
        assert len(lines) == 1 + 4  # header + 2 values x 2 modes
        assert "hit_ratio" in lines[0]

    def test_summary_table(self, kb):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        spec = SweepSpec(SweepVariable.CACHE_SIZE, (20_000_000,), scen, seed=3)
        table = summary_table(run_sweep(spec, kb))
        assert "semantic" in table and "traditional" in table


class TestScenarioValidation:
    def test_requires_workload(self):
        with pytest.raises(TypeError):
            Scenario(topology=reference_topology())

    def test_empty_values_rejected(self):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        with pytest.raises(ValueError):
            SweepSpec(SweepVariable.CACHE_SIZE, (), scen)
