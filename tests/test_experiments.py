import io
import math
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import fields, replace

import pytest

import semcache.sim as sim_module
from semcache import experiments
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
from semcache.kb import KnowledgeBase
from semcache.reference import reference_kb, reference_topology, reference_workload
from semcache.sim import CacheLocation, Mode, run_simulation
from semcache.workload import TraceEntry, generate_trace


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

    @pytest.mark.parametrize(
        "variable, values, calls",
        [
            (SweepVariable.CACHE_LOCATION, tuple(CacheLocation), 1),
            (SweepVariable.CACHE_SIZE, (1_000_000, 20_000_000), 1),
            (SweepVariable.USER_COUNT, (2, 4, 6), 3),
        ],
    )
    def test_one_trace_per_workload(self, kb, monkeypatch, variable, values, calls):
        generated = []

        def counting(kb, workload):
            generated.append(workload)
            return generate_trace(kb, workload)

        monkeypatch.setattr(experiments, "generate_trace", counting)
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        run_sweep(SweepSpec(variable, values, scen, seed=1), kb)
        assert len(generated) == calls

    def location_sweep(self, kb):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        run_sweep(SweepSpec(SweepVariable.CACHE_LOCATION, tuple(CacheLocation), scen, seed=1), kb)

    def test_simulations_see_a_plain_trace(self, kb, monkeypatch):
        """The benchmark swaps ``experiments.run_simulation`` for a capture
        and reads each trace it is handed with ``len``, iteration and ``list``."""
        real = experiments.run_simulation
        calls = []

        def capture(topology, kb, trace, mode, *args, **kwargs):
            report, records = real(topology, kb, trace, mode, *args, **kwargs)
            calls.append((trace, records))
            return report, records

        monkeypatch.setattr(experiments, "run_simulation", capture)
        self.location_sweep(kb)
        expected = generate_trace(kb, replace(small_workload(), seed=1))
        assert len(calls) == 6
        for trace, records in calls:
            assert isinstance(trace, Sequence)
            assert all(isinstance(entry, TraceEntry) for entry in trace)
            assert list(trace) == expected
            assert len(trace) == len(records)

    def test_trace_described_once_per_sweep(self, kb, monkeypatch):
        """Every simulation of a sweep reuses its trace's descriptors and
        header sizes: each is worked out once, not once per point.  A header
        is sized once per distinct IRI byte length, with no further ``describe``."""
        calls = Counter()
        header_size, describe = sim_module._header_size, KnowledgeBase.describe

        def counting_header_size(iri_len):
            calls["header_size"] += 1
            return header_size(iri_len)

        def counting_describe(self, iri):
            calls["describe"] += 1
            return describe(self, iri)

        monkeypatch.setattr(sim_module, "_header_size", counting_header_size)
        monkeypatch.setattr(KnowledgeBase, "describe", counting_describe)
        trace = generate_trace(kb, replace(small_workload(), seed=1))
        by_generate = calls["describe"]
        calls.clear()
        self.location_sweep(kb)
        assert calls["header_size"] == len({len(e.entity_iri.encode()) for e in trace})
        # The trace's entries once, plus generate_trace.
        assert calls["describe"] == len(trace) + by_generate

    def test_one_level_pass_per_access_link(self, kb, monkeypatch):
        """A location sweep's one trace works out its arrivals at each cache
        depth once, from the depth a link shorter, and every run shares
        them: one sort per access link, three in all, where working them out
        per run took twelve."""
        sorts = []

        def counting_sorted(*args, **kwargs):
            sorts.append(1)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(sim_module, "sorted", counting_sorted, raising=False)
        self.location_sweep(kb)
        assert len(sorts) == 3

    def test_topology_run_knobs_reach_every_point(self, kb):
        """A sweep runs its topology's eviction policy and prefetch cap: each
        point equals a direct run on that topology, and Semantic prefetches
        nothing.  At 500 kB FIFO and LRU give different reports."""
        topology = replace(reference_topology(), eviction="fifo", max_prefetch=0)
        scen = Scenario(topology, small_workload())
        points = run_sweep(SweepSpec(SweepVariable.CACHE_SIZE, (500_000, 20_000_000), scen, 1), kb)
        trace = generate_trace(kb, replace(small_workload(), seed=1))
        for p in points:
            point_topology = replace(topology, cache_capacity=p.value)
            direct, _ = run_simulation(point_topology, kb, trace, p.mode, 1)
            direct.scenario.update(sweep_variable="cache_size", sweep_value=str(p.value))
            assert p.report == direct
            if p.mode is Mode.SEMANTIC:
                assert p.report.prefetched_bytes == 0
            if p.value == 500_000:
                lru = replace(point_topology, eviction="lru")
                assert run_simulation(lru, kb, trace, p.mode, 1)[0] != direct

    @pytest.mark.parametrize("value", ["nope", "enodeb"])
    def test_location_values_must_be_cache_locations(self, kb, monkeypatch, value):
        """A bad location is refused before any point runs."""
        calls = []
        real = experiments.run_simulation

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_simulation", counting)
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        with pytest.raises(TypeError, match=repr(value)):
            spec = SweepSpec(SweepVariable.CACHE_LOCATION, (CacheLocation.ENODEB, value), scen)
            run_sweep(spec, kb)
        assert calls == []

    @pytest.mark.parametrize(
        "variable, values",
        [(SweepVariable.CACHE_SIZE, (20_000_000, -5)), (SweepVariable.USER_COUNT, (2, 0))],
        ids=["cache-size", "user-count"],
    )
    def test_out_of_range_value_refused_before_any_point(self, kb, monkeypatch, variable, values):
        """The type that owns the swept value refuses it when the spec is built."""
        calls = []
        real = experiments.run_simulation

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_simulation", counting)
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        with pytest.raises(ValueError, match=f"{variable.value} sweep value {values[1]}"):
            run_sweep(SweepSpec(variable, values, scen), kb)
        assert calls == []

    def test_failure_names_sweep_point(self, kb):
        # The trace's 8 cells exceed the topology's 4, which only running finds.
        scen = Scenario(reference_topology(), replace(small_workload(), n_cells=8))
        spec = SweepSpec(SweepVariable.CACHE_SIZE, (20_000_000,), scen, seed=1)
        with pytest.raises(Exception, match="cache_size=20000000 failed: .*outside topology"):
            run_sweep(spec, kb)

    def test_variable_must_be_a_sweep_variable(self):
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        with pytest.raises(TypeError, match="'user_count'"):
            SweepSpec("user_count", (2,), scen)

    @pytest.mark.parametrize(
        "variable, value",
        [
            (SweepVariable.USER_COUNT, 2.9),
            (SweepVariable.USER_COUNT, True),
            (SweepVariable.USER_COUNT, "2"),
            (SweepVariable.CACHE_SIZE, 20_000_000.7),
            (SweepVariable.CACHE_SIZE, 20_000_000.0),
        ],
    )
    def test_count_values_must_be_ints(self, variable, value):
        # A truncated value would run one point and report another.
        scen = Scenario(topology=reference_topology(), workload=small_workload())
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            SweepSpec(variable, (1, value), scen)


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

    def test_empty_traces_give_zeros(self, kb):
        # No request: both hit ratios and Traditional's mean latency are 0.
        sem, trad = (run_simulation(reference_topology(), kb, [], mode)[0] for mode in Mode)
        assert trad.mean_latency_ms == 0.0
        out = improvement(sem, trad)
        assert out == {"hit_ratio_increase_pct": 0.0, "latency_decrease_pct": 0.0}

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

    def test_no_points_write_nothing(self):
        sink = io.StringIO()
        write_csv([], sink)
        assert sink.getvalue() == ""

    def test_report_as_dict_is_a_copy_of_every_field(self, kb):
        report, _ = run_simulation(reference_topology(), kb, [], Mode.SEMANTIC, seed=5)
        out = report.as_dict()
        assert out == {field.name: getattr(report, field.name) for field in fields(report)}
        assert out["scenario"]["seed"] == 5
        out["scenario"]["seed"] = 6
        assert report.scenario["seed"] == 5

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
