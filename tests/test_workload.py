import io

import pytest

from semcache.kb import infer_next, load_knowledge_base
from semcache.workload import (
    EmptyKnowledgeBase,
    ParseError,
    SyntheticSpec,
    TraceEntry,
    generate_trace,
    load_trace,
    save_trace,
)


def chain_kb(n=12):
    """Every entity has exactly one inference successor (a spouse cycle)."""
    lines = []
    for i in range(n):
        a, b = f"wiki/P{i:02d}", f"wiki/P{(i + 1) % n:02d}"
        lines.append(f'"{a}" spouse "{b}"')
        lines.append(f'"{a}" type Person')
        lines.append(f'"{a}" size 1000')
    return load_knowledge_base(io.StringIO("\n".join(lines)))


class TestTraceEntry:
    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -1.0])
    def test_time_must_be_finite_and_non_negative(self, time):
        with pytest.raises(ValueError, match=f"time_ms must be finite and >= 0, got {time}"):
            TraceEntry(time, 0, 0, "wiki/A")

    def test_iri_must_be_non_empty(self):
        with pytest.raises(ValueError, match="entity_iri must be non-empty, got ''"):
            TraceEntry(0.0, 0, 0, "")


class TestLoadTrace:
    def test_fixture_rows_sorted(self):
        csv_text = (
            "time_ms,user_id,cell_id,entity_iri\n"
            "20,1,0,wiki/B\n"
            "5,0,0,wiki/A\n"
            "10,0,1,wiki/C\n"
        )
        entries = load_trace(io.StringIO(csv_text))
        assert [e.entity_iri for e in entries] == ["wiki/A", "wiki/C", "wiki/B"]
        assert entries[0] == TraceEntry(5.0, 0, 0, "wiki/A")

    def test_negative_time(self):
        with pytest.raises(ParseError, match="finite and >= 0") as exc:
            load_trace(io.StringIO("-1,0,0,wiki/A\n"))
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_non_finite_time(self, time):
        with pytest.raises(ParseError, match="finite and >= 0") as exc:
            load_trace(io.StringIO(f"1,0,0,wiki/A\n{time},0,0,wiki/A\n"))
        assert exc.value.line_no == 2

    def test_malformed_row_names_line(self):
        with pytest.raises(ParseError) as exc:
            load_trace(io.StringIO("1,0,0,wiki/A\n2,zero,0,wiki/B\n"))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "row, match",
        [("2,0,wiki/B", "expected 4 columns, got 3"), ("2,0,0, ", "entity_iri must be non-empty")],
        ids=["three-columns", "empty-iri"],
    )
    def test_refused_row_names_line(self, row, match):
        with pytest.raises(ParseError, match=match) as exc:
            load_trace(io.StringIO(f"1,0,0,wiki/A\n{row}\n"))
        assert exc.value.line_no == 2

    def test_stable_sort_among_ties(self):
        csv_text = "5,0,0,wiki/A\n5,1,0,wiki/B\n5,2,0,wiki/C\n"
        entries = load_trace(io.StringIO(csv_text))
        assert [e.user_id for e in entries] == [0, 1, 2]

    def test_comments_and_blanks_skipped(self):
        csv_text = "# a comment\n\n1,0,0,wiki/A\n"
        assert len(load_trace(io.StringIO(csv_text))) == 1

    def test_round_trip_through_csv(self):
        kb = chain_kb()
        spec = SyntheticSpec(n_users=3, requests_per_user=(5, 8), seed=3)
        trace = generate_trace(kb, spec)
        sink = io.StringIO()
        save_trace(trace, sink)
        assert load_trace(io.StringIO(sink.getvalue())) == trace


class TestGenerateTrace:
    def test_p_follow_one_walks_the_chain(self):
        kb = chain_kb()
        spec = SyntheticSpec(n_users=4, requests_per_user=(6, 6), p_follow=1.0, seed=11)
        trace = generate_trace(kb, spec)
        per_user = {}
        for e in sorted(trace, key=lambda e: (e.user_id, e.time_ms)):
            per_user.setdefault(e.user_id, []).append(e.entity_iri)
        for iris in per_user.values():
            for prev, cur in zip(iris, iris[1:]):
                successors = [d.entity_iri for d in infer_next(kb, kb.describe(prev))]
                assert [cur] == successors or cur in successors

    def test_p_follow_zero_is_chance_level(self):
        kb = chain_kb(100)
        spec = SyntheticSpec(
            n_users=100, requests_per_user=(100, 100), p_follow=0.0, seed=5
        )
        trace = generate_trace(kb, spec)
        follows = total = 0
        per_user = {}
        for e in sorted(trace, key=lambda e: (e.user_id, e.time_ms)):
            per_user.setdefault(e.user_id, []).append(e.entity_iri)
        for iris in per_user.values():
            for prev, cur in zip(iris, iris[1:]):
                total += 1
                succ = [d.entity_iri for d in infer_next(kb, kb.describe(prev))]
                follows += cur in succ
        # Chance level is 1/100 over ~10^4 pairs; allow a generous band.
        assert total >= 9_900
        assert 0.001 < follows / total < 0.03

    def test_request_count_bounds(self):
        kb = chain_kb()
        spec = SyntheticSpec(n_users=5, requests_per_user=(20, 30), seed=2)
        trace = generate_trace(kb, spec)
        assert 100 <= len(trace) <= 150
        counts = {}
        for e in trace:
            counts[e.user_id] = counts.get(e.user_id, 0) + 1
        assert all(20 <= c <= 30 for c in counts.values())

    def test_reproducible(self):
        kb = chain_kb()
        spec = SyntheticSpec(n_users=6, seed=42)
        assert generate_trace(kb, spec) == generate_trace(kb, spec)

    def test_all_iris_exist(self):
        kb = chain_kb()
        trace = generate_trace(kb, SyntheticSpec(n_users=8, seed=1))
        assert all(e.entity_iri in kb for e in trace)

    def test_cells_round_robin(self):
        kb = chain_kb()
        trace = generate_trace(kb, SyntheticSpec(n_users=6, n_cells=3, seed=1))
        assert all(e.cell_id == e.user_id % 3 for e in trace)

    def test_empty_kb(self):
        kb = load_knowledge_base(io.StringIO(""))
        with pytest.raises(EmptyKnowledgeBase):
            generate_trace(kb, SyntheticSpec(n_users=1))

    def test_sorted_by_time(self):
        kb = chain_kb()
        trace = generate_trace(kb, SyntheticSpec(n_users=10, seed=9))
        assert all(a.time_ms <= b.time_ms for a, b in zip(trace, trace[1:]))


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"n_users": 1, "p_follow": 1.5},
            {"n_users": 1, "requests_per_user": (5, 3)},
            {"n_users": 1, "gap_ms": (-1.0, 5.0)},
            {"n_users": 1, "n_cells": 0},
            {"n_users": 1, "gap_ms": float("nan")},
            {"n_users": 1, "gap_ms": float("inf")},
            {"n_users": 1, "gap_ms": (1.0, float("inf"))},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("n_users", {"n_users": 2.0}),
            ("n_cells", {"n_users": 1, "n_cells": 2.0}),
            ("requests_per_user", {"n_users": 1, "requests_per_user": (2.0, 3)}),
        ],
    )
    def test_non_int_counts(self, field, kwargs):
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            SyntheticSpec(**kwargs)

    def test_fixed_gap(self):
        kb = chain_kb()
        trace = generate_trace(
            kb, SyntheticSpec(n_users=1, requests_per_user=(5, 5), gap_ms=100.0, seed=0)
        )
        times = [e.time_ms for e in trace]
        assert times == [100.0, 200.0, 300.0, 400.0, 500.0]
