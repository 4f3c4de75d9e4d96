import csv
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_trace import outcome, reference_load_trace
from semcache import workload
from semcache.kb import infer_next, load_knowledge_base
from semcache.reference import reference_kb, reference_workload
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


@pytest.fixture
def built(monkeypatch):
    """The ``TraceEntry``s constructed from here on, by any caller."""
    entries = []
    check = TraceEntry.__post_init__

    def counting(self):
        entries.append(self)
        check(self)

    monkeypatch.setattr(TraceEntry, "__post_init__", counting)
    return entries


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
        [
            ("2,0,wiki/B", "expected 4 columns, got 3"),
            ("2,0,0, ", "^line 2: entity_iri must be non-empty, got ''$"),
            ("-1,0,0,wiki/B", r"^line 2: time_ms must be finite and >= 0, got -1\.0$"),
            ("nan,0,0,wiki/B", "^line 2: time_ms must be finite and >= 0, got nan$"),
            ("inf,0,0,wiki/B", "^line 2: time_ms must be finite and >= 0, got inf$"),
            # A lone carriage return inside a row is a line break ``csv`` refuses.
            ("2,0,0,wiki/B\r3,0,0,wiki/C", "unreadable row: new-line character"),
        ],
        ids=[
            "three-columns", "empty-iri", "negative-time", "nan-time", "inf-time", "carriage-return"
        ],
    )
    def test_refused_row_names_line(self, row, match):
        with pytest.raises(ParseError, match=match) as exc:
            load_trace(io.StringIO(f"1,0,0,wiki/A\n{row}\n"))
        assert exc.value.line_no == 2

    def test_stable_sort_among_ties(self):
        csv_text = "5,0,0,wiki/A\n5,1,0,wiki/B\n5,2,0,wiki/C\n"
        entries = load_trace(io.StringIO(csv_text))
        assert [e.user_id for e in entries] == [0, 1, 2]

    def test_one_str_per_iri_and_no_dict(self):
        """An entry is four slots, and the rows of one IRI share its string."""
        entries = load_trace(io.StringIO("1,0,0,wiki/Alice\n2,1,0,wiki/Bob\n3,2,1, wiki/Alice\n"))
        assert not hasattr(entries[0], "__dict__")
        assert entries[0].entity_iri is entries[2].entity_iri
        assert entries[1].entity_iri == "wiki/Bob"

    def test_entries_built_only_when_read(self, built):
        """The loader keeps columns: a 3-row trace builds no entry until it is
        read, and each read builds the entries it returns and keeps none."""
        trace = load_trace(io.StringIO("3,0,1,wiki/C\n1,1,0,wiki/A\n2,2,1,wiki/B\n"))
        assert built == []
        assert [e.entity_iri for e in trace] == ["wiki/A", "wiki/B", "wiki/C"]
        assert len(built) == 3
        assert trace[-1] == TraceEntry(3.0, 0, 1, "wiki/C")
        assert len(built) == 5  # the entry read, and the one it was compared with

    def test_a_trace_reads_as_a_list_of_entries(self):
        entries = [
            TraceEntry(1.0, 1, 0, "wiki/A"),
            TraceEntry(2.0, 2, 1, "wiki/B"),
            TraceEntry(3.0, 0, 1, "wiki/C"),
        ]
        trace = load_trace(io.StringIO("3,0,1,wiki/C\n1,1,0,wiki/A\n2,2,1,wiki/B\n"))
        assert trace == entries and entries == trace
        assert trace != entries[:2] and trace != entries[::-1]
        assert type(trace[1:]) is list and trace[1:] == entries[1:]
        assert list(trace) == list(trace) == entries
        assert len(trace) == 3 and trace[1] == entries[1] and trace[-1] == entries[-1]
        with pytest.raises(IndexError):
            trace[3]

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

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "time_ms,user_id,cell_id,entity_iri\r\n5,0,0,wiki/A\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert load_trace(marked) == load_trace(plain) == [TraceEntry(5.0, 0, 0, "wiki/A")]


# Characters ``csv`` or the loader treat specially, and plain ones.
_TRICKY_CSV = '",\r\n\0 \t#\xa0ş' + "aZ09./"

# The four fields of a row, valid or not, the header's names among them.
_ROW_FIELDS = [
    st.sampled_from(["0", "1.5", " 2.25", "-1", "nan", "1e400", "time_ms", "x"]),
    st.sampled_from(["0", "3", " 1 ", "user_id", "zero"]),
    st.sampled_from(["0", "2", "cell_id", "1.0"]),
    st.sampled_from(["wiki/A", " wiki/B ", "wiki/ş", "entity_iri", "", '"wiki/A,B"']),
]


@st.composite
def _near_row(draw) -> str:
    """A four-field row with up to three characters inserted or overwritten."""
    row = ",".join(draw(field) for field in _ROW_FIELDS)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(row)))
        row = row[:i] + draw(st.sampled_from(_TRICKY_CSV)) + row[i + draw(st.integers(0, 1)) :]
    return row


class TestLoadTraceDifferential:
    """``load_trace`` reads every file as the loader that passed each row
    through ``csv.reader`` did: the same entries, or the same refusal."""

    @given(rows=st.lists(st.one_of(st.text(_TRICKY_CSV, max_size=20), _near_row()), max_size=4))
    @example(rows=["1,0,0,wiki/A\rB"])
    @example(rows=["1,0,0,wiki/\0A"])
    @example(rows=['1,0,0,"wiki/A,B"'])
    @example(rows=[" time_ms , user_id ,cell_id,\tentity_iri ", "1,0,0,wiki/A"])
    @settings(max_examples=1000, deadline=None)
    def test_matches_csv_reader(self, rows):
        lines = [row + "\n" for row in rows]
        assert outcome(load_trace, lines) == outcome(reference_load_trace, lines)

    @pytest.fixture
    def field_limit(self):
        default = csv.field_size_limit()
        yield default
        csv.field_size_limit(default)

    @pytest.mark.parametrize("excess", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("limit", [None, 16], ids=["default-limit", "limit-16"])
    def test_field_size_limit(self, field_limit, limit, excess):
        """A row longer than the limit goes to ``csv``, which refuses a field
        longer than the limit, however the limit was set."""
        if limit is not None:
            csv.field_size_limit(limit)
        iri = "wiki/" + "a" * ((limit or field_limit) + excess - 5)
        lines = ["1,0,0,wiki/A\n", f"2,0,0,{iri}\n"]
        expected = outcome(reference_load_trace, lines)
        assert outcome(load_trace, lines) == expected
        assert isinstance(expected, list) is (excess <= 0)


class TestLoadTraceFallback:
    """A row ``csv`` reads as ``str.split`` does never reaches ``csv.reader``."""

    @pytest.fixture
    def readers(self, monkeypatch):
        calls = []
        csv_reader = csv.reader

        def reader(lines):
            calls.append(lines)
            return csv_reader(lines)

        monkeypatch.setattr(workload.csv, "reader", reader)
        return calls

    def test_saved_trace_takes_no_fallback(self, readers):
        trace = generate_trace(reference_kb(), reference_workload())
        sink = io.StringIO()
        save_trace(trace, sink)
        assert load_trace(io.StringIO(sink.getvalue())) == trace
        assert readers == []

    def test_quoted_row_takes_fallback(self, readers):
        entries = load_trace(io.StringIO('2,0,0,wiki/B\n1,0,0,"wiki/A"\n'))
        assert [e.entity_iri for e in entries] == ["wiki/A", "wiki/B"]
        assert readers == [['1,0,0,"wiki/A"']]


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

    def test_time_overflowing_to_inf_refused(self):
        spec = SyntheticSpec(n_users=1, requests_per_user=(2, 2), gap_ms=1e308)
        with pytest.raises(ValueError, match="^time_ms must be finite and >= 0, got inf$"):
            generate_trace(chain_kb(), spec)

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

    @pytest.mark.parametrize(
        "gap, last",
        [(0.0, 0.0), ((0.0, 5.0), 15.0), ((5.0, 5.0), 15.0)],
        ids=["zero", "from-zero", "equal-ends"],
    )
    def test_boundary_gaps_accepted(self, gap, last):
        """A gap of 0, a range from 0 and a range of one value are valid."""
        spec = SyntheticSpec(n_users=1, requests_per_user=(3, 3), gap_ms=gap)
        trace = generate_trace(chain_kb(), spec)
        assert len(trace) == 3 and trace[-1].time_ms <= last

    def test_fixed_gap(self):
        kb = chain_kb()
        trace = generate_trace(
            kb, SyntheticSpec(n_users=1, requests_per_user=(5, 5), gap_ms=100.0, seed=0)
        )
        times = [e.time_ms for e in trace]
        assert times == [100.0, 200.0, 300.0, 400.0, 500.0]
