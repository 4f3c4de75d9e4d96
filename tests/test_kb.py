import contextlib
import io
import random
import shlex
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import semcache
from semcache import kb as kb_module
from semcache.cli import main
from semcache.codec import EntityKind, MetadataDescriptor
from semcache.kb import (
    KnowledgeBase,
    KnowledgeBaseError,
    MissingSizeError,
    MissingTypeError,
    ParseError,
    UnknownEntity,
    _plain_tokens,
    infer_next,
    load_knowledge_base,
)

REFERENCE_KB = Path(semcache.__file__).parent / "data" / "reference_kb.triples"

SMALL_KB = """\
# two married people and one series
"wiki/A" spouse "wiki/B"
"wiki/A" type Person
"wiki/A" size 40960
"wiki/B" type Person
"wiki/B" size 1000
"wiki/S" starring "wiki/A"
"wiki/S" starring "wiki/B"
"wiki/S" type TVSeries
"wiki/S" size 2000
"""


def small_kb() -> KnowledgeBase:
    return load_knowledge_base(io.StringIO(SMALL_KB))


class TestLoad:
    def test_counts(self):
        kb = small_kb()
        assert len(kb) == 3
        a, b = kb.describe("wiki/A"), kb.describe("wiki/B")
        assert kb.successors == {"wiki/A": (b,), "wiki/B": (), "wiki/S": (a, b)}
        assert kb.triples == 6
        assert {iri: kb.kind_of(iri) for iri in kb.descriptors} == {
            "wiki/A": EntityKind.PERSON,
            "wiki/B": EntityKind.PERSON,
            "wiki/S": EntityKind.TV_SERIES,
        }

    def test_empty_file(self):
        kb = load_knowledge_base(io.StringIO(""))
        assert len(kb) == 0
        assert kb.entities() == []

    def test_missing_size(self):
        text = '"wiki/A" spouse "wiki/C"\n"wiki/A" type Person\n"wiki/A" size 10\n"wiki/C" type Person\n'
        with pytest.raises(MissingSizeError) as exc:
            load_knowledge_base(io.StringIO(text))
        assert exc.value.iri == "wiki/C"
        assert exc.value.line_no == 1

    def test_first_missing_size_by_name_is_reported(self):
        text = '"wiki/B" type Person\n"wiki/A" type Person\n"wiki/A" spouse "wiki/B"\n'
        with pytest.raises(MissingSizeError) as exc:
            load_knowledge_base(io.StringIO(text))
        assert (exc.value.iri, exc.value.line_no) == ("wiki/A", 2)

    def test_missing_type(self):
        text = '"wiki/A" size 10\n'
        with pytest.raises(MissingTypeError):
            load_knowledge_base(io.StringIO(text))

    def test_parse_error_has_line_number(self):
        text = '"wiki/A" type Person\nbogus line here extra\n'
        with pytest.raises(ParseError) as exc:
            load_knowledge_base(io.StringIO(text))
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "line",
        [
            '"wiki/A" size -5',
            '"wiki/A" size 0',
            '"wiki/A" size many',
            '"wiki/A" type Robot',
            '"wiki/A" knows "wiki/B"',
            '"" spouse "wiki/B"',
            '"wiki/A" spouse ""',
        ],
    )
    def test_bad_lines(self, line):
        with pytest.raises(ParseError):
            load_knowledge_base(io.StringIO(line + "\n"))

    def test_duplicates_deduplicated_and_order_irrelevant(self):
        lines = [l for l in SMALL_KB.splitlines() if l and not l.startswith("#")]
        doubled = lines + lines
        kb1 = load_knowledge_base(io.StringIO("\n".join(doubled)))
        kb2 = load_knowledge_base(io.StringIO("\n".join(reversed(lines))))
        kb3 = small_kb()
        assert kb1.successors == kb2.successors == kb3.successors
        assert kb1.triples == kb2.triples == kb3.triples
        assert kb1.descriptors == kb2.descriptors == kb3.descriptors
        assert kb1.sizes == kb2.sizes == kb3.sizes

    def test_conflicting_type_rejected(self):
        text = '"wiki/A" type Person\n"wiki/A" type TVSeries\n'
        with pytest.raises(ParseError, match="conflicting type") as exc:
            load_knowledge_base(io.StringIO(text))
        assert exc.value.line_no == 2

    def test_conflicting_size_rejected(self):
        text = '"wiki/A" type Person\n"wiki/A" size 10\n"wiki/A" size 20\n'
        with pytest.raises(ParseError, match="conflicting size") as exc:
            load_knowledge_base(io.StringIO(text))
        assert exc.value.line_no == 3

    @pytest.mark.parametrize(
        "line, plain",
        [
            ('"wiki/A\x01B" type Person', True),
            ('"wiki/A\tB" type Person', False),
        ],
        ids=["plain-line", "shlex-line"],
    )
    def test_control_character_iri_fails_at_load(self, line, plain, tmp_path, capsys):
        assert (_plain_tokens(line) is not None) is plain
        text = f'"wiki/B" size 10\n{line}\n'
        with pytest.raises(ParseError, match="control characters") as exc:
            load_knowledge_base(io.StringIO(text))
        assert exc.value.line_no == 2
        path = tmp_path / "bad.triples"
        path.write_text(text, encoding="utf-8")
        assert main(["validate-kb", "--kb", str(path)]) == 1
        assert "line 2: entity_iri must not contain control characters" in capsys.readouterr().err

    def test_byte_order_mark_ignored(self, tmp_path):
        # The mark goes straight before the first triple, with no comment line.
        text = SMALL_KB.split("\n", 1)[1]
        plain, marked = tmp_path / "plain.triples", tmp_path / "marked.triples"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert load_knowledge_base(marked) == load_knowledge_base(plain) == small_kb()

    @pytest.mark.parametrize("iri", [" wiki/A", "wiki/A\xa0"], ids=["leading-space", "nbsp"])
    def test_edge_whitespace_iri_fails_at_type_line(self, iri):
        text = f'"{iri}" size 100\n"{iri}" type Person\n'
        with pytest.raises(ParseError, match="begin or end with whitespace") as exc:
            load_knowledge_base(io.StringIO(text))
        assert exc.value.line_no == 2


# Characters shlex treats specially (doubled, so they are drawn more often),
# whitespace it does and does not split on, non-ASCII letters, plain ones.
_TRICKY = "\"\"'\\\\##  \t\xa0şßaZz09/_-"


def _quoted(text: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return text.map(lambda t: f'"{t}"')


# The five parts of a plain line: subject, separator, keyword, separator, value.
_PLAIN_PARTS = [
    _quoted(st.text("wiki/AZş_09-", min_size=1, max_size=8)),
    st.sampled_from([" ", "\t", " \t"]),
    st.text("abcxyz", min_size=1, max_size=6),
    st.sampled_from([" ", "\t", " \t"]),
    st.one_of(
        _quoted(st.text("wiki/AZß_09-", min_size=1, max_size=8)),
        st.text("aZ09", min_size=1, max_size=6),
    ),
]


@st.composite
def _near_plain(draw) -> str:
    """A plain line with up to three characters inserted or overwritten."""
    line = "".join(draw(part) for part in _PLAIN_PARTS)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(st.sampled_from(_TRICKY)) + line[i + draw(st.integers(0, 1)) :]
    return line


# A newline as read from a file, CRLF as a plain iterable passes it, and
# trailing blanks.
_ENDINGS = ["\n", "\r\n", "  \n", " \t"]


def _load_outcome(lines):
    """The loaded knowledge base, or the type, line and message of its refusal."""
    try:
        return load_knowledge_base(lines)
    except KnowledgeBaseError as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)


class TestPlainTokens:
    """The regex fast path either declines a line or agrees with ``shlex``."""

    @given(line=st.one_of(st.text(_TRICKY, max_size=30), _near_plain()))
    @example(line='"wiki/A"\ttype\tPerson')
    @example(line='"wiki/A"\xa0type Person')
    @example(line='"wiki/A" type\xa0Person')
    @example(line='"wiki/#A" spouse "wiki/B"')
    @example(line='"" spouse "wiki/B"')
    @example(line='"wiki/A" size -5')
    @settings(max_examples=1000, deadline=None)
    def test_declines_or_matches_shlex(self, line):
        tokens = _plain_tokens(line)
        if tokens is not None:
            assert tokens == tuple(shlex.split(line, comments=True))

    @pytest.mark.parametrize(
        "line, tokens",
        [
            ('"wiki/A" spouse "wiki/B"', ("wiki/A", "spouse", "wiki/B")),
            ('"wiki/A"\ttype \t Person', ("wiki/A", "type", "Person")),
            ('"wiki/ş_ß" size 40960', ("wiki/ş_ß", "size", "40960")),
        ],
    )
    def test_plain_line_accepted(self, line, tokens):
        assert _plain_tokens(line) == tokens

    @given(line=st.one_of(st.text(_TRICKY, max_size=30), _near_plain()))
    @example(line='"wiki/A" type Person')
    @example(line='"wiki/A" size 10 ')
    @example(line='"wiki/A" spouse ""')
    @settings(max_examples=500, deadline=None)
    def test_line_ending_changes_nothing(self, line):
        """A line loads the same bare, with a newline, with CRLF from a plain
        iterable and with trailing blanks, whichever path reads it."""
        expected = _load_outcome([line])
        for end in _ENDINGS:
            assert _load_outcome([line + end]) == expected, end

    def test_every_reference_line_is_plain(self):
        lines = REFERENCE_KB.read_text(encoding="utf-8").splitlines()
        data = [l for l in map(str.strip, lines) if l and not l.startswith("#")]
        assert len(data) == 700
        assert all(_plain_tokens(l) == tuple(shlex.split(l, comments=True)) for l in data)


class TestFallback:
    """Lines the fast path declines load exactly as ``shlex`` reads them."""

    @pytest.mark.parametrize(
        "line, iri",
        [
            ('"wiki/A B" type Person', "wiki/A B"),
            ('"wiki/A\\"B" type Person', 'wiki/A"B'),
            ('"wiki/A" type Person # a comment', "wiki/A"),
            ("'wiki/A' type Person", "wiki/A"),
            ("wiki/A type Person", "wiki/A"),
        ],
    )
    def test_declined_line_loads(self, line, iri):
        assert _plain_tokens(line) is None
        kb = load_knowledge_base(io.StringIO(f"{line}\n{shlex.quote(iri)} size 10\n"))
        assert {i: kb.kind_of(i) for i in kb.descriptors} == {iri: EntityKind.PERSON}
        assert kb.sizes == {iri: 10}

    @pytest.mark.parametrize(
        "line",
        [
            '"wiki/A" type Person # a comment',
            "'wiki/A' type Person",
            '"wiki/A" type Person  ',
            '  "wiki/A" type Person',
            '"wiki/A spouse "wiki/B"',
            '"wiki/A" size many',
        ],
    )
    def test_line_ending_changes_nothing(self, line):
        lines = ['"wiki/A" size 10\n', line]
        expected = _load_outcome(lines)
        for end in _ENDINGS:
            assert _load_outcome(lines[:1] + [line + end]) == expected, end

    def test_bad_quoting_reports_line(self):
        text = '"wiki/A" type Person\n"wiki/A spouse "wiki/B"\n'
        with pytest.raises(ParseError, match="bad quoting") as exc:
            load_knowledge_base(io.StringIO(text))
        assert exc.value.line_no == 2


class TestFallbackCalls:
    """A plain raw line is split by the regex alone: no line of the reference
    KB reaches ``_plain_tokens`` or ``shlex``, and only a line that is not
    plain, such as one ending in a comment, takes the fallback."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        plain_tokens = kb_module._plain_tokens

        def counted(line):
            calls.append(line)
            return plain_tokens(line)

        monkeypatch.setattr(kb_module, "_plain_tokens", counted)
        return calls

    def test_reference_kb_takes_no_fallback(self, fallbacks):
        assert len(load_knowledge_base(REFERENCE_KB)) == 200
        assert fallbacks == []

    def test_commented_line_takes_fallback(self, fallbacks):
        kb = load_knowledge_base(['"wiki/A" size 10\n', '"wiki/A" type Person # note\n'])
        assert kb.sizes == {"wiki/A": 10}
        assert fallbacks == ['"wiki/A" type Person # note']


class TestDescribe:
    def test_one_descriptor_per_entity(self):
        kb = small_kb()
        for iri in kb.entities():
            assert kb.describe(iri) is kb.describe(iri)
            assert kb.describe(iri).entity_iri == iri

    def test_unknown_entity(self):
        kb = small_kb()
        with pytest.raises(UnknownEntity):
            kb.describe("wiki/Nope")
        with pytest.raises(UnknownEntity):
            kb.kind_of("wiki/Nope")


def _generated_kb_lines(n_entities: int, seed: int) -> list[str]:
    """A shuffled KB: three fifths persons, three quarters of them married in
    pairs, and every series starring one to five persons."""
    rng = random.Random(seed)
    n_persons = n_entities * 3 // 5
    persons = [f"wiki/People/Person_{rng.randrange(10**6)}_{i}" for i in range(n_persons)]
    series = [f"wiki/TV/Series_{rng.randrange(10**6)}_{i}" for i in range(n_entities - n_persons)]
    married = rng.sample(persons, n_persons * 3 // 4 // 2 * 2)
    lines = [f'"{a}" spouse "{married[i ^ 1]}"\n' for i, a in enumerate(married)]
    for s in series:
        lines += [f'"{s}" starring "{p}"\n' for p in rng.sample(persons, rng.randint(1, 5))]
    for kind, iris in (("Person", persons), ("TVSeries", series)):
        for iri in iris:
            lines += [f'"{iri}" type {kind}\n', f'"{iri}" size {rng.randint(20_000, 200_000)}\n']
    rng.shuffle(lines)
    return lines


class TestMemory:
    def test_one_str_per_iri(self):
        # wiki/B is first read from a line with a comment, which shlex splits.
        text = '"wiki/B" size 1000 # declared twice\n' + SMALL_KB
        assert _plain_tokens(text.splitlines()[0]) is None
        kb = load_knowledge_base(io.StringIO(text))
        descriptor_keys = {iri: iri for iri in kb.descriptors}
        successor_keys = {iri: iri for iri in kb.successors}
        assert len(kb.sizes) == 3
        for iri in kb.sizes:
            assert descriptor_keys[iri] is iri
            assert kb.descriptors[iri].entity_iri is iri
            assert successor_keys[iri] is iri

    def test_working_set_is_bounded_by_the_kb(self):
        lines = _generated_kb_lines(2_000, seed=1)
        tracemalloc.start()
        try:
            kb = load_knowledge_base(lines)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kb) == 2_000
        assert peak <= 1.8 * retained, (peak, retained)


class TestInference:
    def test_person_spouse(self):
        kb = small_kb()
        result = infer_next(kb, kb.describe("wiki/A"))
        assert result == (MetadataDescriptor("wiki/B", EntityKind.PERSON),)

    def test_series_stars_sorted(self):
        kb = small_kb()
        result = infer_next(kb, kb.describe("wiki/S"))
        assert [d.entity_iri for d in result] == ["wiki/A", "wiki/B"]

    def test_no_relations_empty(self):
        kb = small_kb()
        assert infer_next(kb, kb.describe("wiki/B")) == ()

    def test_unknown_entity(self):
        kb = small_kb()
        with pytest.raises(UnknownEntity):
            infer_next(kb, MetadataDescriptor("wiki/Nope", EntityKind.PERSON))

    def test_closed_world_and_purity(self):
        kb = small_kb()
        for iri in kb.entities():
            out1 = infer_next(kb, kb.describe(iri))
            out2 = infer_next(kb, kb.describe(iri))
            assert out1 == out2
            assert all(d.entity_iri in kb for d in out1)
            assert all(d is kb.describe(d.entity_iri) for d in out1)

    def test_multiple_spouses_all_returned(self):
        text = (
            '"wiki/A" spouse "wiki/C"\n"wiki/A" spouse "wiki/B"\n'
            '"wiki/A" type Person\n"wiki/A" size 1\n'
            '"wiki/B" type Person\n"wiki/B" size 1\n'
            '"wiki/C" type Person\n"wiki/C" size 1\n'
        )
        kb = load_knowledge_base(io.StringIO(text))
        assert [d.entity_iri for d in infer_next(kb, kb.describe("wiki/A"))] == [
            "wiki/B",
            "wiki/C",
        ]


# IRIs whose sort order differs from their list order.
_NAMES = ["wiki/Zed", "wiki/alice", "wiki/Bob", "wiki/bob", "wiki/Ş"]
_RELATION = st.tuples(
    st.integers(0, len(_NAMES) - 1),
    st.sampled_from(["spouse", "starring"]),
    st.integers(0, len(_NAMES) - 1),
)


class TestRuleAgainstOracle:
    """Inference and the triple count on random files, against the README's rule."""

    @given(
        kinds=st.lists(st.sampled_from(["Person", "TVSeries"]), min_size=1, max_size=len(_NAMES)),
        relations=st.lists(_RELATION, max_size=12),
        repeats=st.lists(st.integers(0, 100), max_size=6),
        order=st.randoms(use_true_random=False),
    )
    @example(
        # A Person's starring line, a TVSeries's spouse line and a self-loop.
        kinds=["Person", "TVSeries"],
        relations=[(0, "starring", 1), (1, "spouse", 0), (0, "spouse", 0)],
        repeats=[],
        order=random.Random(0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, kinds, relations, repeats, order):
        names = _NAMES[: len(kinds)]
        triples = {(names[s % len(names)], p, names[o % len(names)]) for s, p, o in relations}
        lines = [f'"{s}" {p} "{o}"' for s, p, o in sorted(triples)]
        for name, kind in zip(names, kinds):
            lines += [f'"{name}" type {kind}', f'"{name}" size 10']
        lines += [lines[i % len(lines)] for i in repeats]
        order.shuffle(lines)
        text = "\n".join(lines) + "\n"

        # A Person is followed to its spouses, a TVSeries to its stars; any
        # other relation line is loaded but not followed.
        followed = {"Person": "spouse", "TVSeries": "starring"}
        kb = load_knowledge_base(io.StringIO(text))
        for name, kind in zip(names, kinds):
            expected = sorted({o for s, p, o in triples if s == name and p == followed[kind]})
            assert [d.entity_iri for d in infer_next(kb, kb.describe(name))] == expected

        # One triple per distinct relation line and one per type declaration.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "kb.triples"
            path.write_text(text, encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["validate-kb", "--kb", str(path)]) == 0
        assert out.getvalue().endswith(f", {len(triples) + len(names)} triples\n")
