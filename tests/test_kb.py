import io

import pytest

from semcache.codec import EntityKind, MetadataDescriptor
from semcache.kb import (
    KnowledgeBase,
    MissingSizeError,
    MissingTypeError,
    ParseError,
    Predicate,
    Triple,
    UnknownEntity,
    infer_next,
    load_knowledge_base,
    null_inference,
)

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
        relations = [t for t in kb.triples if t.predicate is not Predicate.TYPE_OF]
        assert len(relations) == 3
        assert sum(1 for t in relations if t.predicate is Predicate.SPOUSE) == 1

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
            '"wiki/A" size many',
            '"wiki/A" type Robot',
            '"wiki/A" knows "wiki/B"',
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
        assert kb1.triples == kb2.triples == kb3.triples
        assert kb1.sizes == kb2.sizes == kb3.sizes

    def test_conflicting_type_rejected(self):
        text = '"wiki/A" type Person\n"wiki/A" type TVSeries\n'
        with pytest.raises(ParseError):
            load_knowledge_base(io.StringIO(text))


class TestInference:
    def test_person_spouse(self):
        kb = small_kb()
        result = infer_next(kb, kb.describe("wiki/A"))
        assert result == [MetadataDescriptor("wiki/B", EntityKind.PERSON)]

    def test_series_stars_sorted(self):
        kb = small_kb()
        result = infer_next(kb, kb.describe("wiki/S"))
        assert [d.entity_iri for d in result] == ["wiki/A", "wiki/B"]

    def test_no_relations_empty(self):
        kb = small_kb()
        assert infer_next(kb, kb.describe("wiki/B")) == []

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

    def test_null_inference(self):
        kb = small_kb()
        assert null_inference(kb, kb.describe("wiki/A")) == []


def test_triple_requires_non_empty_fields():
    with pytest.raises(ValueError):
        Triple("", Predicate.SPOUSE, "wiki/B")
