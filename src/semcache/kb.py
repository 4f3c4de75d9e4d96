"""Knowledge base over a people / TV-series domain.

The knowledge base holds, for every entity, a kind (person or TV series),
the byte size of the content its request returns and, per relation
(``spouse`` or ``starring``), the entity's objects as a sorted tuple of
IRIs.  One-hop inference predicts a user's next request: for a person, the
pages of their spouses; for a TV series, the pages of its stars.

File format (UTF-8, line oriented, ``#`` comments):

    "<subject-iri>" spouse "<object-iri>"
    "<subject-iri>" starring "<object-iri>"
    "<iri>" type Person|TVSeries
    "<iri>" size <bytes>
"""

from __future__ import annotations

import enum
import shlex
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TextIO

from semcache.codec import EntityKind, MetadataDescriptor


class KnowledgeBaseError(Exception):
    """Base class for knowledge base failures."""


class ParseError(KnowledgeBaseError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MissingSizeError(KnowledgeBaseError):
    def __init__(self, iri: str, line_no: int):
        super().__init__(
            f"entity {iri!r} (first referenced on line {line_no}) has no size declaration"
        )
        self.iri = iri
        self.line_no = line_no


class MissingTypeError(KnowledgeBaseError):
    def __init__(self, iri: str, line_no: int):
        super().__init__(
            f"entity {iri!r} (first referenced on line {line_no}) has no type declaration"
        )
        self.iri = iri
        self.line_no = line_no


class UnknownEntity(KnowledgeBaseError):
    def __init__(self, iri: str):
        super().__init__(f"entity {iri!r} is not in the knowledge base")
        self.iri = iri


class Predicate(enum.Enum):
    SPOUSE = "spouse"
    STARRING = "starring"


_KIND_NAMES = {"Person": EntityKind.PERSON, "TVSeries": EntityKind.TV_SERIES}

# Which relation the inference rule follows for each entity kind.
_RULE = {EntityKind.PERSON: Predicate.SPOUSE, EntityKind.TV_SERIES: Predicate.STARRING}


@dataclass
class KnowledgeBase:
    """Immutable-after-load per-entity kind, size and sorted relations.

    ``relations[predicate][subject]`` is the subject's objects under that
    predicate, deduplicated and sorted by IRI.
    """

    kinds: dict[str, EntityKind] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)
    relations: dict[Predicate, dict[str, tuple[str, ...]]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sizes)

    def entities(self) -> list[str]:
        return sorted(self.sizes)

    def __contains__(self, iri: str) -> bool:
        return iri in self.sizes

    def kind_of(self, iri: str) -> EntityKind:
        if iri not in self.kinds:
            raise UnknownEntity(iri)
        return self.kinds[iri]

    def describe(self, iri: str) -> MetadataDescriptor:
        return MetadataDescriptor(iri, self.kind_of(iri))

    def objects_of(self, subject: str, predicate: Predicate) -> tuple[str, ...]:
        return self.relations.get(predicate, {}).get(subject, ())


def infer_next(kb: KnowledgeBase, current: MetadataDescriptor) -> list[MetadataDescriptor]:
    """Predict the requests likely to follow ``current``, one hop only.

    Persons yield their spouse pages, TV series the pages of their stars,
    ordered lexicographically by IRI.  The entity's kind as declared in the
    knowledge base wins over the kind carried in the descriptor.
    """
    iri = current.entity_iri
    if iri not in kb:
        raise UnknownEntity(iri)
    predicate = _RULE.get(kb.kind_of(iri))
    if predicate is None:
        return []
    return [kb.describe(obj) for obj in kb.objects_of(iri, predicate)]


def null_inference(kb: KnowledgeBase, current: MetadataDescriptor) -> list[MetadataDescriptor]:
    """Policy that never predicts anything; disables prefetching."""
    return []


InferencePolicy = Callable[[KnowledgeBase, MetadataDescriptor], list[MetadataDescriptor]]


def load_knowledge_base(source: str | Path | TextIO | Iterable[str]) -> KnowledgeBase:
    """Parse the triple file format into a validated KnowledgeBase.

    Duplicate triples are deduplicated; line order never affects the result.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            return load_knowledge_base(fh)

    objects: dict[str, dict[str, set[str]]] = {p.value: {} for p in Predicate}
    kinds: dict[str, EntityKind] = {}
    sizes: dict[str, int] = {}
    referenced: dict[str, int] = {}  # iri -> first line referencing it

    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tokens = shlex.split(stripped, comments=True)
        except ValueError as exc:
            raise ParseError(line_no, f"bad quoting: {exc}") from None
        if len(tokens) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(tokens)}")
        subject, keyword, value = tokens
        if not subject:
            raise ParseError(line_no, "empty subject IRI")
        if keyword == "type":
            if value not in _KIND_NAMES:
                raise ParseError(line_no, f"unknown kind {value!r}")
            kind = _KIND_NAMES[value]
            if kinds.get(subject, kind) is not kind:
                raise ParseError(line_no, f"conflicting type for {subject!r}")
            kinds[subject] = kind
            referenced.setdefault(subject, line_no)
        elif keyword == "size":
            try:
                size = int(value)
            except ValueError:
                raise ParseError(line_no, f"size is not an integer: {value!r}") from None
            if size <= 0:
                raise ParseError(line_no, f"size must be positive, got {size}")
            if sizes.get(subject, size) != size:
                raise ParseError(line_no, f"conflicting size for {subject!r}")
            sizes[subject] = size
            referenced.setdefault(subject, line_no)
        elif keyword in objects:
            if not value:
                raise ParseError(line_no, "empty object IRI")
            objects[keyword].setdefault(subject, set()).add(value)
            referenced.setdefault(subject, line_no)
            referenced.setdefault(value, line_no)
        else:
            raise ParseError(line_no, f"unknown predicate {keyword!r}")

    for iri in sorted(referenced):
        if iri not in sizes:
            raise MissingSizeError(iri, referenced[iri])
        if iri not in kinds:
            raise MissingTypeError(iri, referenced[iri])

    relations = {
        Predicate(name): {subject: tuple(sorted(objs)) for subject, objs in by_subject.items()}
        for name, by_subject in objects.items()
    }
    return KnowledgeBase(kinds, sizes, relations)
