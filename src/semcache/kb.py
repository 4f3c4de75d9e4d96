"""Knowledge base over a people / TV-series domain.

The knowledge base holds, for every entity, one metadata descriptor (its
IRI and kind, person or TV series, built once at load), the byte size of
the content its request returns and its inference successors, also built
once at load.  One-hop inference predicts a user's next request: for a
person, the pages of their spouses; for a TV series, the pages of its
stars.  Other relation lines (a person's ``starring``, a TV series's
``spouse``) load and count as triples but are not followed.  Every IRI is
one shared ``str`` object, the first one read for it, in all of these.

File format (UTF-8, line oriented, ``#`` comments):

    "<subject-iri>" spouse "<object-iri>"
    "<subject-iri>" starring "<object-iri>"
    "<iri>" type Person|TVSeries
    "<iri>" size <bytes>

Fields are split and unquoted by POSIX shell rules (``shlex``), so a quoted
IRI may hold spaces or ``\\"`` and a line may end in a ``# comment``.  An
IRI must not hold a control character (U+0000-U+001F or U+007F).  A file
read from a path may start with a UTF-8 byte-order mark.

Most lines need no ``shlex``: a plain line (quoted IRIs with nothing
``shlex`` treats specially, a lowercase keyword, no comment, no padding but
its newline) is split by one regex match on the raw line.  Only the other
lines are stripped and skipped if blank or a comment, then split by the same
regex or, failing that, by ``shlex``; both paths give the same tokens.
"""

from __future__ import annotations

import re
import shlex
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

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


_KIND_NAMES = {"Person": EntityKind.PERSON, "TVSeries": EntityKind.TV_SERIES}

# The inference rule: each relation is followed from subjects of one kind.
_RULE = {"spouse": EntityKind.PERSON, "starring": EntityKind.TV_SERIES}


@dataclass
class KnowledgeBase:
    """Immutable-after-load per-entity descriptor, size and successors.

    ``descriptors[iri]`` is the one descriptor of that entity, shared by
    every request for it.  ``successors[iri]`` is what ``infer_next``
    returns for it: the shared descriptors of its objects under its kind's
    relation, deduplicated and sorted by IRI, or ``()``.  ``triples`` counts
    the distinct relation lines, followed or not, plus one type declaration
    per entity.  An IRI is one shared ``str`` object: the key of all three
    dicts and the ``entity_iri`` of its descriptor.
    """

    descriptors: dict[str, MetadataDescriptor]
    sizes: dict[str, int]
    successors: dict[str, tuple[MetadataDescriptor, ...]]
    triples: int

    def __len__(self) -> int:
        return len(self.sizes)

    def entities(self) -> list[str]:
        return sorted(self.sizes)

    def __contains__(self, iri: str) -> bool:
        return iri in self.sizes

    def kind_of(self, iri: str) -> EntityKind:
        return self.describe(iri).entity_kind

    def describe(self, iri: str) -> MetadataDescriptor:
        try:
            return self.descriptors[iri]
        except KeyError:
            raise UnknownEntity(iri) from None


def infer_next(kb: KnowledgeBase, current: MetadataDescriptor) -> tuple[MetadataDescriptor, ...]:
    """Predict the requests likely to follow ``current``, one hop only.

    Persons yield their spouse pages, TV series the pages of their stars,
    ordered lexicographically by IRI.  The entity's kind as declared in the
    knowledge base wins over the kind carried in the descriptor.
    """
    try:
        return kb.successors[current.entity_iri]
    except KeyError:
        raise UnknownEntity(current.entity_iri) from None


# A plain line: a quoted subject IRI, a lowercase keyword, then a quoted IRI
# or an alphanumeric value, and at most a trailing newline.  Its quoted IRIs
# hold nothing ``shlex`` treats specially (whitespace, quotes, backslashes,
# ``#``), so the groups are exactly the tokens ``shlex.split`` would return.
# It starts with ``"`` and ends, before the newline, on a non-whitespace
# character, so a raw line that matches is its own stripped line.
_IRI = r'"([^\s"\'\\#]+)"'
_PLAIN_LINE = re.compile(rf"{_IRI}[ \t]+([a-z]+)[ \t]+(?:{_IRI}|([A-Za-z0-9]+))\n?")


def _plain_tokens(line: str) -> tuple[str, str, str] | None:
    """The three tokens of a plain line, or None for any other line.

    Every line this returns None for goes through ``shlex.split``.
    """
    match = _PLAIN_LINE.fullmatch(line)
    if match is None:
        return None
    subject, keyword, iri, bare = match.groups()
    return subject, keyword, iri or bare


def load_knowledge_base(source: str | Path | TextIO | Iterable[str]) -> KnowledgeBase:
    """Parse the triple file format into a validated KnowledgeBase.

    Duplicate triples are deduplicated; line order never affects the result.
    A path is read as UTF-8, a leading byte-order mark ignored.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig") as fh:
            return load_knowledge_base(fh)

    # Relation objects are collected as lists and deduplicated once per
    # subject at the end: a set per subject costs more than its duplicates.
    objects: dict[str, defaultdict[str, list[str]]] = {name: defaultdict(list) for name in _RULE}
    descriptors: dict[str, MetadataDescriptor] = {}
    sizes: dict[str, int] = {}
    referenced: dict[str, int] = {}  # iri -> first line referencing it
    # Every IRI is kept as the first str object read for it, so that all the
    # tables share one object per IRI instead of one per occurrence.
    iris: dict[str, str] = {}
    plain = _PLAIN_LINE.fullmatch

    for line_no, line in enumerate(source, start=1):
        match = plain(line)
        if match is not None:
            subject, keyword, iri, bare = match.groups()
            value = iri or bare
        else:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = _plain_tokens(stripped)
            if tokens is None:
                try:
                    tokens = shlex.split(stripped, comments=True)
                except ValueError as exc:
                    raise ParseError(line_no, f"bad quoting: {exc}") from None
            if len(tokens) != 3:
                raise ParseError(line_no, f"expected 3 fields, got {len(tokens)}")
            subject, keyword, value = tokens
            if not subject:
                raise ParseError(line_no, "empty subject IRI")
        subject = iris.setdefault(subject, subject)
        if keyword == "type":
            kind = _KIND_NAMES.get(value)
            if kind is None:
                raise ParseError(line_no, f"unknown kind {value!r}")
            known = descriptors.get(subject)
            if known is None:
                try:
                    descriptors[subject] = MetadataDescriptor(subject, kind)
                except ValueError as exc:
                    raise ParseError(line_no, str(exc)) from None
            elif known.entity_kind is not kind:
                raise ParseError(line_no, f"conflicting type for {subject!r}")
            referenced.setdefault(subject, line_no)
        elif keyword == "size":
            try:
                size = int(value)
            except ValueError:
                raise ParseError(line_no, f"size is not an integer: {value!r}") from None
            if size <= 0:
                raise ParseError(line_no, f"size must be positive, got {size}")
            if sizes.setdefault(subject, size) != size:
                raise ParseError(line_no, f"conflicting size for {subject!r}")
            referenced.setdefault(subject, line_no)
        elif keyword in objects:
            if not value:
                raise ParseError(line_no, "empty object IRI")
            value = iris.setdefault(value, value)
            objects[keyword][subject].append(value)
            referenced.setdefault(subject, line_no)
            referenced.setdefault(value, line_no)
        else:
            raise ParseError(line_no, f"unknown predicate {keyword!r}")

    # Every sized or typed IRI is referenced, so equal counts mean that
    # nothing is missing; otherwise the first missing IRI by name is reported.
    if not len(sizes) == len(descriptors) == len(referenced):
        for iri in sorted(referenced):
            if iri not in sizes:
                raise MissingSizeError(iri, referenced[iri])
            if iri not in descriptors:
                raise MissingTypeError(iri, referenced[iri])

    successors: dict[str, tuple[MetadataDescriptor, ...]] = dict.fromkeys(descriptors, ())
    triples = len(descriptors)
    for name, kind in _RULE.items():
        relation = objects[name]
        while relation:  # popping each list frees it as it is converted
            subject, objs = relation.popitem()
            if len(objs) > 1:  # a single object needs no set or sort
                objs = sorted(set(objs))
            triples += len(objs)
            if descriptors[subject].entity_kind is kind:
                successors[subject] = tuple(map(descriptors.__getitem__, objs))
    return KnowledgeBase(descriptors, sizes, successors, triples)
