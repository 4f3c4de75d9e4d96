"""Request traces: CSV ingestion and seeded synthetic generation.

Synthetic traces imitate a small population browsing a people / TV-series
domain: each user issues 20-30 requests, and with probability ``p_follow``
the next request is one the knowledge base would have predicted from the
previous one (a spouse's page, a star's page).
"""

from __future__ import annotations

import csv
import math
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from semcache.kb import KnowledgeBase, infer_next


class WorkloadError(Exception):
    pass


class ParseError(WorkloadError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EmptyKnowledgeBase(WorkloadError):
    pass


def _count(name: str, value, least: int) -> None:
    """Refuse a count that is not an int (a bool is not one) or is below ``least``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True, slots=True)
class TraceEntry:
    time_ms: float
    user_id: int
    cell_id: int
    entity_iri: str

    def __post_init__(self) -> None:
        _check_entry(self.time_ms, self.entity_iri)


def _check_entry(time_ms: float, entity_iri: str) -> None:
    """Refuse a time that is not finite and >= 0, then an empty IRI."""
    if not 0 <= time_ms < math.inf:
        raise ValueError(f"time_ms must be finite and >= 0, got {time_ms}")
    if not entity_iri:
        raise ValueError(f"entity_iri must be non-empty, got {entity_iri!r}")


class _Trace(Sequence):
    """A trace held as four columns, ``times``, ``user_ids``, ``cell_ids``
    and ``iris``, one item per request.  Indexing or iterating it builds
    each ``TraceEntry`` as it is read and keeps none; a slice is a list, and
    ``==`` compares the entries with a list's or another trace's.  Not to be
    changed once built."""

    def __init__(self, times: list, user_ids: list, cell_ids: list, iris: list):
        self.times = times
        self.user_ids = user_ids
        self.cell_ids = cell_ids
        self.iris = iris

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(TraceEntry, *(column[i] for column in _columns(self))))
        return TraceEntry(self.times[i], self.user_ids[i], self.cell_ids[i], self.iris[i])

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[TraceEntry]:
        return map(TraceEntry, *_columns(self))

    def __eq__(self, other: object) -> bool:
        return list(self) == (list(other) if isinstance(other, _Trace) else other)

    def __repr__(self) -> str:
        return repr(list(self))


def _columns(trace: Iterable[TraceEntry]) -> tuple[list, list, list, list]:
    """The times, user ids, cell ids and IRIs of ``trace``: a column trace's
    own lists, or else read from its entries."""
    if isinstance(trace, _Trace):
        return trace.times, trace.user_ids, trace.cell_ids, trace.iris
    entries = list(trace)
    return (
        [entry.time_ms for entry in entries],
        [entry.user_id for entry in entries],
        [entry.cell_id for entry in entries],
        [entry.entity_iri for entry in entries],
    )


def _by_time(columns: list[list]) -> _Trace:
    """The trace of ``columns`` (times, user ids, cell ids, IRIs) in time
    order, by one stable sort.  Each column is reordered in turn and its
    sorted copy replaces it in ``columns``, so when nothing else holds the
    lists, at most one column is held twice at a time."""
    order = sorted(range(len(columns[0])), key=columns[0].__getitem__)
    for k, column in enumerate(columns):
        columns[k] = list(map(column.__getitem__, order))
    return _Trace(*columns)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for trace synthesis; identical specs yield identical traces."""

    n_users: int
    requests_per_user: tuple[int, int] = (20, 30)
    p_follow: float = 0.6
    # Fixed gap (float) or uniform range (lo, hi), in ms.
    gap_ms: float | tuple[float, float] = (2000.0, 8000.0)
    seed: int = 0
    n_cells: int = 1

    def __post_init__(self) -> None:
        lo, hi = self.requests_per_user
        _count("requests_per_user", lo, 1)
        _count("requests_per_user", hi, lo)
        if not 0.0 <= self.p_follow <= 1.0:
            raise ValueError(f"p_follow must be in [0, 1], got {self.p_follow}")
        _count("n_users", self.n_users, 1)
        _count("n_cells", self.n_cells, 1)
        if isinstance(self.gap_ms, tuple):
            glo, ghi = self.gap_ms
            if not 0 <= glo <= ghi < math.inf:
                raise ValueError(f"bad gap range: {self.gap_ms}")
        elif not 0 <= self.gap_ms < math.inf:
            raise ValueError("gap must be finite and non-negative")


CSV_HEADER = ["time_ms", "user_id", "cell_id", "entity_iri"]


def load_trace(source: str | Path | TextIO | Iterable[str]) -> Sequence[TraceEntry]:
    """Read a trace CSV, returning its entries sorted by time (stable), as a
    column trace that builds each entry when it is read.  The trace holds
    one ``str`` object per distinct IRI.  A path is read as UTF-8, a leading
    byte-order mark ignored.

    Each row is stripped, and skipped if blank or a comment.  A row holding
    no ``"``, carriage return, newline or NUL, and no longer than
    ``csv.field_size_limit()``, is split on ``,``: ``csv.reader`` reads such
    a row the same.  Every other row goes through ``csv.reader``.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8-sig", newline="") as fh:
            return load_trace(fh)

    columns: list[list] = [[], [], [], []]
    times, user_ids, cell_ids, iris = columns
    interned: dict[str, str] = {}
    limit = csv.field_size_limit()
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # A quote or a line break starts ``csv``'s own parsing of the row,
        # and Python 3.10's ``csv`` refuses a NUL.
        if (
            len(stripped) <= limit
            and '"' not in stripped
            and "\r" not in stripped
            and "\n" not in stripped
            and "\0" not in stripped
        ):
            row = stripped.split(",")
        else:
            try:
                row = next(csv.reader([stripped]))
            except csv.Error as exc:
                raise ParseError(line_no, f"unreadable row: {exc}") from None
        if row[0].strip() == "time_ms" and [c.strip() for c in row] == CSV_HEADER:
            continue
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 columns, got {len(row)}")
        iri = row[3].strip()
        iri = interned.setdefault(iri, iri)
        try:
            time_ms, user, cell = float(row[0]), int(row[1]), int(row[2])
            if not (0 <= time_ms < math.inf and iri):  # ``TraceEntry``'s checks
                _check_entry(time_ms, iri)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        times.append(time_ms)
        user_ids.append(user)
        cell_ids.append(cell)
        iris.append(iri)
    del times, user_ids, cell_ids, iris  # so ``_by_time`` drops each column as it reorders it
    return _by_time(columns)


def save_trace(entries: Iterable[TraceEntry], sink: TextIO) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    times, user_ids, cell_ids, iris = _columns(entries)
    writer.writerows(zip(map(repr, times), user_ids, cell_ids, iris))


def generate_trace(kb: KnowledgeBase, spec: SyntheticSpec) -> Sequence[TraceEntry]:
    """Synthesize a trace over the knowledge base's entities, as a column
    trace that builds each entry when it is read.

    The first request of each user is uniform over all entities.  Each later
    request follows the inference successors of the previous one with
    probability ``p_follow`` (when any exist), otherwise it is uniform again.
    Users are assigned to cells round-robin.
    """
    entities = kb.entities()
    if not entities:
        raise EmptyKnowledgeBase("cannot generate a trace from an empty knowledge base")

    rng = random.Random(spec.seed)
    lo, hi = spec.requests_per_user

    def draw_gap() -> float:
        if isinstance(spec.gap_ms, tuple):
            return rng.uniform(*spec.gap_ms)
        return float(spec.gap_ms)

    times: list[float] = []
    user_ids: list[int] = []
    cell_ids: list[int] = []
    iris: list[str] = []
    for user in range(spec.n_users):
        cell = user % spec.n_cells
        count = rng.randint(lo, hi)
        t = draw_gap()
        prev: str | None = None
        for _ in range(count):
            follow = rng.random() < spec.p_follow
            successors = infer_next(kb, kb.describe(prev)) if follow and prev is not None else ()
            if successors:
                iri = rng.choice(successors).entity_iri
            else:
                iri = rng.choice(entities)
            times.append(t)
            user_ids.append(user)
            cell_ids.append(cell)
            iris.append(iri)
            prev = iri
            t += draw_gap()
        # The gaps are finite and >= 0, so only a user's last time can have
        # grown to ``inf``.
        _check_entry(times[-1], iris[-1])
    return _by_time([times, user_ids, cell_ids, iris])
