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


@dataclass(frozen=True)
class TraceEntry:
    time_ms: float
    user_id: int
    cell_id: int
    entity_iri: str

    def __post_init__(self) -> None:
        if not 0 <= self.time_ms < math.inf:
            raise ValueError(f"time_ms must be finite and >= 0, got {self.time_ms}")
        if not self.entity_iri:
            raise ValueError(f"entity_iri must be non-empty, got {self.entity_iri!r}")


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


def load_trace(source: str | Path | TextIO | Iterable[str]) -> list[TraceEntry]:
    """Read a trace CSV, returning entries sorted by time (stable)."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as fh:
            return load_trace(fh)

    entries: list[TraceEntry] = []
    for line_no, line in enumerate(source, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        row = next(csv.reader([stripped]))
        if [c.strip() for c in row] == CSV_HEADER:
            continue
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 columns, got {len(row)}")
        try:
            entries.append(TraceEntry(float(row[0]), int(row[1]), int(row[2]), row[3].strip()))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    entries.sort(key=lambda e: e.time_ms)
    return entries


def save_trace(entries: Iterable[TraceEntry], sink: TextIO) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for e in entries:
        writer.writerow([repr(e.time_ms), e.user_id, e.cell_id, e.entity_iri])


def generate_trace(kb: KnowledgeBase, spec: SyntheticSpec) -> list[TraceEntry]:
    """Synthesize a trace over the knowledge base's entities.

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

    entries: list[TraceEntry] = []
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
            entries.append(TraceEntry(t, user, cell, iri))
            prev = iri
            t += draw_gap()
    entries.sort(key=lambda e: e.time_ms)
    return entries
