"""Seeded input generator for the large-KB workloads.

Writes a people / TV-series triples file and a trace CSV, and returns the
ground truth the checks compare the program against: every entity's kind
and size, every entity's sorted inference successors (spouses of a person,
stars of a series) and the trace rows in time order.

It shares no code with ``semcache``: the browsing mix is re-implemented
here (first request uniform, then with probability ``P_FOLLOW`` a
uniformly chosen successor of the previous request, 2-8 s gaps, 20-30
requests per user).
"""

from __future__ import annotations

import csv
import random
from array import array
from dataclasses import dataclass
from pathlib import Path

PERSON = "Person"
TV_SERIES = "TVSeries"
# Probability that a request follows a successor of the previous one.
P_FOLLOW = 0.6

# Non-ASCII letters make the UTF-8 length of an IRI differ from its
# character count, which the metadata-overhead check depends on.
_FIRST = (
    "Arda Aylin Berna Cemre Çağla Deniz Derya Emre Fatma Gökhan Irem Işıl "
    "Jale Kerem Leyla Murat Nilgün Ömer Pelin Rüştü Selin Şule Tolga Umut "
    "Veli Zeynep"
).split()
_LAST = "Acar Aslan Bozkurt Çelik Demir Güneş Işık Kaya Koç Öztürk Polat Şahin Ünal Vural Yıldız".split()
_ADJ = "Broken Endless Midnight Northern Quiet Shattered Silent Golden Hidden Last".split()
_NOUN = "Harbor Witness Signal Garden Cascade Circuit Orchard Bridge Season River".split()


@dataclass
class Inputs:
    kb_path: Path
    trace_path: Path
    kinds: dict[str, str]  # iri -> PERSON | TV_SERIES
    sizes: dict[str, int]
    successors: dict[str, list[str]]  # iri -> sorted inference successors
    rows: list[tuple[float, int, int, str]]  # (time_ms, user, cell, iri), time order


def generate(
    seed: int,
    out_dir: Path,
    *,
    n_users: int,
    n_cells: int,
    n_entities: int = 20_000,
) -> Inputs:
    rng = random.Random(seed)
    n_persons = n_entities * 3 // 5
    persons = [
        f"wiki/People/{rng.choice(_FIRST)}_{rng.choice(_LAST)}_{i}" for i in range(n_persons)
    ]
    series = [
        f"wiki/TV/The_{rng.choice(_ADJ)}_{rng.choice(_NOUN)}_{i}"
        for i in range(n_entities - n_persons)
    ]
    catalogue = persons + series
    kinds = {iri: PERSON for iri in persons}
    kinds.update((iri, TV_SERIES) for iri in series)
    sizes = {iri: rng.randint(20_000, 200_000) for iri in kinds}

    successors: dict[str, list[str]] = {iri: [] for iri in kinds}
    # Three quarters of the persons, rounded down to an even count, in pairs.
    married = rng.sample(persons, n_persons * 3 // 4 // 2 * 2)
    for a, b in zip(married[0::2], married[1::2]):
        successors[a].append(b)
        successors[b].append(a)
    starring: list[tuple[str, str]] = []  # (series, star), as drawn
    for s in series:
        stars = rng.sample(persons, rng.randint(1, 5))
        starring.extend((s, p) for p in stars)
        successors[s] = sorted(stars)

    # The triples file is written in shuffled order, so that the loader
    # meets objects before their type.  Line ``i`` is, in turn: a spouse
    # line per married person (``married[i]`` and its pair partner), a
    # starring line per star, and a type and a size line per entity.
    # Shuffling the line numbers, not the lines, keeps the text out of memory.
    n_spouse, n_starring = len(married), len(starring)

    def line(i: int) -> str:
        if i < n_spouse:
            return f'"{married[i]}" spouse "{married[i ^ 1]}"\n'
        i -= n_spouse
        if i < n_starring:
            return '"%s" starring "%s"\n' % starring[i]
        entity, size_line = divmod(i - n_starring, 2)
        iri = catalogue[entity]
        if not size_line:
            return f'"{iri}" type {kinds[iri]}\n'
        return f'"{iri}" size {sizes[iri]}\n'

    order = array("l", range(n_spouse + n_starring + 2 * len(catalogue)))
    rng.shuffle(order)

    rows: list[tuple[float, int, int, str]] = []
    for user in range(n_users):
        cell = rng.randrange(n_cells)
        t = rng.uniform(2000.0, 8000.0)
        prev = None
        for _ in range(rng.randint(20, 30)):
            follow = rng.random() < P_FOLLOW
            if follow and prev is not None and successors[prev]:
                iri = rng.choice(successors[prev])
            else:
                iri = rng.choice(catalogue)
            rows.append((t, user, cell, iri))
            prev = iri
            t += rng.uniform(2000.0, 8000.0)

    out_dir.mkdir(parents=True, exist_ok=True)
    kb_path = out_dir / "kb.triples"
    trace_path = out_dir / "trace.csv"
    with open(kb_path, "w", encoding="utf-8") as fh:
        fh.write(f"# generated people / TV-series knowledge base, seed {seed}\n")
        fh.writelines(map(line, order))
    # Rows are written user by user, so the loader has to sort them.
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_ms", "user_id", "cell_id", "entity_iri"])
        writer.writerows((repr(t), u, c, iri) for t, u, c, iri in rows)
    rows.sort(key=lambda r: r[0])
    return Inputs(kb_path, trace_path, kinds, sizes, successors, rows)
