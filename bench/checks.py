"""Correctness checks for the benchmark, run outside every timed region.

Each check compares the program's output against figures computed here,
apart from the program (the generator's ground truth, the benchmark's own
parse of a triples file, link arithmetic), or against properties the model
must have.  A check returns a list of failure messages; an empty list means
it passed.  ``selftest.py`` shows that each one can fail.
"""

from __future__ import annotations

import re
from typing import Sequence

from semcache.codec import EntityKind
from semcache.kb import infer_next
from semcache.sim import CacheLocation, Mode, ServedFrom

# Float slack for comparing simulated times computed in a different order.
EPS_MS = 1e-6

_KINDS = {"Person": EntityKind.PERSON, "TVSeries": EntityKind.TV_SERIES}
_LINE = re.compile(r'^"([^"]+)" (spouse|starring|type|size) (?:"([^"]+)"|(\S+))$')


def parse_triples(path) -> tuple[dict[str, str], dict[str, int], dict[str, list[str]]]:
    """Kinds, sizes and sorted inference successors of a triples file.

    Handles the plain form the bundled and generated files use: quoted IRIs,
    one triple per line, ``#`` comment lines.
    """
    kinds: dict[str, str] = {}
    sizes: dict[str, int] = {}
    edges: dict[str, dict[str, set[str]]] = {"spouse": {}, "starring": {}}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = _LINE.match(line)
            if m is None:
                raise ValueError(f"{path}:{line_no}: unexpected line {line!r}")
            subject, predicate, obj, literal = m.groups()
            if predicate == "type":
                kinds[subject] = literal
            elif predicate == "size":
                sizes[subject] = int(literal)
            else:
                edges[predicate].setdefault(subject, set()).add(obj)
    rule = {"Person": edges["spouse"], "TVSeries": edges["starring"]}
    successors = {iri: sorted(rule[kind].get(iri, ())) for iri, kind in kinds.items()}
    return kinds, sizes, successors


def check_kb(kb, kinds: dict[str, str], sizes: dict[str, int]) -> list[str]:
    errors = []
    if len(kb) != len(sizes):
        errors.append(f"KB has {len(kb)} entities, expected {len(sizes)}")
    for iri, size in sizes.items():
        if iri not in kb:
            errors.append(f"entity {iri!r} missing from KB")
            continue
        if kb.sizes[iri] != size:
            errors.append(f"{iri!r}: size {kb.sizes[iri]}, expected {size}")
        if kb.kind_of(iri) is not _KINDS[kinds[iri]]:
            errors.append(f"{iri!r}: kind {kb.kind_of(iri)}, expected {kinds[iri]}")
    return errors[:20]


def check_inference(kb, kinds: dict[str, str], successors: dict[str, list[str]]) -> list[str]:
    """``infer_next(kb, kb.describe(e))`` predicts exactly e's sorted successors."""
    errors = []
    for iri, expected in successors.items():
        got = infer_next(kb, kb.describe(iri))
        if [d.entity_iri for d in got] != expected:
            errors.append(f"{iri!r}: inferred {[d.entity_iri for d in got]}, expected {expected}")
        elif any(d.entity_kind is not _KINDS[kinds[d.entity_iri]] for d in got):
            errors.append(f"{iri!r}: a predicted descriptor carries the wrong kind")
    return errors[:20]


def check_trace_rows(trace, rows: Sequence[tuple[float, int, int, str]]) -> list[str]:
    """The loaded trace is exactly the rows written, in time order."""
    got = [(e.time_ms, e.user_id, e.cell_id, e.entity_iri) for e in trace]
    if got == list(rows):
        return []
    if len(got) != len(rows):
        return [f"trace has {len(got)} rows, {len(rows)} were written"]
    first = next(i for i, (a, b) in enumerate(zip(got, rows)) if a != b)
    return [f"trace row {first} is {got[first]}, expected {rows[first]}"]


def links_to(topology, location: CacheLocation | None):
    """Links from the UE to the cache node; ``None`` means up to the origin."""
    links = [topology.ue_enb, topology.enb_sgw, topology.sgw_pgw, topology.pgw_inet]
    depth = {CacheLocation.ENODEB: 1, CacheLocation.SGW: 2, CacheLocation.PGW: 3, None: 4}
    return links[: depth[location]]


def round_trip_ms(links, up_bytes: float, down_bytes: float) -> float:
    """Uncontended store-and-forward round trip: delay + bytes/bandwidth per hop."""
    return sum(
        2 * link.propagation_delay_ms
        + (up_bytes + down_bytes) / link.bandwidth_bytes_per_ms
        for link in links
    )


def header_size(iri: str) -> int:
    """RFC 8200 hop-by-hop header carrying one metadata record for ``iri``."""
    payload = 3 + len(iri.encode("utf-8"))
    raw = 2 + 2 * -(-payload // 255) + payload
    return -(-raw // 8) * 8


def check_simulation(topology, trace, mode: Mode, report, records, sizes) -> list[str]:
    errors = []
    n = len(trace)
    if not report.requests_total == report.lookups == n == len(records):
        errors.append(
            f"requests_total {report.requests_total}, lookups {report.lookups}, "
            f"records {len(records)}, trace length {n}"
        )
    access = links_to(topology, topology.cache_location)
    full = links_to(topology, None)
    cache_served = 0
    origin_served_bytes = 0
    for entry, rec in zip(trace, records):
        iri = entry.entity_iri
        if rec.descriptor.entity_iri != iri or rec.issued_at != entry.time_ms:
            errors.append(f"record {rec.request_id} does not match its trace entry")
            continue
        if rec.served_from is None:
            errors.append(f"record {rec.request_id} was never served")
            continue
        up = len(iri.encode("utf-8"))
        size = sizes[iri]
        if rec.latency_ms < round_trip_ms(access, up, size) - EPS_MS:
            errors.append(
                f"record {rec.request_id}: latency {rec.latency_ms} ms is below the "
                f"access round trip {round_trip_ms(access, up, size)} ms"
            )
        if rec.served_from is ServedFrom.CACHE:
            cache_served += 1
            continue
        origin_served_bytes += size
        if mode is Mode.TRADITIONAL and rec.latency_ms < round_trip_ms(full, up, size) - EPS_MS:
            errors.append(
                f"record {rec.request_id}: origin-served in {rec.latency_ms} ms, below "
                f"the full-path round trip {round_trip_ms(full, up, size)} ms"
            )
    if mode is Mode.TRADITIONAL:
        if report.hits != cache_served:
            errors.append(f"hits {report.hits}, cache-served records {cache_served}")
        if report.origin_bytes != origin_served_bytes:
            errors.append(
                f"origin_bytes {report.origin_bytes}, origin-served bytes {origin_served_bytes}"
            )
        if report.prefetched_bytes or report.metadata_overhead_bytes:
            errors.append(
                f"traditional run prefetched {report.prefetched_bytes} bytes and "
                f"carried {report.metadata_overhead_bytes} metadata bytes"
            )
    else:
        if not report.prefetched_bytes_hit <= report.prefetched_bytes <= report.origin_bytes:
            errors.append(
                f"prefetched_bytes_hit {report.prefetched_bytes_hit}, prefetched_bytes "
                f"{report.prefetched_bytes}, origin_bytes {report.origin_bytes} out of order"
            )
        expected = sum(header_size(e.entity_iri) for e in trace)
        if report.metadata_overhead_bytes != expected:
            errors.append(
                f"metadata_overhead_bytes {report.metadata_overhead_bytes}, expected {expected}"
            )
    return errors[:20]


def check_sweep(points, traces) -> list[str]:
    """Six points, each (location, mode) once; both modes of a location see
    the same request sequence.  ``traces[i]`` is the trace point i ran on."""
    errors = []
    seen = [(p.value, p.mode) for p in points]
    expected = {(loc, mode) for loc in CacheLocation for mode in Mode}
    if len(seen) != 6 or set(seen) != expected:
        errors.append(f"sweep points {seen}, expected each (location, mode) once")
    by_location: dict = {}
    for point, trace in zip(points, traces):
        by_location.setdefault(point.value, []).append(trace)
    for location, seqs in by_location.items():
        if any(list(s) != list(seqs[0]) for s in seqs[1:]):
            errors.append(f"modes at {location} ran on different request sequences")
    return errors
