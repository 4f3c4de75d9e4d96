#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Each check must pass on clean output and fail on every deliberately
corrupted input or report below; that proves no check is vacuous.  Runs in
a few seconds on a 300-entity generated KB.  Exits 1 if a check passes
clean data wrongly or misses a corruption.
"""

from __future__ import annotations

import copy
import shutil
import sys
from dataclasses import replace

import run  # first: it puts the checkout's src/ on the import path
import checks
import gen
from semcache.codec import EntityKind, MetadataDescriptor, encode_metadata
from semcache.experiments import SweepPoint
from semcache.kb import load_knowledge_base
from semcache.sim import CacheLocation, Mode, ServedFrom, Topology, run_simulation
from semcache.workload import load_trace

SEED = 7
DIR = run.OUT / "selftest"


def _rewrite(src, dst, edit) -> None:
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    dst.write_text("".join(edit(lines)), encoding="utf-8")


def _first(lines, pred) -> int:
    return next(i for i, line in enumerate(lines) if pred(line))


def main() -> int:
    inp = gen.generate(SEED, DIR, n_entities=300, n_users=12, n_cells=4)
    kb = load_knowledge_base(inp.kb_path)
    trace = load_trace(inp.trace_path)
    topology = Topology(
        cells=4,
        cache_location=CacheLocation.SGW,
        cache_capacity=sum(inp.sizes.values()) // 10,
        **run.FAST_CORE,
    )
    sims = {mode: run_simulation(topology, kb, trace, mode) for mode in Mode}
    failures = 0

    def expect(label: str, errors: list[str], should_fail: bool) -> None:
        nonlocal failures
        ok = bool(errors) == should_fail
        failures += not ok
        verdict = ("detected" if errors else "MISSED") if should_fail else (
            "passes" if not errors else f"FAILS CLEAN DATA: {errors[:2]}"
        )
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}")

    def kb_with(edit):
        path = DIR / "corrupt.triples"
        _rewrite(inp.kb_path, path, edit)
        return load_knowledge_base(path)

    def trace_with(edit):
        path = DIR / "corrupt.csv"
        _rewrite(inp.trace_path, path, edit)
        return load_trace(path)

    def sim_errors(mode, report=None, records=None):
        rep, recs = sims[mode]
        return checks.check_simulation(
            topology, trace, mode, report or rep, records or recs, inp.sizes
        )

    # -- clean data passes ---------------------------------------------------
    expect("check_kb, clean", checks.check_kb(kb, inp.kinds, inp.sizes), False)
    expect("check_inference, clean", checks.check_inference(kb, inp.kinds, inp.successors), False)
    expect("check_trace_rows, clean", checks.check_trace_rows(trace, inp.rows), False)
    for mode in Mode:
        expect(f"check_simulation {mode.value}, clean", sim_errors(mode), False)
    points = [SweepPoint(loc, m, sims[m][0]) for loc in CacheLocation for m in Mode]
    expect("check_sweep, clean", checks.check_sweep(points, [trace] * 6), False)
    parsed = checks.parse_triples(inp.kb_path)
    expect(
        "parse_triples agrees with the generator",
        [] if parsed == (inp.kinds, inp.sizes, inp.successors) else ["differs"],
        False,
    )
    header_errors = [
        f"L={n}"
        for n in range(1, 2028)
        if checks.header_size("x" * n)
        != encode_metadata(MetadataDescriptor("x" * n, EntityKind.OTHER)).wire_size()
    ]
    expect("header_size agrees with encode_metadata", header_errors, False)

    # -- corrupted inputs ----------------------------------------------------
    def size_plus_one(lines):
        i = _first(lines, lambda s: " size " in s)
        head, value = lines[i].rsplit(" ", 1)
        lines[i] = f"{head} {int(value) + 1}\n"
        return lines

    def flip_kind(lines):
        i = _first(lines, lambda s: s.rstrip().endswith(" type Person"))
        lines[i] = lines[i].replace("type Person", "type TVSeries")
        return lines

    def drop_spouse_edge(lines):
        del lines[_first(lines, lambda s: " spouse " in s)]
        return lines

    def drop_row(lines):
        del lines[5]
        return lines

    def move_row_cell(lines):
        t, user, cell, iri = lines[3].split(",", 3)
        lines[3] = f"{t},{user},{(int(cell) + 1) % 4},{iri}"
        return lines

    expect("check_kb, a size off by one", checks.check_kb(kb_with(size_plus_one), inp.kinds, inp.sizes), True)
    expect("check_kb, a person typed as series", checks.check_kb(kb_with(flip_kind), inp.kinds, inp.sizes), True)
    expect(
        "check_inference, a missing spouse edge",
        checks.check_inference(kb_with(drop_spouse_edge), inp.kinds, inp.successors),
        True,
    )
    multi = next(iri for iri, succ in inp.successors.items() if len(succ) > 1)
    reordered = dict(inp.successors, **{multi: inp.successors[multi][::-1]})
    expect("check_inference, successors out of order", checks.check_inference(kb, inp.kinds, reordered), True)
    expect("check_trace_rows, a row missing", checks.check_trace_rows(trace_with(drop_row), inp.rows), True)
    expect("check_trace_rows, a row's cell changed", checks.check_trace_rows(trace_with(move_row_cell), inp.rows), True)

    # -- corrupted reports ---------------------------------------------------
    trad = sims[Mode.TRADITIONAL][0]
    sem = sims[Mode.SEMANTIC][0]

    def records_with(mode, pick, **changes):
        records = [copy.copy(r) for r in sims[mode][1]]
        i = next(i for i, r in enumerate(records) if pick(r))
        for key, value in changes.items():
            setattr(records[i], key, value(records[i]) if callable(value) else value)
        return records

    access = checks.links_to(topology, topology.cache_location)

    def access_rtt(r):
        iri = r.descriptor.entity_iri
        return checks.round_trip_ms(access, len(iri.encode("utf-8")), inp.sizes[iri])

    def is_origin(r):
        return r.served_from is ServedFrom.ORIGIN

    cases = [
        ("origin_bytes off by one", Mode.TRADITIONAL, replace(trad, origin_bytes=trad.origin_bytes + 1), None),
        ("hits off by one", Mode.TRADITIONAL, replace(trad, hits=trad.hits + 1), None),
        ("requests_total off by one", Mode.TRADITIONAL, replace(trad, requests_total=trad.requests_total + 1), None),
        ("traditional run with prefetched bytes", Mode.TRADITIONAL, replace(trad, prefetched_bytes=1), None),
        ("traditional run with metadata bytes", Mode.TRADITIONAL, replace(trad, metadata_overhead_bytes=8), None),
        ("a record never served", Mode.TRADITIONAL, None, records_with(Mode.TRADITIONAL, is_origin, served_from=None)),
        (
            "a latency below the access round trip",
            Mode.SEMANTIC,
            None,
            records_with(Mode.SEMANTIC, lambda r: True, completed_at=lambda r: r.issued_at + access_rtt(r) / 2),
        ),
        (
            "an origin-served latency below the full-path round trip",
            Mode.TRADITIONAL,
            None,
            records_with(Mode.TRADITIONAL, is_origin, completed_at=lambda r: r.issued_at + access_rtt(r)),
        ),
        ("metadata one header byte short", Mode.SEMANTIC, replace(sem, metadata_overhead_bytes=sem.metadata_overhead_bytes - 1), None),
        ("prefetched_bytes_hit above prefetched_bytes", Mode.SEMANTIC, replace(sem, prefetched_bytes_hit=sem.prefetched_bytes + 1), None),
        ("origin_bytes below prefetched_bytes", Mode.SEMANTIC, replace(sem, origin_bytes=sem.prefetched_bytes - 1), None),
    ]
    for label, mode, report, records in cases:
        expect(f"check_simulation, {label}", sim_errors(mode, report, records), True)

    other = list(trace)
    other[0] = replace(other[0], cell_id=(other[0].cell_id + 1) % 4)
    expect("check_sweep, a point missing", checks.check_sweep(points[:-1], [trace] * 5), True)
    expect("check_sweep, a point twice", checks.check_sweep(points[:-1] + points[:1], [trace] * 6), True)
    expect(
        "check_sweep, the modes ran on different sequences",
        checks.check_sweep(points, [trace, other] + [trace] * 4),
        True,
    )

    shutil.rmtree(DIR, ignore_errors=True)
    print("selftest:", "passed" if not failures else f"{failures} case(s) wrong")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
