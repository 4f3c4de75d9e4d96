"""Acceptance suite: one test per release criterion, one printed line each.

Reference-workload numbers (criterion 6) are regression-locked: they were
produced once under the pinned seed and frozen here; any drift is a failure.
"""

import io
import random
import string
import time
from dataclasses import replace

import pytest

from semcache.cache import Cache, ContentOrigin
from semcache.codec import (
    EntityKind,
    MetadataDescriptor,
    MetadataTooLarge,
    decode_metadata,
    encode_metadata,
)
from semcache.experiments import (
    Scenario,
    SweepSpec,
    SweepVariable,
    improvement,
    run_sweep,
    write_csv,
)
from semcache.kb import load_knowledge_base
from semcache.reference import (
    REFERENCE_SEED,
    reference_kb,
    reference_topology,
    reference_workload,
)
from semcache.sim import CacheLocation, Mode, ServedFrom, Topology, run_simulation
from semcache.workload import SyntheticSpec, TraceEntry, generate_trace

from reference_cache import ReferenceCache, cache_state, outcome


def announce(name, ok=True):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def kb():
    return reference_kb()


@pytest.fixture(scope="module")
def reference_trace(kb):
    return generate_trace(kb, reference_workload())


def test_criterion_1_codec_capacity_law():
    started = time.monotonic()
    # Exactly 2030 payload bytes -> 2048-byte header; 2031 -> rejected.
    max_d = MetadataDescriptor("x" * 2027, EntityKind.OTHER)
    assert encode_metadata(max_d).wire_size() == 2048
    with pytest.raises(MetadataTooLarge):
        encode_metadata(MetadataDescriptor("x" * 2028, EntityKind.OTHER))

    rng = random.Random(1)
    alphabet = string.ascii_letters + string.digits + "/_-."
    kinds = list(EntityKind)
    for _ in range(10_000):
        iri = "".join(rng.choices(alphabet, k=rng.randint(1, 2027)))
        d = MetadataDescriptor(iri, rng.choice(kinds))
        assert decode_metadata(encode_metadata(d)) == d
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    announce("1 codec capacity law + 10k round trips")


FIG1_KB = """\
"wiki/Alice" spouse "wiki/Bob"
"wiki/Alice" type Person
"wiki/Alice" size 50000
"wiki/Bob" type Person
"wiki/Bob" size 25000
"""


def test_criterion_2_fig1_scenario_replay():
    started = time.monotonic()
    kb = load_knowledge_base(io.StringIO(FIG1_KB))
    topology = Topology(cache_location=CacheLocation.ENODEB, cache_capacity=10_000_000)
    trace = [
        TraceEntry(0.0, 0, 0, "wiki/Alice"),
        TraceEntry(5000.0, 0, 0, "wiki/Bob"),
    ]

    _, sem = run_simulation(topology, kb, trace, Mode.SEMANTIC)
    assert sem[1].served_from is ServedFrom.CACHE
    # Hand-computed schedule for the second request (idle access link):
    # tx_up ends 5000 + 8/1250, arrives eNodeB +10ms; content tx 25000/1250,
    # arrives UE +10ms.
    arrive_enb = (5000.0 + 8 / 1250.0) + 10.0
    delivered = (arrive_enb + 25000 / 1250.0) + 10.0
    assert sem[1].completed_at == delivered  # exact, deterministic

    # First request: hand-computed 4-hop store-and-forward round trip, and
    # the concurrent prefetch must not delay it.
    up_end = 0.0
    for delay in (10.0, 5.0, 5.0, 20.0):
        up_end = up_end + 10 / 1250.0 + delay
    down_end = up_end
    for delay in (20.0, 5.0, 5.0, 10.0):
        down_end = down_end + 50000 / 1250.0 + delay
    assert sem[0].completed_at == down_end

    _, trad = run_simulation(topology, kb, trace, Mode.TRADITIONAL)
    assert trad[1].served_from is ServedFrom.ORIGIN
    assert time.monotonic() - started < 1.0
    announce("2 Fig.1 scenario replay, exact latencies")


def test_criterion_3_perfect_correlation_bound():
    # 40-entity spouse cycle: every entity has exactly one successor.
    n = 40
    lines = []
    for i in range(n):
        a, b = f"wiki/C{i:02d}", f"wiki/C{(i + 1) % n:02d}"
        lines += [f'"{a}" spouse "{b}"', f'"{a}" type Person', f'"{a}" size 50000']
    kb = load_knowledge_base(io.StringIO("\n".join(lines)))

    requests = 20
    spec = SyntheticSpec(
        n_users=1,
        requests_per_user=(requests, requests),
        p_follow=1.0,
        gap_ms=10_000.0,
        seed=5,
    )
    trace = generate_trace(kb, spec)
    topology = Topology(cache_location=CacheLocation.ENODEB, cache_capacity=10**12)

    sem, _ = run_simulation(topology, kb, trace, Mode.SEMANTIC)
    trad, _ = run_simulation(topology, kb, trace, Mode.TRADITIONAL)
    assert sem.hit_ratio == (requests - 1) / requests
    assert trad.hit_ratio == 0.0
    announce("3 perfect-correlation bound (R-1)/R")


def test_criterion_4_trend_reproduction(kb):
    scen = Scenario(topology=reference_topology(), workload=reference_workload())

    def hit(points, value, mode):
        return next(
            p.report.hit_ratio for p in points if p.value == value and p.mode is mode
        )

    # (a) hit ratio non-decreasing in cache size, both modes.
    started = time.monotonic()
    sizes = tuple(mb * 1_000_000 for mb in (5, 10, 20, 50))
    pts = run_sweep(SweepSpec(SweepVariable.CACHE_SIZE, sizes, scen, REFERENCE_SEED), kb)
    for mode in Mode:
        ratios = [hit(pts, s, mode) for s in sizes]
        assert all(a <= b for a, b in zip(ratios, ratios[1:])), (mode, ratios)
    assert time.monotonic() - started < 60.0

    # (b) hit ratio highest near the core; (c) semantic advantage largest
    # near the edge.
    started = time.monotonic()
    locs = (CacheLocation.ENODEB, CacheLocation.SGW, CacheLocation.PGW)
    pts = run_sweep(SweepSpec(SweepVariable.CACHE_LOCATION, locs, scen, REFERENCE_SEED), kb)
    for mode in Mode:
        enb, sgw, pgw = (hit(pts, l, mode) for l in locs)
        assert pgw >= sgw >= enb, (mode, enb, sgw, pgw)

    def point(value, mode):
        return next(p.report for p in pts if p.value == value and p.mode is mode)

    imp_enb = improvement(
        point(CacheLocation.ENODEB, Mode.SEMANTIC),
        point(CacheLocation.ENODEB, Mode.TRADITIONAL),
    )
    imp_pgw = improvement(
        point(CacheLocation.PGW, Mode.SEMANTIC),
        point(CacheLocation.PGW, Mode.TRADITIONAL),
    )
    assert imp_enb["hit_ratio_increase_pct"] > imp_pgw["hit_ratio_increase_pct"]
    assert time.monotonic() - started < 60.0

    # (d) semantic beats traditional at every point of the reference grid.
    started = time.monotonic()
    users = (1, 2, 5, 10, 20)
    upts = run_sweep(SweepSpec(SweepVariable.USER_COUNT, users, scen, REFERENCE_SEED), kb)
    assert time.monotonic() - started < 60.0
    for sweep_points, values in ((pts, locs), (upts, users)):
        for v in values:
            sem = next(p.report for p in sweep_points if p.value == v and p.mode is Mode.SEMANTIC)
            trad = next(p.report for p in sweep_points if p.value == v and p.mode is Mode.TRADITIONAL)
            assert sem.hit_ratio > trad.hit_ratio, v
            assert sem.mean_latency_ms < trad.mean_latency_ms, v
    announce("4 trend reproduction (cache size, location, user count)")


def test_criterion_5_zero_prefetch_equivalence(kb):
    topology = Topology(
        cells=2, cache_location=CacheLocation.ENODEB, cache_capacity=2_000_000
    )
    for seed in range(100):
        spec = SyntheticSpec(
            n_users=6,
            requests_per_user=(8, 12),
            p_follow=0.5,
            gap_ms=(500.0, 3000.0),
            seed=seed,
            n_cells=2,
        )
        trace = generate_trace(kb, spec)
        _, sem = run_simulation(
            replace(topology, max_prefetch=0), kb, trace, Mode.SEMANTIC, seed
        )
        _, trad = run_simulation(topology, kb, trace, Mode.TRADITIONAL, seed)
        assert [r.served_from for r in sem] == [r.served_from for r in trad], seed
    announce("5 zero-prefetch equivalence on 100 traces")


# Regression locks: produced by one run of the pinned reference scenario
# (seed 42, 20 users, p_follow 0.6, eNodeB cache, 20 MB) and frozen.
LOCKED_SEMANTIC_HIT_RATIO = 0.6827309236947792
LOCKED_TRADITIONAL_HIT_RATIO = 0.41566265060240964
LOCKED_USELESS_PREFETCH_RATIO = 0.3380962114578677
LOCKED_PREFETCHED_BYTES = 23590288
LOCKED_METADATA_OVERHEAD_BYTES = 16584


def test_criterion_6_cost_accounting(kb, reference_trace):
    report, _ = run_simulation(
        reference_topology(), kb, reference_trace, Mode.SEMANTIC, REFERENCE_SEED
    )
    # Per-user metadata overhead in the single-kilobyte order.
    assert 512.0 <= report.per_user_metadata_bytes <= 8192.0
    # Strictly useful-and-wasteful prefetching for 0 < p_follow < 1.
    assert 0.0 < report.useless_prefetch_ratio < 1.0
    # Regression locks, tolerance 0.
    assert report.hit_ratio == LOCKED_SEMANTIC_HIT_RATIO
    assert report.useless_prefetch_ratio == LOCKED_USELESS_PREFETCH_RATIO
    assert report.prefetched_bytes == LOCKED_PREFETCHED_BYTES
    assert report.metadata_overhead_bytes == LOCKED_METADATA_OVERHEAD_BYTES

    trad, _ = run_simulation(
        reference_topology(), kb, reference_trace, Mode.TRADITIONAL, REFERENCE_SEED
    )
    assert trad.hit_ratio == LOCKED_TRADITIONAL_HIT_RATIO
    announce("6 cost accounting magnitudes + regression locks")


def test_criterion_7_determinism(kb):
    # Byte-identical CSV output across repeated equal-seed sweeps.
    scen = Scenario(topology=reference_topology(), workload=reference_workload(8))
    spec = SweepSpec(
        SweepVariable.CACHE_SIZE, (5_000_000, 20_000_000), scen, REFERENCE_SEED
    )

    def render():
        sink = io.StringIO()
        write_csv(run_sweep(spec, kb), sink)
        return sink.getvalue().encode()

    assert render() == render()

    # LRU eviction equivalent to a brute-force reference cache on 1,000
    # random operation sequences.  Both refuse a resize, which changes nothing.
    rng = random.Random(2024)
    for _ in range(1000):
        capacity = rng.choice([200, 500, 1000])
        real = Cache(capacity, "lru")
        ref = ReferenceCache(capacity, "lru")
        for t in range(rng.randint(10, 50)):
            key = f"k{rng.randint(0, 12)}"
            if rng.random() < 0.55:
                size = rng.randint(1, 180)
                origin = rng.choice([ContentOrigin.DEMAND, ContentOrigin.PREFETCH])
                before = cache_state(real)
                inserted = outcome(real.insert, key, size, origin, t)
                assert inserted == outcome(ref.insert, key, size, origin.value, t)
                if inserted is ValueError:
                    assert cache_state(real) == before
            else:
                assert (real.lookup(key, t) is not None) == ref.lookup(key, t)
            assert sorted(str(e.key) for e in real.entries()) == ref.keys()
        s = real.stats()
        assert (s.hits, s.lookups, s.evictions, s.used) == (
            ref.hits,
            ref.lookups,
            ref.evictions,
            ref.used(),
        )
    announce("7 determinism + LRU vs brute-force reference")
