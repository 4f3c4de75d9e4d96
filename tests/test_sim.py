import io
import math

import pytest

from semcache.kb import UnknownEntity, load_knowledge_base, null_inference
from semcache.sim import (
    CacheLocation,
    LinkSpec,
    Mode,
    ServedFrom,
    SimulationError,
    Topology,
    UnsortedTrace,
    _Channel,
    _Simulation,
    metadata_overhead,
    run_simulation,
    transfer_time,
)
from semcache.workload import TraceEntry

PAIR_KB = """\
"wiki/Alice" spouse "wiki/Bob"
"wiki/Alice" type Person
"wiki/Alice" size 50000
"wiki/Bob" type Person
"wiki/Bob" size 25000
"""


def pair_kb():
    return load_knowledge_base(io.StringIO(PAIR_KB))


def topo(location=CacheLocation.ENODEB, capacity=10_000_000, cells=1):
    return Topology(cells=cells, cache_location=location, cache_capacity=capacity)


class TestTransferTime:
    def test_zero_payload(self):
        assert transfer_time(LinkSpec(10.0, 1000.0), 0) == 10.0

    def test_payload_adds_serialization_delay(self):
        assert transfer_time(LinkSpec(10.0, 1000.0), 5000) == 15.0

    def test_fifo_serialization(self):
        # Two back-to-back 5000 B transfers: arrivals at 15 ms and 20 ms.
        ch = _Channel(LinkSpec(10.0, 1000.0))
        assert ch.transfer(0.0, 5000) == 15.0
        assert ch.transfer(0.0, 5000) == 20.0

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            transfer_time(LinkSpec(10.0, 1000.0), -1)


class TestSingleRequest:
    def test_traditional_full_round_trip(self):
        kb = pair_kb()
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice")]
        report, records = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        (rec,) = records
        assert rec.served_from is ServedFrom.ORIGIN
        # Hand computation: 4 store-and-forward hops each way on an idle path.
        req = len("wiki/Alice")
        up = 4 * (req / 1250.0) + (10 + 5 + 5 + 20)
        down = 4 * (50000 / 1250.0) + (10 + 5 + 5 + 20)
        assert rec.latency_ms == pytest.approx(up + down, abs=1e-9)
        assert report.hit_ratio == 0.0

    def test_conservation(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(1.0, 1, 0, "wiki/Bob"),
            TraceEntry(2.0, 0, 0, "wiki/Alice"),
        ]
        for mode in Mode:
            report, records = run_simulation(topo(), kb, trace, mode)
            assert len(records) == len(trace)
            assert all(r.served_from in (ServedFrom.CACHE, ServedFrom.ORIGIN) for r in records)
            assert all(r.completed_at >= r.issued_at for r in records)


class TestPrefetchScenario:
    """Request a person, then their spouse after the prefetch window."""

    def test_semantic_second_request_from_cache(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(5000.0, 0, 0, "wiki/Bob"),
        ]
        report, records = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        assert records[1].served_from is ServedFrom.CACHE
        # Hit at the eNodeB: UE<->eNodeB round trip only, idle access link.
        start = 5000.0
        arrive_enb = (start + len("wiki/Bob") / 1250.0) + 10.0
        delivered = (arrive_enb + 25000 / 1250.0) + 10.0
        assert records[1].completed_at == delivered
        assert records[1].latency_ms == delivered - start

    def test_traditional_second_request_from_origin(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(5000.0, 0, 0, "wiki/Bob"),
        ]
        _, records = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        assert records[1].served_from is ServedFrom.ORIGIN

    def test_cache_hit_latency_dominance(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(5000.0, 0, 0, "wiki/Bob"),
        ]
        _, sem = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        _, trad = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        assert sem[1].latency_ms <= trad[1].latency_ms

    def test_demand_not_delayed_by_prefetch(self):
        kb = pair_kb()
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice")]
        _, sem = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        _, trad = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        # Demand is forwarded before the prefetch launches, so its path is
        # identical to the prefetch-free run.
        assert sem[0].latency_ms == trad[0].latency_ms

    def test_demand_waits_for_inflight_prefetch(self):
        kb = pair_kb()
        # Second request arrives long before the ~210 ms prefetch completes.
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(15.0, 0, 0, "wiki/Bob"),
        ]
        report, records = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        assert records[1].served_from is ServedFrom.ORIGIN
        # Bob's bytes crossed the origin links once, not twice.
        assert report.origin_bytes == 50000 + 25000
        assert report.prefetched_bytes == 25000
        assert report.prefetched_bytes_hit == 25000

    def test_prefetch_deduplicated_across_users(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(1.0, 1, 0, "wiki/Alice"),
        ]
        report, _ = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        assert report.prefetched_bytes == 25000  # Bob fetched once

    def test_waiter_served_when_prefetch_too_big_to_cache(self):
        kb = load_knowledge_base(io.StringIO(
            '"a" spouse "b"\n"a" type Person\n"a" size 50000\n'
            '"b" type Person\n"b" size 50000\n'
        ))
        trace = [TraceEntry(0.0, 0, 0, "a"), TraceEntry(1.0, 1, 0, "b")]
        report, records = run_simulation(topo(capacity=10_000), kb, trace, Mode.SEMANTIC)
        # The cache rejects both objects, yet b's request still gets the
        # prefetched bytes, at the same time as when the cache has room.
        _, roomy = run_simulation(topo(capacity=20_000_000), kb, trace, Mode.SEMANTIC)
        assert [r.served_from for r in records] == [ServedFrom.ORIGIN] * 2
        assert [r.latency_ms for r in records] == [r.latency_ms for r in roomy]
        assert [r.latency_ms for r in records] == pytest.approx([240.0, 279.0], abs=0.01)
        assert report.origin_bytes == 100_000
        assert report.prefetched_bytes == 0
        assert report.hits == 0


class TestConcurrencyInvariant:
    def test_infinite_bandwidth_demand_independent_of_prefetch(self):
        text = "".join(
            f'"wiki/S{i}" type Person\n"wiki/S{i}" size 90000\n' for i in range(6)
        )
        text += '"wiki/Hub" type Person\n"wiki/Hub" size 70000\n'
        text += "".join(f'"wiki/Hub" spouse "wiki/S{i}"\n' for i in range(6))
        kb = load_knowledge_base(io.StringIO(text))
        inf_link = lambda d: LinkSpec(d, math.inf)
        topology = Topology(
            ue_enb=inf_link(10.0),
            enb_sgw=inf_link(5.0),
            sgw_pgw=inf_link(5.0),
            pgw_inet=inf_link(20.0),
        )
        trace = [TraceEntry(0.0, 0, 0, "wiki/Hub")]
        _, sem = run_simulation(topology, kb, trace, Mode.SEMANTIC)
        _, trad = run_simulation(topology, kb, trace, Mode.TRADITIONAL)
        assert sem[0].latency_ms == trad[0].latency_ms == 80.0


class TestPlacement:
    def test_hit_latency_ordering(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(5000.0, 0, 0, "wiki/Alice"),
        ]
        latencies = {}
        for loc in CacheLocation:
            _, records = run_simulation(topo(loc), kb, trace, Mode.TRADITIONAL)
            assert records[1].served_from is ServedFrom.CACHE
            latencies[loc] = records[1].latency_ms
        assert (
            latencies[CacheLocation.ENODEB]
            < latencies[CacheLocation.SGW]
            < latencies[CacheLocation.PGW]
        )

    def test_enodeb_mode_has_one_cache_per_cell(self):
        kb = pair_kb()
        # Users in different cells cannot share an eNodeB cache...
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(5000.0, 1, 1, "wiki/Alice"),
        ]
        _, rec_enb = run_simulation(topo(cells=2), kb, trace, Mode.TRADITIONAL)
        assert rec_enb[1].served_from is ServedFrom.ORIGIN
        # ...but do share an S-GW cache.
        _, rec_sgw = run_simulation(
            topo(CacheLocation.SGW, cells=2), kb, trace, Mode.TRADITIONAL
        )
        assert rec_sgw[1].served_from is ServedFrom.CACHE

    @pytest.mark.parametrize(
        "location, latency",
        [
            (CacheLocation.ENODEB, 60.008),
            (CacheLocation.SGW, 110.016),
            (CacheLocation.PGW, 160.024),
        ],
    )
    def test_hit_crosses_links_up_to_cache(self, location, latency):
        # Store and forward over the first 1, 2 or 3 links (delays 10, 5,
        # 5 ms; 1250 B/ms): per link the 10 request bytes take 0.008 ms
        # and the 50,000 content bytes 40 ms.
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(5000.0, 0, 0, "wiki/Alice"),
        ]
        _, records = run_simulation(topo(location), kb, trace, Mode.TRADITIONAL)
        assert records[1].served_from is ServedFrom.CACHE
        assert records[1].latency_ms == pytest.approx(latency, abs=1e-9)

    @pytest.mark.parametrize("location", list(CacheLocation))
    def test_cells_queue_only_on_shared_links(self, location):
        # Cell 0 misses on a 50,000 B object and cell 1 on a 5,000 B one,
        # both at t=0; each miss crosses the whole chain both ways.
        kb = load_knowledge_base(io.StringIO(
            '"wiki/A" type Person\n"wiki/A" size 50000\n'
            '"wiki/B" type Person\n"wiki/B" size 5000\n'
        ))
        topology = Topology(
            cells=2,
            ue_enb=LinkSpec(10.0, 1000.0),
            enb_sgw=LinkSpec(5.0, 250.0),
            sgw_pgw=LinkSpec(5.0, 1000.0),
            pgw_inet=LinkSpec(20.0, 500.0),
            cache_location=location,
        )
        trace = [TraceEntry(0.0, 0, 0, "wiki/A"), TraceEntry(0.0, 1, 1, "wiki/B")]
        _, records = run_simulation(topology, kb, trace, Mode.TRADITIONAL)
        # Up, 6 request bytes: each cell's own UE-eNodeB and eNodeB-S-GW
        # links reach the S-GW at 15.030 for both.  B queues 0.006 ms
        # behind A on S-GW-P-GW (A leaves 20.036, B 20.042) and then on
        # P-GW-Internet (A at the origin 40.048, B 40.060).
        # Down: P-GW-Internet sends A 40.048-140.048 (arrives 160.048) and
        # B after it, 140.048-150.048 (170.048).  S-GW-P-GW sends A
        # 160.048-210.048 (215.048) and B after it, 210.048-215.048
        # (220.048).  B then has its own eNodeB-S-GW link, 220.048-240.048
        # (245.048), while A's takes 215.048-415.048 (420.048); the
        # UE-eNodeB links deliver A at 480.048 and B at 260.048.  Alone, B
        # would take 120.048 ms.
        assert [r.latency_ms for r in records] == pytest.approx(
            [480.048, 260.048], abs=1e-9
        )


class TestNullInferenceEquivalence:
    def test_hit_miss_sequence_identical(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(100.0, 1, 0, "wiki/Bob"),
            TraceEntry(5000.0, 0, 0, "wiki/Bob"),
            TraceEntry(5100.0, 1, 0, "wiki/Alice"),
        ]
        rep_sem, rec_sem = run_simulation(
            topo(), kb, trace, Mode.SEMANTIC, inference=null_inference
        )
        rep_trad, rec_trad = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        assert [r.served_from for r in rec_sem] == [r.served_from for r in rec_trad]
        assert [r.completed_at for r in rec_sem] == [r.completed_at for r in rec_trad]
        assert rep_sem.hits == rep_trad.hits
        assert rep_sem.prefetched_bytes == 0


class TestValidation:
    @pytest.mark.parametrize(
        "delay, bandwidth", [(-1.0, 1250.0), (math.nan, 1250.0), (10.0, 0.0), (10.0, math.nan)]
    )
    def test_invalid_link(self, delay, bandwidth):
        with pytest.raises(ValueError):
            LinkSpec(delay, bandwidth)

    def test_unsorted_trace(self):
        kb = pair_kb()
        trace = [
            TraceEntry(10.0, 0, 0, "wiki/Alice"),
            TraceEntry(5.0, 0, 0, "wiki/Bob"),
        ]
        with pytest.raises(UnsortedTrace):
            run_simulation(topo(), kb, trace, Mode.TRADITIONAL)

    def test_unknown_entity(self):
        kb = pair_kb()
        trace = [TraceEntry(0.0, 0, 0, "wiki/Nope")]
        with pytest.raises(UnknownEntity):
            run_simulation(topo(), kb, trace, Mode.TRADITIONAL)

    def test_cell_outside_topology(self):
        kb = pair_kb()
        trace = [TraceEntry(0.0, 0, 5, "wiki/Alice")]
        with pytest.raises(Exception, match="cell"):
            run_simulation(topo(), kb, trace, Mode.TRADITIONAL)

    def test_negative_max_prefetch(self):
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice")]
        with pytest.raises(ValueError, match="max_prefetch"):
            run_simulation(topo(), pair_kb(), trace, Mode.SEMANTIC, max_prefetch=-1)

    def test_unserved_request(self, monkeypatch):
        deliver = _Simulation._deliver

        def drop_request_1(self, record, t, size, served_from):
            if record.request_id != 1:
                deliver(self, record, t, size, served_from)

        monkeypatch.setattr(_Simulation, "_deliver", drop_request_1)
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(1.0, 1, 0, "wiki/Bob"),
            TraceEntry(2.0, 2, 0, "wiki/Bob"),
        ]
        with pytest.raises(SimulationError, match="request 1 "):
            run_simulation(topo(), pair_kb(), trace, Mode.TRADITIONAL)


class TestDeterminism:
    def test_identical_runs(self):
        kb = pair_kb()
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(30.0, 1, 0, "wiki/Bob"),
            TraceEntry(400.0, 0, 0, "wiki/Bob"),
        ]
        r1, rec1 = run_simulation(topo(), kb, trace, Mode.SEMANTIC, 7)
        r2, rec2 = run_simulation(topo(), kb, trace, Mode.SEMANTIC, 7)
        assert r1 == r2
        assert [(x.completed_at, x.served_from) for x in rec1] == [
            (x.completed_at, x.served_from) for x in rec2
        ]


class TestMetadataOverhead:
    def test_empty_trace(self):
        out = metadata_overhead([], pair_kb())
        assert out == {
            "total_bytes": 0,
            "per_user_bytes": 0.0,
            "ratio_of_total_traffic": 0.0,
        }

    def test_per_user_accumulation(self):
        # One entity whose header wire size is exactly 64 bytes:
        # record 4 + 53-char IRI = 57 payload, 2 + 2 + 57 = 61, padded to 64.
        iri = "wiki/" + "x" * 48
        assert len(iri) == 53
        text = f'"{iri}" type Person\n"{iri}" size 640000\n'
        kb = load_knowledge_base(io.StringIO(text))
        trace = [TraceEntry(float(i), 0, 0, iri) for i in range(20)]
        out = metadata_overhead(trace, kb)
        assert out["total_bytes"] == 20 * 64
        assert out["per_user_bytes"] == 1280.0
        assert out["ratio_of_total_traffic"] == pytest.approx(1280 / 12_800_000)
