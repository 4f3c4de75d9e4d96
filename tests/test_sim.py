import gc
import heapq
import io
import math
import types
import weakref
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import semcache.sim as sim_module
from semcache import experiments
from semcache.codec import MetadataTooLarge, encode_metadata
from semcache.kb import UnknownEntity, load_knowledge_base
from semcache.reference import reference_kb, reference_workload
from semcache.sim import (
    CacheLocation,
    LinkSpec,
    Mode,
    ServedFrom,
    SimulationError,
    Topology,
    UnsortedTrace,
    _Channel,
    _EventLoop,
    _Simulation,
    metadata_overhead,
    run_simulation,
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
        assert _Channel(LinkSpec(10.0, 1000.0)).transfer(0.0, 0) == 10.0

    def test_payload_adds_serialization_delay(self):
        assert _Channel(LinkSpec(10.0, 1000.0)).transfer(0.0, 5000) == 15.0

    def test_fifo_serialization(self):
        # Two back-to-back 5000 B transfers: arrivals at 15 ms and 20 ms.
        ch = _Channel(LinkSpec(10.0, 1000.0))
        assert ch.transfer(0.0, 5000) == 15.0
        assert ch.transfer(0.0, 5000) == 20.0


class TestEventLoop:
    @pytest.mark.parametrize("k", [1, 3])
    def test_arrival_is_chained_transfer(self, k):
        specs = [LinkSpec(1.0 + i, 500.0 * (i + 1)) for i in range(k)]
        expected = 3.0
        for spec in specs:
            expected = _Channel(spec).transfer(expected, 1200)
        arrivals = []
        loop = _EventLoop()
        channels = tuple(_Channel(spec) for spec in specs)
        loop.send(channels, 3.0, 1200, lambda t, arg: arrivals.append((t, arg)), "m")
        loop.run()
        assert arrivals == [(expected, "m")]

    def test_equal_time_sends_arrive_in_send_order(self):
        # Empty messages cross without queueing, so both arrive at 5 ms.
        channels = (_Channel(LinkSpec(2.0, 1000.0)), _Channel(LinkSpec(3.0, 1000.0)))
        arrivals = []
        loop = _EventLoop()
        for name in ("first", "second"):
            loop.send(channels, 0.0, 0, lambda t, arg: arrivals.append((t, arg)), name)
        loop.run()
        assert arrivals == [(5.0, "first"), (5.0, "second")]

    def test_equal_time_events_run_in_push_order(self):
        # Empty messages sent at 0 over links of these delays pop at 8 and 7 ms.
        ran = []
        loop = _EventLoop()
        for time, name in [(8.0, "late"), (7.0, "a"), (7.0, "b"), (7.0, "c")]:
            channels = (_Channel(LinkSpec(time, 1000.0)),)
            loop.send(channels, 0.0, 0, lambda t, arg: ran.append(arg), name)
        loop.run()
        assert ran == ["a", "b", "c", "late"]

    # One 1000 B message takes 1 ms on this channel, so the order in which
    # two messages claim it shows in their arrival times.
    def _contend(self, arrival_time):
        channel = _Channel(LinkSpec(0.0, 1000.0))
        arrivals = []

        def then(t, arg):
            arrivals.append((t, arg))

        loop = _EventLoop()
        # Sent at 0 over a 1 ms + 4 ms link, this message reaches the
        # contended channel in a heap event at 5 ms.
        loop.send((_Channel(LinkSpec(4.0, 1000.0)), channel), 0.0, 1000, then, "heap")
        loop.run([(arrival_time, (channel,), 1000, then, "arrival")])
        return arrivals

    def test_arrival_runs_before_equal_time_heap_event(self):
        assert self._contend(5.0) == [(6.0, "arrival"), (7.0, "heap")]

    def test_later_arrival_waits_for_heap_top(self):
        assert self._contend(5.5) == [(6.0, "heap"), (7.0, "arrival")]

    @pytest.mark.parametrize("hop_first", [True, False])
    def test_loop_hop_and_handler_send_claim_in_pop_order(self, hop_first):
        """At 5 ms the loop pops a message due to claim the contended channel
        for its second hop, and a message whose handler sends over that
        channel.  Whichever of the two was sent first claims it first."""
        channel = _Channel(LinkSpec(0.0, 1000.0))
        arrivals = []

        def then(t, arg):
            arrivals.append((t, arg))

        def send_over_channel(t, arg):
            loop.send((channel,), t, 1000, then, "sent")

        loop = _EventLoop()
        # 1 ms + 4 ms to reach the channel, and an empty message over 5 ms.
        hop = ((_Channel(LinkSpec(4.0, 1000.0)), channel), 0.0, 1000, then, "hop")
        trigger = ((_Channel(LinkSpec(5.0, 1000.0)),), 0.0, 0, send_over_channel, None)
        for message in (hop, trigger) if hop_first else (trigger, hop):
            loop.send(*message)
        loop.run()
        first, second = ("hop", "sent") if hop_first else ("sent", "hop")
        assert arrivals == [(6.0, first), (7.0, second)]

    @pytest.mark.parametrize("k", [1, 3])
    def test_delivery_completes_at_last_link(self, k):
        """``_Simulation._deliver`` in each of ``k`` cells, at every cache
        location: the record completes at the chained transfer over the links
        from the cache node down to the UE, and the loop's heap stays empty."""
        specs = [LinkSpec(1.0 + i, 500.0 * (i + 1)) for i in range(4)]
        depths = {CacheLocation.ENODEB: 1, CacheLocation.SGW: 2, CacheLocation.PGW: 3}
        for location, depth in depths.items():
            expected = 3.0
            for spec in specs[:depth][::-1]:
                expected = _Channel(spec).transfer(expected, 1200)
            topology = Topology(k, *specs, cache_location=location)
            for cell in range(k):
                sim = _Simulation(topology, pair_kb(), [], Mode.TRADITIONAL)
                record = types.SimpleNamespace(cell_id=cell, completed_at=0.0)
                sim._deliver(record, 3.0, 1200, ServedFrom.CACHE)
                assert record.completed_at == expected
                assert sim.loop._heap == []


_LINK = st.builds(
    LinkSpec,
    st.floats(0.0, 50.0, allow_nan=False),
    st.floats(1e-3, 1e6, allow_nan=False),
)
_TIME = st.floats(0.0, 1e4, allow_nan=False)
_NBYTES = st.integers(0, 200_000)


class TestWrittenOutTransfer:
    """``_EventLoop.run``'s hop claim and ``_Simulation._deliver``'s delivery
    chain write out ``_Channel.transfer``'s law; every arrival time and every
    ``busy_until`` they leave is the same float as a chain of ``transfer``
    calls on fresh channels gives."""

    @staticmethod
    def _twins(channels):
        """A fresh channel per channel, with the same spec and ``busy_until``."""
        twins = {}
        for channel in channels:
            twin = _Channel(LinkSpec(channel.delay, channel.bandwidth))
            twin.busy_until = channel.busy_until
            twins[channel] = twin
        return twins

    @given(
        links=st.lists(st.tuples(_LINK, _TIME), min_size=1, max_size=3),
        messages=st.lists(st.tuples(_TIME, _NBYTES), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_event_loop_hops(self, links, messages):
        channels = []
        for spec, busy_until in links:
            channel = _Channel(spec)
            channel.busy_until = busy_until
            channels.append(channel)
        path = tuple(channels)
        twins = self._twins(path)
        messages = sorted(messages, key=lambda m: m[0])

        # One path: every channel sees the messages in send order.
        expected = [t for t, _ in messages]
        for channel in path:
            for i, (_, nbytes) in enumerate(messages):
                expected[i] = twins[channel].transfer(expected[i], nbytes)

        arrived = []
        _EventLoop().run(
            (t, path, nbytes, lambda t, i: arrived.append((t.hex(), i)), i)
            for i, (t, nbytes) in enumerate(messages)
        )
        assert arrived == [(t.hex(), i) for i, t in enumerate(expected)]
        for channel in path:
            assert channel.busy_until.hex() == twins[channel].busy_until.hex()

    @given(
        links=st.lists(_LINK, min_size=4, max_size=4),
        cells=st.integers(1, 3),
        location=st.sampled_from(CacheLocation),
        # At most 7 delivery channels: two per cell and the shared S-GW-P-GW one.
        busy_untils=st.lists(_TIME, min_size=7, max_size=7),
        deliveries=st.lists(st.tuples(st.integers(0, 2), _TIME, _NBYTES), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_deliveries(self, links, cells, location, busy_untils, deliveries):
        topology = Topology(cells, *links, cache_location=location)
        sim = _Simulation(topology, pair_kb(), [], Mode.TRADITIONAL)
        channels = list(dict.fromkeys(c for route in sim.routes for c in route.access_down))
        for channel, busy_until in zip(channels, busy_untils):
            channel.busy_until = busy_until
        twins = self._twins(channels)

        for cell, t, size in deliveries:
            cell %= cells
            expected = t
            for channel in sim.routes[cell].access_down:
                expected = twins[channel].transfer(expected, size)
            record = types.SimpleNamespace(cell_id=cell, completed_at=0.0)
            sim._deliver(record, t, size, ServedFrom.CACHE)
            assert record.completed_at.hex() == expected.hex()
        for channel in channels:
            assert channel.busy_until.hex() == twins[channel].busy_until.hex()
        assert sim.loop._heap == []


class TestHeapEvents:
    """Each link a message crosses costs one heap push and one pop, except a
    delivery's links, which it claims at once when it leaves the cache node.
    A miss crosses the depth (1, 2 or 3) links up to the cache node and
    2 x (4 - depth) to the origin and back: 7/6/5 events.  A hit takes 1/2/3."""

    @pytest.fixture
    def count(self, monkeypatch):
        count = {"pops": 0, "pushes": 0}

        def heappop(heap):
            count["pops"] += 1
            return heapq.heappop(heap)

        def heappush(heap, item):
            count["pushes"] += 1
            heapq.heappush(heap, item)

        shim = types.SimpleNamespace(heappop=heappop, heappush=heappush)
        monkeypatch.setattr(sim_module, "heapq", shim)
        return count

    @pytest.mark.parametrize(
        "location, miss_events, hit_events",
        [(CacheLocation.ENODEB, 7, 1), (CacheLocation.SGW, 6, 2), (CacheLocation.PGW, 5, 3)],
    )
    def test_events_per_request(self, count, location, miss_events, hit_events):
        kb = load_knowledge_base(io.StringIO('"wiki/Alice" type Person\n"wiki/Alice" size 500\n'))
        miss = [TraceEntry(0.0, 0, 0, "wiki/Alice")]
        run_simulation(topo(location), kb, miss, Mode.TRADITIONAL)
        assert count == {"pops": miss_events, "pushes": miss_events}
        count.update(pops=0, pushes=0)
        hit = TraceEntry(10_000.0, 0, 0, "wiki/Alice")
        _, records = run_simulation(topo(location), kb, miss + [hit], Mode.TRADITIONAL)
        assert records[1].served_from is ServedFrom.CACHE
        events = miss_events + hit_events
        assert count == {"pops": events, "pushes": events}


class TestDeliveryLinks:
    """A delivery may claim all its links at once because every delivery link
    after the first is fed only by the link before it, in that link's FIFO
    order."""

    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("location", list(CacheLocation))
    def test_later_delivery_links_have_one_feeder(self, location, cells):
        sim = _Simulation(topo(location, cells=cells), pair_kb(), [], Mode.TRADITIONAL)
        feeders, firsts = {}, set()
        for route in sim.routes:
            for path in (route.access_up, route.access_down, route.origin_up, route.origin_down):
                firsts.add(path[0])
                for before, channel in zip(path, path[1:]):
                    feeders.setdefault(channel, set()).add(before)
        for route in sim.routes:
            path = route.access_down
            for before, channel in zip(path, path[1:]):
                assert feeders[channel] == {before}
                assert channel not in firsts


def _deliver_hop_by_hop(self, record, t, size, served_from):
    """``_Simulation._deliver`` with one heap event per delivery link."""
    record.served_from = served_from
    self.loop.send(self.routes[record.cell_id].access_down, t, size, _stamp, record)


def _stamp(t, record):
    record.completed_at = t


# (kind, size, related entity indices); sizes lie around the cache capacity.
_ENTITY = st.tuples(
    st.sampled_from(["Person", "TVSeries"]),
    st.integers(10_000, 120_000),
    st.lists(st.integers(0, 5), max_size=3, unique=True),
)
# (gap before the request in ms, cell, entity index)
_STEP = st.tuples(st.sampled_from([0.0, 1.0, 100.0, 1000.0]), st.integers(0, 2), st.integers(0, 5))


class TestDeliveriesMatchHopByHop:
    """Claiming a delivery's links at once changes no simulated number."""

    @staticmethod
    def _run(entities, steps, cells, location, mode, eviction):
        lines = []
        for i, (kind, size, related) in enumerate(entities):
            predicate = "spouse" if kind == "Person" else "starring"
            lines += [f'"e{i}" type {kind}', f'"e{i}" size {size}']
            lines += [f'"e{i}" {predicate} "e{j % len(entities)}"' for j in related]
        kb = load_knowledge_base(io.StringIO("\n".join(lines) + "\n"))
        trace, time = [], 0.0
        for gap, cell, entity in steps:
            time += gap
            trace.append(TraceEntry(time, cell % cells, cell % cells, f"e{entity % len(entities)}"))
        topology = replace(topo(location, 100_000, cells), eviction=eviction)
        report, records = run_simulation(topology, kb, trace, mode)
        return repr(report), [(r.completed_at.hex(), r.served_from) for r in records]

    @given(
        entities=st.lists(_ENTITY, min_size=2, max_size=6),
        steps=st.lists(_STEP, min_size=1, max_size=12),
        cells=st.integers(1, 3),
        location=st.sampled_from(CacheLocation),
        mode=st.sampled_from(Mode),
        eviction=st.sampled_from(["lru", "fifo"]),
    )
    # Two equal-time P-GW hits from different cells share its first link.
    @example(
        entities=[("Person", 50_000, []), ("Person", 20_000, [])],
        steps=[(0.0, 0, 0), (1000.0, 0, 0), (0.0, 1, 0)],
        cells=2,
        location=CacheLocation.PGW,
        mode=Mode.TRADITIONAL,
        eviction="lru",
    )
    @settings(max_examples=200, deadline=None)
    def test_same_report_and_records(self, entities, steps, cells, location, mode, eviction):
        args = (entities, steps, cells, location, mode, eviction)
        claimed_at_once = self._run(*args)
        with mock.patch.object(_Simulation, "_deliver", _deliver_hop_by_hop):
            assert self._run(*args) == claimed_at_once


def _round_trip(topology, depth, t, record, kb):
    """When ``record``'s content would reach its UE on idle links, had its
    request been sent at ``t`` over the first ``depth`` links and answered
    from there: ``_Channel.transfer`` chained over fresh channels.  Waiting
    for a busy channel only delays a message, so no record beats this."""
    iri = record.descriptor.entity_iri
    links = [getattr(topology, name) for name in sim_module.LINKS][:depth]
    for spec in links:
        t = _Channel(spec).transfer(t, len(iri.encode("utf-8")))
    for spec in reversed(links):
        t = _Channel(spec).transfer(t, kb.sizes[iri])
    return t


def _beat_access_round_trip(topology, kb, records):
    """Law (a): the ids of records that complete before the round trip to
    the cache node from their issue time."""
    depth = sim_module._CACHE_DEPTH[topology.cache_location]
    return [
        r.request_id
        for r in records
        if r.completed_at < _round_trip(topology, depth, r.issued_at, r, kb)
    ]


def _beat_origin_round_trip(topology, kb, records):
    """Law (b), Traditional mode: the ids of origin-served records that
    complete before the round trip to the origin from the issue time of the
    earliest origin-served request for their IRI."""
    served = [r for r in records if r.served_from is ServedFrom.ORIGIN]
    first = {}
    for r in served:
        first.setdefault(r.descriptor.entity_iri, r.issued_at)
    return [
        r.request_id
        for r in served
        if r.completed_at < _round_trip(topology, 4, first[r.descriptor.entity_iri], r, kb)
    ]


def _traditional_report_faults(report, records):
    """Law (c): the fields of a Traditional report that break it."""
    cached = sum(r.served_from is ServedFrom.CACHE for r in records)
    faults = {
        "hits": report.hits != cached,
        "prefetched_bytes": report.prefetched_bytes != 0,
        "metadata_overhead_bytes": report.metadata_overhead_bytes != 0,
    }
    return [name for name, fault in faults.items() if fault]


def _zero_prefetch_differences(traditional, semantic):
    """Law (d): what differs between a Traditional run and a Semantic run with
    ``max_prefetch=0``, each given as ``(report, records)``."""
    (trad, trad_records), (sem, sem_records) = traditional, semantic
    differences = [
        name for name in ("hits", "lookups", "origin_bytes")
        if getattr(trad, name) != getattr(sem, name)
    ]
    outcomes = [
        [(r.completed_at.hex(), r.served_from) for r in records]
        for records in (trad_records, sem_records)
    ]
    if outcomes[0] != outcomes[1]:
        differences.append("records")
    return differences


class TestModelLaws:
    """Laws of the model that hold under any tie rule and any event order.
    Each bound is exact, with no tolerance."""

    @given(
        entities=st.lists(_ENTITY, min_size=2, max_size=6),
        steps=st.lists(_STEP, min_size=1, max_size=12),
        cells=st.integers(1, 3),
        location=st.sampled_from(CacheLocation),
        eviction=st.sampled_from(["lru", "fifo"]),
        links=st.lists(_LINK, min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_laws_hold(self, entities, steps, cells, location, eviction, links):
        lines = []
        for i, (kind, size, related) in enumerate(entities):
            predicate = "spouse" if kind == "Person" else "starring"
            lines += [f'"e{i}" type {kind}', f'"e{i}" size {size}']
            lines += [f'"e{i}" {predicate} "e{j % len(entities)}"' for j in related]
        kb = load_knowledge_base(io.StringIO("\n".join(lines) + "\n"))
        trace, time = [], 0.0
        for gap, cell, entity in steps:
            time += gap
            trace.append(TraceEntry(time, cell % cells, cell % cells, f"e{entity % len(entities)}"))
        topology = Topology(
            cells, *links, cache_location=location, cache_capacity=100_000, eviction=eviction
        )
        trad = run_simulation(topology, kb, trace, Mode.TRADITIONAL)
        sem = run_simulation(topology, kb, trace, Mode.SEMANTIC)
        zero = run_simulation(replace(topology, max_prefetch=0), kb, trace, Mode.SEMANTIC)

        for _, records in (trad, sem, zero):
            assert _beat_access_round_trip(topology, kb, records) == []
        assert _beat_origin_round_trip(topology, kb, trad[1]) == []
        assert _traditional_report_faults(*trad) == []
        assert _zero_prefetch_differences(trad, zero) == []

    # Each law's check passes a clean run and catches one corrupted record
    # or report: a miss, then a hit, on the default topology.
    @pytest.fixture(scope="class")
    def clean(self):
        kb = pair_kb()
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice"), TraceEntry(5000.0, 0, 0, "wiki/Alice")]
        trad = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        zero = run_simulation(replace(topo(), max_prefetch=0), kb, trace, Mode.SEMANTIC)
        assert [r.served_from for r in trad[1]] == [ServedFrom.ORIGIN, ServedFrom.CACHE]
        return kb, trad, zero

    @staticmethod
    def _just_before(record, t):
        return replace(record, completed_at=math.nextafter(t, -math.inf))

    def test_access_round_trip_law_can_fail(self, clean):
        kb, (_, records), _ = clean
        assert _beat_access_round_trip(topo(), kb, records) == []
        bound = _round_trip(topo(), 1, records[1].issued_at, records[1], kb)
        corrupt = [records[0], self._just_before(records[1], bound)]
        assert _beat_access_round_trip(topo(), kb, corrupt) == [1]

    def test_origin_round_trip_law_can_fail(self, clean):
        kb, (_, records), _ = clean
        assert _beat_origin_round_trip(topo(), kb, records) == []
        bound = _round_trip(topo(), 4, records[0].issued_at, records[0], kb)
        corrupt = [self._just_before(records[0], bound), records[1]]
        assert _beat_origin_round_trip(topo(), kb, corrupt) == [0]

    @pytest.mark.parametrize("field", ["hits", "prefetched_bytes", "metadata_overhead_bytes"])
    def test_traditional_report_law_can_fail(self, clean, field):
        _, (report, records), _ = clean
        assert _traditional_report_faults(report, records) == []
        corrupt = replace(report, **{field: getattr(report, field) + 1})
        assert _traditional_report_faults(corrupt, records) == [field]

    def test_zero_prefetch_law_can_fail(self, clean):
        _, trad, (report, records) = clean
        assert _zero_prefetch_differences(trad, (report, records)) == []
        corrupt = [records[0], replace(records[1], served_from=ServedFrom.ORIGIN)]
        assert _zero_prefetch_differences(trad, (report, corrupt)) == ["records"]
        corrupt = replace(report, origin_bytes=report.origin_bytes + 1)
        assert _zero_prefetch_differences(trad, (corrupt, records)) == ["origin_bytes"]


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

    @pytest.mark.xfail(
        strict=True,
        reason="Cache.insert overwrites a cached entry's origin: a prefetch landing "
        "after the demand fetch of the same content credits bytes never counted "
        "in prefetched_bytes",
    )
    def test_prefetch_after_demand_fetch_credits_no_uncounted_bytes(self):
        kb = load_knowledge_base(io.StringIO(
            '"A" spouse "B"\n"A" type Person\n"A" size 50000\n'
            '"B" type TVSeries\n"B" size 50000\n'
        ))
        # B's demand fetch is in flight when A's request predicts B, so a
        # prefetch of B lands on the entry that demand fetch just cached.
        trace = [TraceEntry(0.0, 0, 0, "B"), TraceEntry(1.0, 1, 0, "A"),
                 TraceEntry(500.0, 2, 0, "B")]
        report, _ = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        assert report.prefetched_bytes_hit <= report.prefetched_bytes


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
            replace(topo(), max_prefetch=0), kb, trace, Mode.SEMANTIC
        )
        rep_trad, rec_trad = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        assert [r.served_from for r in rec_sem] == [r.served_from for r in rec_trad]
        assert [r.completed_at for r in rec_sem] == [r.completed_at for r in rec_trad]
        assert rep_sem.hits == rep_trad.hits
        assert rep_sem.prefetched_bytes == 0


class TestValidation:
    @pytest.mark.parametrize(
        "delay, bandwidth",
        [(-1.0, 1250.0), (math.nan, 1250.0), (math.inf, 1250.0), (10.0, 0.0), (10.0, math.nan)],
    )
    def test_invalid_link(self, delay, bandwidth):
        with pytest.raises(ValueError):
            LinkSpec(delay, bandwidth)

    def test_no_cells_rejected(self):
        with pytest.raises(ValueError, match="cells must be positive"):
            Topology(cells=0)

    def test_unsorted_trace(self):
        kb = pair_kb()
        trace = [
            TraceEntry(10.0, 0, 0, "wiki/Alice"),
            TraceEntry(5.0, 0, 0, "wiki/Bob"),
        ]
        with pytest.raises(UnsortedTrace):
            run_simulation(topo(), kb, trace, Mode.TRADITIONAL)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -100.0])
    def test_unreplayable_time_never_reaches_the_run(self, time):
        # A nan or inf time makes the mean latency nan; a negative one charges
        # the request a wait that no queue caused (every channel starts idle at 0).
        with pytest.raises(ValueError, match="time_ms"):
            trace = [TraceEntry(0.0, 0, 0, "wiki/Alice"), TraceEntry(time, 0, 0, "wiki/Bob")]
            run_simulation(topo(), pair_kb(), trace, Mode.TRADITIONAL)

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

    def test_cell_error_precedes_a_later_unsorted_entry(self):
        trace = [
            TraceEntry(0.0, 0, 5, "wiki/Alice"),
            TraceEntry(2.0, 0, 0, "wiki/Bob"),
            TraceEntry(1.0, 0, 0, "wiki/Alice"),
        ]
        with pytest.raises(SimulationError, match=r"^trace entry 0: cell 5 outside topology$"):
            run_simulation(topo(), pair_kb(), trace, Mode.TRADITIONAL)

    def test_unknown_entity_precedes_a_later_unsorted_entry(self):
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Nope"),
            TraceEntry(2.0, 0, 0, "wiki/Bob"),
            TraceEntry(1.0, 0, 0, "wiki/Alice"),
        ]
        with pytest.raises(UnknownEntity):
            run_simulation(topo(), pair_kb(), trace, Mode.TRADITIONAL)

    def test_unknown_eviction(self):
        with pytest.raises(ValueError, match="^eviction must be lru or fifo, got 'mru'$"):
            Topology(eviction="mru")

    def test_negative_max_prefetch(self):
        with pytest.raises(ValueError, match="max_prefetch"):
            Topology(max_prefetch=-1)

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


def swept_trace(kb, topology, workload):
    """The trace that ``run_sweep`` hands to its simulations."""
    traces = []
    real = experiments.run_simulation

    def capture(topology, kb, trace, *args, **kwargs):
        traces.append(trace)
        return real(topology, kb, trace, *args, **kwargs)

    scenario = experiments.Scenario(topology, workload)
    spec = experiments.SweepSpec(experiments.SweepVariable.CACHE_SIZE, (20_000_000,), scenario)
    with mock.patch.object(experiments, "run_simulation", capture):
        experiments.run_sweep(spec, kb)
    return traces[0]


class TestSweptTrace:
    """A trace that a sweep checked for one KB and cell count is checked
    again when it runs with another."""

    def test_fewer_cells_raise_the_cell_error(self):
        kb = reference_kb()
        trace = swept_trace(kb, topo(cells=2), replace(reference_workload(4), n_cells=2))
        first = next(i for i, entry in enumerate(trace) if entry.cell_id == 1)
        message = rf"^trace entry {first}: cell 1 outside topology$"
        with pytest.raises(SimulationError, match=message):
            run_simulation(topo(cells=1), kb, trace, Mode.TRADITIONAL)

    def test_equal_kb_loaded_again(self):
        workload = reference_workload(4)
        trace = swept_trace(reference_kb(), topo(cells=4), workload)
        kb = reference_kb()
        _, records = run_simulation(topo(cells=4), kb, trace, Mode.SEMANTIC)
        _, expected = run_simulation(topo(cells=4), kb, list(trace), Mode.SEMANTIC)
        assert records == expected
        assert all(r.descriptor is kb.describe(r.descriptor.entity_iri) for r in records)


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


class TestNoReferenceCycle:
    def test_records_die_with_the_report(self):
        # With the collector off, only reference counts free the records,
        # so a cycle through the simulation would keep them alive.
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice"), TraceEntry(1.0, 1, 0, "wiki/Bob")]
        gc.disable()
        try:
            report, records = run_simulation(topo(), pair_kb(), trace, Mode.SEMANTIC)
            ref = weakref.ref(records[0])
            del report, records
            assert ref() is None
        finally:
            gc.enable()


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

    def test_unknown_entity(self):
        with pytest.raises(UnknownEntity):
            metadata_overhead([TraceEntry(0.0, 0, 0, "wiki/Nope")], pair_kb())

    # IRIs of 1 to 600 UTF-8 bytes, multi-byte characters included, that the
    # KB parser reads as plain quoted IRIs.
    _IRIS = st.lists(
        st.text(alphabet="ab/_-0éü€😀", min_size=1, max_size=150),
        min_size=1,
        max_size=5,
        unique=True,
    )

    @given(
        iris=_IRIS,
        sizes=st.lists(st.integers(1, 200_000), min_size=5, max_size=5),
        steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), min_size=1, max_size=12),
    )
    @example(iris=["😀" * 150, "x"], sizes=[1, 2, 3, 4, 5], steps=[(0, 0), (1, 1), (0, 0)])
    @settings(max_examples=100, deadline=None)
    def test_semantic_run_counts_every_header(self, iris, sizes, steps):
        text = "".join(
            f'"{iri}" type Person\n"{iri}" size {size}\n' for iri, size in zip(iris, sizes)
        )
        kb = load_knowledge_base(io.StringIO(text))
        trace = [
            TraceEntry(float(t), user, 0, iris[entity % len(iris)])
            for t, (user, entity) in enumerate(steps)
        ]
        total = sum(len(encode_metadata(kb.describe(e.entity_iri)).to_bytes()) for e in trace)
        oracle = {
            "total_bytes": total,
            "per_user_bytes": total / len({e.user_id for e in trace}),
            "ratio_of_total_traffic": total / sum(kb.sizes[e.entity_iri] for e in trace),
        }
        report, _ = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        assert metadata_overhead(trace, kb) == oracle
        assert {
            "total_bytes": report.metadata_overhead_bytes,
            "per_user_bytes": report.per_user_metadata_bytes,
            "ratio_of_total_traffic": report.metadata_traffic_ratio,
        } == oracle

    def test_iri_over_the_header_limit(self):
        # 2,028 UTF-8 bytes: one more than a header can carry.
        iri = "wiki/" + "é" * 1011 + "x"
        assert len(iri.encode("utf-8")) == 2028
        kb = load_knowledge_base(io.StringIO(f'"{iri}" type Person\n"{iri}" size 500\n'))
        trace = [TraceEntry(0.0, 0, 0, iri)]
        with pytest.raises(MetadataTooLarge, match="^serialized descriptor is 2031 bytes"):
            run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        report, _ = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        assert report.metadata_overhead_bytes == 0
        assert report.per_user_metadata_bytes == report.metadata_traffic_ratio == 0.0
