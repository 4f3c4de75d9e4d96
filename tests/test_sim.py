import gc
import heapq
import io
import math
import types
import weakref
from contextlib import nullcontext
from dataclasses import fields, replace
from unittest import mock

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

import semcache.sim as sim_module
from semcache import experiments
from semcache.cache import Cache
from semcache.codec import MetadataTooLarge, encode_metadata
from semcache.kb import KnowledgeBase, UnknownEntity, load_knowledge_base
from semcache.metrics import MetricsReport
from semcache.reference import reference_kb, reference_workload
from semcache.sim import (
    CacheLocation,
    LinkSpec,
    Mode,
    RequestRecord,
    ServedFrom,
    SimulationError,
    Topology,
    UnsortedTrace,
    _Channel,
    _claim,
    _EventLoop,
    _PreparedTrace,
    _Simulation,
    run_simulation,
)
from semcache.workload import (
    TraceEntry,
    _columns,
    _Trace,
    generate_trace,
    load_trace,
    save_trace,
)

from reference_sim import ReferenceSim, run_reference

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
        assert _claim((_Channel(LinkSpec(10.0, 1000.0)),), 0.0, 0) == 10.0

    def test_payload_adds_serialization_delay(self):
        assert _claim((_Channel(LinkSpec(10.0, 1000.0)),), 0.0, 5000) == 15.0

    def test_fifo_serialization(self):
        # Two back-to-back 5000 B transfers: arrivals at 15 ms and 20 ms.
        path = (_Channel(LinkSpec(10.0, 1000.0)),)
        assert _claim(path, 0.0, 5000) == 15.0
        assert _claim(path, 0.0, 5000) == 20.0


class TestEventLoop:
    @pytest.mark.parametrize("k", [1, 3])
    def test_arrival_is_chained_transfer(self, k):
        """A message claimed over ``k`` links at once arrives when link-by-link
        claims have it arrive, and its event runs then."""
        specs = [LinkSpec(1.0 + i, 500.0 * (i + 1)) for i in range(k)]
        expected = 3.0
        for spec in specs:
            expected = _claim((_Channel(spec),), expected, 1200)
        arrivals = []
        loop = _EventLoop()
        path = tuple(_Channel(spec) for spec in specs)
        loop.at(_claim(path, 3.0, 1200), lambda t, arg: arrivals.append((t, arg)), "m")
        loop.run()
        assert arrivals == [(expected, "m")]

    def test_equal_time_sends_arrive_in_send_order(self):
        # Empty messages cross without queueing, so both arrive at 5 ms.
        path = (_Channel(LinkSpec(2.0, 1000.0)), _Channel(LinkSpec(3.0, 1000.0)))
        arrivals = []
        loop = _EventLoop()
        for name in ("first", "second"):
            loop.at(_claim(path, 0.0, 0), lambda t, arg: arrivals.append((t, arg)), name)
        loop.run()
        assert arrivals == [(5.0, "first"), (5.0, "second")]

    def test_equal_time_events_run_in_push_order(self):
        ran = []
        loop = _EventLoop()
        for time, name in [(8.0, "late"), (7.0, "a"), (7.0, "b"), (7.0, "c")]:
            loop.at(time, lambda t, arg: ran.append(arg), name)
        loop.run()
        assert ran == ["a", "b", "c", "late"]

    # One 1000 B message takes 1 ms on this channel, so the order in which
    # two messages claim it shows in their arrival times.
    @staticmethod
    def _claimant(arrivals):
        channel = _Channel(LinkSpec(0.0, 1000.0))

        def claim(t, arg):
            arrivals.append((_claim((channel,), t, 1000), arg))

        return claim

    def _contend(self, arrival_time):
        arrivals = []
        claim = self._claimant(arrivals)
        loop = _EventLoop()
        # A heap event at 5 ms claims the contended channel, as a fetch at
        # the S-GW claims its uplink.
        loop.at(5.0, claim, "heap")
        loop.run([(arrival_time, "arrival")], claim)
        return arrivals

    def test_arrival_runs_before_equal_time_heap_event(self):
        assert self._contend(5.0) == [(6.0, "arrival"), (7.0, "heap")]

    def test_later_arrival_waits_for_heap_top(self):
        assert self._contend(5.5) == [(6.0, "heap"), (7.0, "arrival")]

    @pytest.mark.parametrize(
        "second, pushed, expected",
        [(5.0, 5.0, ["first", "second", "pushed"]), (7.0, 6.0, ["first", "pushed", "second"])],
    )
    def test_event_pushed_by_an_arrival(self, second, pushed, expected):
        """The first arrival's handler pushes a heap event at ``pushed``: it
        runs after an arrival at its own time and before a later one."""
        ran = []
        loop = _EventLoop()

        def arrive(t, name):
            ran.append(name)
            if name == "first":
                loop.at(pushed, lambda t, arg: ran.append(arg), "pushed")

        loop.run([(5.0, "first"), (second, "second")], arrive)
        assert ran == expected

    def _land_contend(self, arrival_time):
        arrivals = []
        claim = self._claimant(arrivals)
        loop = _EventLoop()
        # A landing at 5 ms claims the contended channel, as a landing
        # delivers over its cell's links.
        loop.landings.append((5.0, "landing"))
        loop.run([(arrival_time, "arrival")], claim, claim)
        return arrivals

    def test_arrival_runs_before_equal_time_landing(self):
        assert self._land_contend(5.0) == [(6.0, "arrival"), (7.0, "landing")]

    def test_later_arrival_waits_for_landing(self):
        assert self._land_contend(5.5) == [(6.0, "landing"), (7.0, "arrival")]

    def test_equal_time_landings_run_in_launch_order(self):
        ran = []
        loop = _EventLoop()
        loop.landings.extend([(5.0, "first"), (5.0, "second"), (6.0, "late")])
        loop.run(land=lambda t, arg: ran.append((t, arg)))
        assert ran == [(5.0, "first"), (5.0, "second"), (6.0, "late")]

    @pytest.mark.parametrize(
        "second, landing, expected",
        [(5.0, 5.0, ["first", "second", "landing"]), (7.0, 6.0, ["first", "landing", "second"])],
    )
    def test_landing_queued_by_an_arrival(self, second, landing, expected):
        """The first arrival's handler queues a landing at ``landing``: it
        runs after an arrival at its own time and before a later one."""
        ran = []
        loop = _EventLoop()

        def arrive(t, name):
            ran.append(name)
            if name == "first":
                loop.landings.append((landing, "landing"))

        loop.run([(5.0, "first"), (second, "second")], arrive, lambda t, arg: ran.append(arg))
        assert ran == expected

    @pytest.mark.parametrize("hop_first", [True, False])
    def test_loop_hop_and_handler_send_claim_in_pop_order(self, hop_first):
        """At 5 ms the loop pops the event of a message's hop to the contended
        channel, and an event whose handler sends over that channel.
        Whichever of the two was pushed first claims it first."""
        arrivals = []
        claim = self._claimant(arrivals)
        loop = _EventLoop()
        # 1 ms + 4 ms to reach the channel, and an empty message over 5 ms.
        hop = (_claim((_Channel(LinkSpec(4.0, 1000.0)),), 0.0, 1000), claim, "hop")
        trigger = (_claim((_Channel(LinkSpec(5.0, 1000.0)),), 0.0, 0), claim, "sent")
        for event in (hop, trigger) if hop_first else (trigger, hop):
            loop.at(*event)
        loop.run()
        first, second = ("hop", "sent") if hop_first else ("sent", "hop")
        assert arrivals == [(6.0, first), (7.0, second)]

    @pytest.mark.parametrize("k", [1, 3])
    def test_delivery_completes_at_last_link(self, k):
        """``_Simulation._deliver`` in each of ``k`` cells, at every cache
        location: the request completes at the chained claims over the links
        from the cache node down to the UE, and the loop's heap and landing
        queue stay empty."""
        specs = [LinkSpec(1.0 + i, 500.0 * (i + 1)) for i in range(4)]
        depths = {CacheLocation.ENODEB: 1, CacheLocation.SGW: 2, CacheLocation.PGW: 3}
        for location, depth in depths.items():
            expected = 3.0
            for spec in specs[:depth][::-1]:
                expected = _claim((_Channel(spec),), expected, 1200)
            topology = Topology(k, *specs, cache_location=location)
            for cell in range(k):
                trace = [TraceEntry(0.0, 0, cell, "wiki/Alice")]
                sim = _Simulation(topology, pair_kb(), trace, Mode.TRADITIONAL)
                sim._deliver(0, 3.0, 1200, ServedFrom.CACHE)
                assert sim.completed == [expected] and sim.served == [ServedFrom.CACHE]
                assert sim.loop._heap == [] and not sim.loop.landings


_LINK = st.builds(
    LinkSpec,
    st.floats(0.0, 50.0, allow_nan=False),
    st.floats(1e-3, 1e6, allow_nan=False),
)
# Delays and bandwidths whose sums and quotients tie often.
_TIE_LINK = st.builds(
    LinkSpec,
    st.sampled_from([0.0, 1.0, 2.5, 5.0]),
    st.sampled_from([0.5, 1.0, 2.0, 1e6]),
)
_IRIS = ("a", "bb", "cccc")


class TestAccessArrivalsMatchHopByHop:
    """``schedule_trace``'s arrivals at the cache node, worked out before the
    run, and their order are those at which the reference simulator's
    requests, sent one link per step, reach the cache node: as a run of a
    plain list works them out from the trace's times, and as a prepared
    trace extends the arrivals it stored at the eNodeB."""

    TRIPLES = [(iri, p, o) for iri in _IRIS for p, o in (("type", "Person"), ("size", 10))]

    @given(
        links=st.lists(_TIE_LINK, min_size=4, max_size=4),
        cells=st.integers(1, 3),
        location=st.sampled_from(CacheLocation),
        # (gap before the request in ms, cell, IRI)
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.integers(0, 2), st.sampled_from(_IRIS)
            ),
            min_size=1,
            max_size=12,
        ),
    )
    # The second and third requests reach the S-GW together at 7 ms, in the
    # reverse of their trace order at the eNodeB, and share the P-GW link.
    @example(
        links=[LinkSpec(0.0, 2.0), LinkSpec(0.0, 1.0), LinkSpec(0.0, 1e6), LinkSpec(0.0, 1.0)],
        cells=2,
        location=CacheLocation.PGW,
        steps=[(0.0, 1, "cccc"), (1.0, 0, "cccc"), (0.0, 1, "a")],
    )
    @settings(max_examples=300, deadline=None)
    def test_same_arrivals_and_channels(self, links, cells, location, steps):
        kb = load_knowledge_base(
            io.StringIO("".join(f'"{s}" {p} {o}\n' for s, p, o in self.TRIPLES))
        )
        trace, time = [], 0.0
        for gap, cell, iri in steps:
            time += gap
            trace.append(TraceEntry(time, 0, cell % cells, iri))
        topology = Topology(cells, *links, cache_location=location)
        reference = ReferenceSim(topology, self.TRIPLES, trace, Mode.TRADITIONAL).run()
        expected = [(t.hex(), i) for t, i in reference.reached]

        sim = _Simulation(topology, kb, trace, Mode.TRADITIONAL)
        assert [(t.hex(), i) for t, i in sim.schedule_trace()] == expected
        prepared = _PreparedTrace(trace, kb, cells)
        prepared.arrivals(sim.access_links[:1])
        times, order = prepared.arrivals(sim.access_links)
        assert [(times[i].hex(), i) for i in order] == expected


class TestHeapEvents:
    """A request claims its links up to the cache node before the run, and
    a delivery claims its links at once when it leaves the cache node, so
    neither costs an event.  A miss's fetch from an eNodeB cache costs two
    heap events: one where it reaches the S-GW, whose uplink merges the
    cells' fetches, and one where it lands.  From an S-GW or P-GW cache it
    costs none: its landing joins the queue of landings, in launch order.
    So a miss costs 2/0/0 heap events and 0/1/1 landings.  A hit costs
    nothing."""

    @pytest.fixture
    def count(self, monkeypatch):
        count = {"pops": 0, "pushes": 0, "landings": 0}

        class Landings(deque):
            def append(self, landing):
                count["landings"] += 1
                super().append(landing)

        def heappop(heap):
            count["pops"] += 1
            return heapq.heappop(heap)

        def heappush(heap, item):
            count["pushes"] += 1
            heapq.heappush(heap, item)

        shim = types.SimpleNamespace(heappop=heappop, heappush=heappush)
        monkeypatch.setattr(sim_module, "heapq", shim)
        monkeypatch.setattr(sim_module, "deque", Landings)
        return count

    @pytest.mark.parametrize(
        "location, heap_events, landings",
        [(CacheLocation.ENODEB, 2, 0), (CacheLocation.SGW, 0, 1), (CacheLocation.PGW, 0, 1)],
    )
    def test_events_per_request(self, count, location, heap_events, landings):
        kb = load_knowledge_base(io.StringIO('"wiki/Alice" type Person\n"wiki/Alice" size 500\n'))
        miss = [TraceEntry(0.0, 0, 0, "wiki/Alice")]
        expected = {"pops": heap_events, "pushes": heap_events, "landings": landings}
        run_simulation(topo(location), kb, miss, Mode.TRADITIONAL)
        assert count == expected
        count.update(pops=0, pushes=0, landings=0)
        hit = TraceEntry(10_000.0, 0, 0, "wiki/Alice")
        _, records = run_simulation(topo(location), kb, miss + [hit], Mode.TRADITIONAL)
        assert records[1].served_from is ServedFrom.CACHE
        assert count == expected


class TestDeliveryLinks:
    """A message may claim a run of links at once where each link after the
    first is fed only by the link before it, in that link's FIFO order: a
    delivery all its links, and a fetch its links from the S-GW (or its
    cache node above it) to the origin and back."""

    @staticmethod
    def _feeders(sim):
        """Each channel's feeders, and the channels that are first on a path
        (fed by a cache node).  A fetch's path runs up to the origin and
        back down."""
        feeders, firsts = {}, set()
        for route in sim.routes:
            fetch = route.to_sgw + route.origin_up + route.origin_down
            for path in (route.access_down, fetch):
                firsts.add(path[0])
                for before, channel in zip(path, path[1:]):
                    feeders.setdefault(channel, set()).add(before)
        return feeders, firsts

    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("location", list(CacheLocation))
    def test_later_delivery_links_have_one_feeder(self, location, cells):
        sim = _Simulation(topo(location, cells=cells), pair_kb(), [], Mode.TRADITIONAL)
        feeders, firsts = self._feeders(sim)
        for route in sim.routes:
            path = route.access_down
            for before, channel in zip(path, path[1:]):
                assert feeders[channel] == {before}
                assert channel not in firsts

    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("location", list(CacheLocation))
    def test_fetch_links_above_the_sgw_have_one_feeder(self, location, cells):
        sim = _Simulation(topo(location, cells=cells), pair_kb(), [], Mode.TRADITIONAL)
        feeders, firsts = self._feeders(sim)
        for route in sim.routes:
            path = route.origin_up + route.origin_down
            for before, channel in zip(path, path[1:]):
                assert feeders[channel] == {before}
                assert channel not in firsts
            # Only eNodeB caches have links below the S-GW; their uplink is
            # where the cells' fetches merge.
            assert bool(route.to_sgw) is (location is CacheLocation.ENODEB)
            if route.to_sgw:
                merged = {r.to_sgw[-1] for r in sim.routes}
                assert feeders[route.origin_up[0]] == merged and len(merged) == cells
        fetch = {c for r in sim.routes for c in r.to_sgw + r.origin_up + r.origin_down}
        delivery = {c for r in sim.routes for c in r.access_down}
        assert not fetch & delivery


# (kind, size, related entity indices); sizes lie around the cache capacity.
_ENTITY = st.tuples(
    st.sampled_from(["Person", "TVSeries"]),
    st.integers(10_000, 120_000),
    st.lists(st.integers(0, 5), max_size=3, unique=True),
)
# (IRI, entity), each IRI once.
_ENTITIES = st.lists(
    st.tuples(st.text("abcdefgh", min_size=1, max_size=8), _ENTITY),
    min_size=2,
    max_size=6,
    unique_by=lambda entity: entity[0],
)
# (gap before the request in ms, cell, entity index)
_STEP = st.tuples(st.sampled_from([0.0, 1.0, 100.0, 1000.0]), st.integers(0, 2), st.integers(0, 5))


def _triples(entities):
    """The KB of ``entities``, each ``(IRI, (kind, size, related))``, as
    ``(subject, predicate, object)`` triples: a Person's related entities
    are its spouses, a TVSeries's its stars."""
    triples = []
    for iri, (kind, size, related) in entities:
        predicate = "spouse" if kind == "Person" else "starring"
        triples += [(iri, "type", kind), (iri, "size", size)]
        triples += [(iri, predicate, entities[j % len(entities)][0]) for j in related]
    return triples


def _kb_and_trace(entities, steps, cells):
    """A KB of ``entities``, each ``(IRI, (kind, size, related))``, and a
    trace of ``steps``, in which user and cell are the step's cell."""
    lines = [
        f'"{s}" {p} "{o}"' if p not in ("type", "size") else f'"{s}" {p} {o}'
        for s, p, o in _triples(entities)
    ]
    kb = load_knowledge_base(io.StringIO("\n".join(lines) + "\n"))
    trace, time = [], 0.0
    for gap, cell, entity in steps:
        time += gap
        iri = entities[entity % len(entities)][0]
        trace.append(TraceEntry(time, cell % cells, cell % cells, iri))
    return kb, trace


# Requests from three cells over the default links: each depth gives them
# other arrival times.
_QUEUED = dict(
    links=[Topology.ue_enb, Topology.enb_sgw, Topology.sgw_pgw, Topology.pgw_inet],
    entities=[("e0", ("Person", 50_000, [1])), ("e1", ("Person", 20_000, []))],
    steps=[(0.0, 0, 0), (1.0, 1, 1), (0.0, 2, 0)],
    cells=3,
    eviction="lru",
    max_prefetch=None,
)


class TestRunsMatchHopByHop:
    """Claiming runs of links at once, and landing an S-GW or P-GW cache's
    fetches in launch order, change no simulated number: every run matches
    the reference simulator's, which sends every message one link per step
    and takes each step from a plain list."""

    # The S-GW merge: the fetch for cccccccc leaves cell 0's eNodeB first,
    # but its 8 bytes take 8 ms to reach the S-GW, so a's fetch from cell 1
    # claims the S-GW uplink first.
    SGW_MERGE = dict(
        links=[LinkSpec(10.0, 1e6), LinkSpec(5.0, 1.0), LinkSpec(5.0, 1.0), LinkSpec(20.0, 1.0)],
        entities=[("cccccccc", ("Person", 100, [])), ("a", ("Person", 100, []))],
        steps=[(0.0, 0, 0), (0.5, 1, 1)],
        cells=2,
        location=CacheLocation.ENODEB,
        mode=Mode.TRADITIONAL,
        eviction="lru",
        max_prefetch=None,
    )

    @staticmethod
    def _inputs(links, entities, steps, cells, location, mode, eviction, max_prefetch):
        """``run_simulation``'s arguments for a scenario."""
        kb, trace = _kb_and_trace(entities, steps, cells)
        topology = Topology(
            cells,
            *links,
            cache_location=location,
            cache_capacity=100_000,
            eviction=eviction,
            max_prefetch=max_prefetch,
        )
        return topology, kb, trace, mode

    @given(
        links=st.lists(_TIE_LINK, min_size=4, max_size=4),
        entities=_ENTITIES,
        steps=st.lists(_STEP, min_size=1, max_size=12),
        cells=st.integers(1, 3),
        location=st.sampled_from(CacheLocation),
        mode=st.sampled_from(Mode),
        eviction=st.sampled_from(["lru", "fifo"]),
        max_prefetch=st.sampled_from([None, 0, 1]),
    )
    @example(**SGW_MERGE)
    # Two equal-time P-GW hits from different cells share its first link.
    @example(
        links=[Topology.ue_enb, Topology.enb_sgw, Topology.sgw_pgw, Topology.pgw_inet],
        entities=[("e0", ("Person", 50_000, [])), ("e1", ("Person", 20_000, []))],
        steps=[(0.0, 0, 0), (1000.0, 0, 0), (0.0, 1, 0)],
        cells=2,
        location=CacheLocation.PGW,
        mode=Mode.TRADITIONAL,
        eviction="lru",
        max_prefetch=None,
    )
    # Two equal-time misses: both requests reach the S-GW at 15.0008 ms, and
    # their fetches claim its uplink in the order the requests arrived.
    @example(
        links=[Topology.ue_enb, Topology.enb_sgw, Topology.sgw_pgw, Topology.pgw_inet],
        entities=[("a", ("Person", 10_000, [])), ("b", ("TVSeries", 20_000, []))],
        steps=[(0.0, 0, 0), (0.0, 1, 1)],
        cells=2,
        location=CacheLocation.SGW,
        mode=Mode.TRADITIONAL,
        eviction="lru",
        max_prefetch=None,
    )
    # ``TestEvictionTie``'s case, its sizes scaled to this cache: equal-time
    # hits on a and b, then c evicts the one hit first.
    @example(
        links=[Topology.ue_enb, Topology.enb_sgw, Topology.sgw_pgw, Topology.pgw_inet],
        entities=[(f"wiki/{e}", ("Person", 50_000, [])) for e in "abc"],
        steps=[(0.0, 0, 0), (0.0, 1, 1), (1000.0, 0, 0), (0.0, 1, 1), (1000.0, 0, 2),
               (1000.0, 0, 0), (0.0, 1, 1)],
        cells=2,
        location=CacheLocation.SGW,
        mode=Mode.TRADITIONAL,
        eviction="lru",
        max_prefetch=None,
    )
    # ``TestArrivalAsFetchLands``' case: the second request reaches its
    # eNodeB cache at 374 ms, as the first request's fetch lands.
    @example(
        links=[LinkSpec(delay, 1.0) for delay in (10.0, 5.0, 5.0, 20.0)],
        entities=[("a", ("Person", 100, [])), ("b", ("Person", 100, []))],
        steps=[(0.0, 0, 0), (363.0, 0, 0)],
        cells=1,
        location=CacheLocation.ENODEB,
        mode=Mode.TRADITIONAL,
        eviction="lru",
        max_prefetch=None,
    )
    # The same at an S-GW cache, whose landings queue in launch order: the
    # second request reaches it at 269 ms, as the first one's fetch lands.
    @example(
        links=[LinkSpec(delay, 1.0) for delay in (10.0, 5.0, 5.0, 20.0)],
        entities=[("a", ("Person", 100, [])), ("b", ("Person", 100, []))],
        steps=[(0.0, 0, 0), (252.0, 0, 0)],
        cells=1,
        location=CacheLocation.SGW,
        mode=Mode.TRADITIONAL,
        eviction="lru",
        max_prefetch=None,
    )
    # ``TestAccessArrivalsMatchHopByHop``'s S-GW tie: the second and third
    # requests reach the S-GW together, in the reverse of their trace order
    # at the eNodeB, and claim the P-GW uplink in their eNodeB order.
    @example(
        links=[LinkSpec(0.0, 2.0), LinkSpec(0.0, 1.0), LinkSpec(0.0, 1e6), LinkSpec(0.0, 1.0)],
        entities=[("cccc", ("Person", 10_000, [])), ("a", ("Person", 10_000, []))],
        steps=[(0.0, 1, 0), (1.0, 0, 0), (0.0, 1, 1)],
        cells=2,
        location=CacheLocation.PGW,
        mode=Mode.TRADITIONAL,
        eviction="lru",
        max_prefetch=None,
    )
    # ``TestSharedArrivals.QUEUED`` at the P-GW, with a prefetch.
    @example(**_QUEUED, location=CacheLocation.PGW, mode=Mode.SEMANTIC)
    @settings(max_examples=300, deadline=None)
    def test_same_report_and_records(self, **scenario):
        topology, kb, trace, mode = self._inputs(**scenario)
        report, records = run_simulation(topology, kb, trace, mode)
        triples = _triples(scenario["entities"])
        expected, completions = run_reference(topology, triples, trace, mode)
        assert repr(report) == repr(expected)
        assert [(r.completed_at.hex(), r.served_from) for r in records] == [
            (t.hex(), served_from) for t, served_from in completions
        ]

    def test_sgw_merge(self):
        _, records = run_simulation(*self._inputs(**self.SGW_MERGE))
        assert [round(r.completed_at, 6) for r in records] == [483.500101, 383.500101]


class TestSharedArrivals:
    """A column trace works out its arrivals once per run of access links
    and shares them: runs of one column trace at the three cache locations
    in both modes, in any order, each match the run of a fresh list of its
    entries."""

    RUNS = [(location, mode) for location in CacheLocation for mode in Mode]
    QUEUED = _QUEUED

    @given(
        links=st.lists(_TIE_LINK, min_size=4, max_size=4),
        entities=_ENTITIES,
        steps=st.lists(_STEP, min_size=1, max_size=12),
        cells=st.integers(1, 3),
        runs=st.permutations(RUNS),
        eviction=st.sampled_from(["lru", "fifo"]),
        max_prefetch=st.sampled_from([None, 0, 1]),
    )
    # The P-GW runs first and stores the arrivals of every shorter run of
    # links, which the later runs must find as they were worked out.
    @example(**QUEUED, runs=RUNS[::-1])
    # The S-GW run extends the first eNodeB run's arrivals, which the second
    # eNodeB run must find as they were.
    @example(**QUEUED, runs=[RUNS[0], RUNS[2], RUNS[1], RUNS[4], RUNS[3], RUNS[5]])
    @settings(max_examples=200, deadline=None)
    def test_each_run_matches_a_fresh_trace(
        self, links, entities, steps, cells, runs, eviction, max_prefetch
    ):
        kb, trace = _kb_and_trace(entities, steps, cells)
        shared = _Trace(*_columns(trace))

        def outcome(location, mode, trace):
            topology = Topology(
                cells,
                *links,
                cache_location=location,
                cache_capacity=100_000,
                eviction=eviction,
                max_prefetch=max_prefetch,
            )
            report, records = run_simulation(topology, kb, trace, mode)
            return repr(report), [(r.completed_at.hex(), r.served_from) for r in records]

        for location, mode in runs:
            assert outcome(location, mode, shared) == outcome(location, mode, list(trace))

    def test_a_list_is_prepared_as_a_column_trace(self, monkeypatch):
        """``run_simulation`` on a plain list prepares it once per run, as
        it would a column trace: the preparation stores each run of access
        links it works out, and the caller's list is left as it was."""
        prepared = []

        class Kept(_PreparedTrace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                prepared.append(self)

        monkeypatch.setattr(sim_module, "_PreparedTrace", Kept)
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice"), TraceEntry(1.0, 1, 1, "wiki/Bob")]
        before = list(trace)
        for location in CacheLocation:
            _, records = run_simulation(topo(location, cells=2), pair_kb(), trace, Mode.SEMANTIC)
            assert all(r.served_from is not None for r in records)
        assert [len(p._arrivals) for p in prepared] == [1, 2, 3]
        assert trace == before


def _round_trip(topology, depth, t, record, kb):
    """When ``record``'s content would reach its UE on idle links, had its
    request been sent at ``t`` over the first ``depth`` links and answered
    from there: ``_claim`` over fresh channels.  Waiting for a busy channel
    only delays a message, so no record beats this."""
    iri = record.descriptor.entity_iri
    links = [getattr(topology, name) for name in sim_module.LINKS][:depth]
    t = _claim(tuple(_Channel(spec) for spec in links), t, len(iri.encode("utf-8")))
    return _claim(tuple(_Channel(spec) for spec in reversed(links)), t, kb.sizes[iri])


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


# What law (d) leaves out: the report's mode, what carrying metadata costs,
# and the scenario, which describes the run rather than its outcome.
_NOT_IN_LAW_D = {
    "mode",
    "metadata_overhead_bytes",
    "per_user_metadata_bytes",
    "metadata_traffic_ratio",
    "scenario",
}


def _zero_prefetch_differences(traditional, semantic):
    """Law (d): what differs between a Traditional run and a Semantic run with
    ``max_prefetch=0``, each given as ``(report, records)``: each report field
    but those in ``_NOT_IN_LAW_D``, exactly, then the records."""
    (trad, trad_records), (sem, sem_records) = traditional, semantic
    differences = [
        field.name for field in fields(MetricsReport)
        if field.name not in _NOT_IN_LAW_D
        and getattr(trad, field.name) != getattr(sem, field.name)
    ]
    outcomes = [
        [(r.completed_at.hex(), r.served_from) for r in records]
        for records in (trad_records, sem_records)
    ]
    if outcomes[0] != outcomes[1]:
        differences.append("records")
    return differences


def _with_inserted_bytes(run):
    """``run()``, and the sizes passed to ``Cache.insert`` while it ran, summed."""
    sizes = []
    real = Cache.insert

    def insert(self, key, size, origin, now):
        sizes.append(size)
        return real(self, key, size, origin, now)

    with mock.patch.object(Cache, "insert", insert):
        out = run()
    return out, sum(sizes)


def _unconserved_bytes(report, inserted):
    """Law (e), either mode: every origin fetch, demand or prefetch, ends in
    exactly one ``Cache.insert`` of its content, stored, refreshed or
    rejected, so the inserted sizes sum to ``origin_bytes``.  The report
    fields that break it."""
    return [] if report.origin_bytes == inserted else ["origin_bytes"]


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
        kb, trace = _kb_and_trace([(f"e{i}", e) for i, e in enumerate(entities)], steps, cells)
        topology = Topology(
            cells, *links, cache_location=location, cache_capacity=100_000, eviction=eviction
        )
        trad, trad_bytes = _with_inserted_bytes(
            lambda: run_simulation(topology, kb, trace, Mode.TRADITIONAL)
        )
        sem, sem_bytes = _with_inserted_bytes(
            lambda: run_simulation(topology, kb, trace, Mode.SEMANTIC)
        )
        zero = run_simulation(replace(topology, max_prefetch=0), kb, trace, Mode.SEMANTIC)

        for _, records in (trad, sem, zero):
            assert _beat_access_round_trip(topology, kb, records) == []
        assert _beat_origin_round_trip(topology, kb, trad[1]) == []
        assert _traditional_report_faults(*trad) == []
        assert _zero_prefetch_differences(trad, zero) == []
        assert _unconserved_bytes(trad[0], trad_bytes) == []
        assert _unconserved_bytes(sem[0], sem_bytes) == []

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
        corrupt = replace(report, prefetched_bytes=report.prefetched_bytes + 1)
        assert _zero_prefetch_differences(trad, (corrupt, records)) == ["prefetched_bytes"]

    def test_byte_conservation_law_can_fail(self):
        """A Semantic run that demand-fetches Alice and prefetches Bob
        inserts both; one byte more or less of ``origin_bytes`` is caught."""
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice")]
        (report, _), inserted = _with_inserted_bytes(
            lambda: run_simulation(topo(), pair_kb(), trace, Mode.SEMANTIC)
        )
        assert report.prefetched_bytes > 0
        assert _unconserved_bytes(report, inserted) == []
        for wrong in (report.origin_bytes - 1, report.origin_bytes + 1):
            corrupt = replace(report, origin_bytes=wrong)
            assert _unconserved_bytes(corrupt, inserted) == ["origin_bytes"]


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


class TestMaxPrefetch:
    """The cap applies to the first ``max_prefetch`` predictions in IRI order,
    cached or pending ones included: A's predictions are B, already cached,
    then C, so a cap of 1 prefetches nothing and C misses."""

    KB = '"A" spouse "B"\n"A" spouse "C"\n' + "".join(
        f'"{iri}" type Person\n"{iri}" size 1000\n' for iri in "ABC"
    )

    @pytest.mark.parametrize("cap, prefetched, hits", [(1, 0, 0), (2, 1000, 1), (None, 1000, 1)])
    def test_cap_counts_cached_predictions(self, cap, prefetched, hits):
        kb = load_knowledge_base(io.StringIO(self.KB))
        trace = [TraceEntry(t, 0, 0, iri) for t, iri in [(0.0, "B"), (5000.0, "A"), (10_000.0, "C")]]
        topology = replace(topo(), max_prefetch=cap)
        report, _ = run_simulation(topology, kb, trace, Mode.SEMANTIC)
        assert (report.prefetched_bytes, report.hits) == (prefetched, hits)


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


class TestArrivalAsFetchLands:
    """A request reaches its eNodeB cache just as the fetch of its content
    lands there, at 374 ms.  Links carry 1 byte/ms with delays 10/5/5/20 ms,
    and the fetch of the 100-byte ``a`` for the request issued at 0 lands at
    374 ms.  At a cache node a request that arrives at T runs before any
    other event at T, so the request issued at 363 ms, which arrives at
    374 ms, misses and fetches again; one issued a millisecond later arrives
    after the fetch has landed and hits."""

    def _run(self, second_issued_at):
        kb = load_knowledge_base(io.StringIO('"a" type Person\n"a" size 100\n'))
        topology = Topology(1, *(LinkSpec(delay, 1.0) for delay in (10.0, 5.0, 5.0, 20.0)))
        trace = [TraceEntry(0.0, 0, 0, "a"), TraceEntry(second_issued_at, 1, 0, "a")]
        return run_simulation(topology, kb, trace, Mode.TRADITIONAL)

    def test_arrival_as_fetch_lands_misses(self):
        report, records = self._run(363.0)
        assert [r.served_from for r in records] == [ServedFrom.ORIGIN, ServedFrom.ORIGIN]
        assert [r.completed_at for r in records] == [484.0, 847.0]
        assert report.origin_bytes == 200

    def test_later_arrival_hits(self):
        report, records = self._run(364.0)
        assert [r.served_from for r in records] == [ServedFrom.ORIGIN, ServedFrom.CACHE]
        assert [r.completed_at for r in records] == [484.0, 584.0]
        assert report.origin_bytes == 100

    def test_earlier_arrival_misses(self):
        report, records = self._run(362.0)
        assert [r.served_from for r in records] == [ServedFrom.ORIGIN, ServedFrom.ORIGIN]
        assert report.origin_bytes == 200


class TestEvictionTie:
    """Two cache hits at the same instant decide which entry the next insert
    evicts.  Three 50-byte Persons share one 100-byte S-GW cache over two
    cells; ``a`` and ``b`` are cached, the requests issued at 1000 ms hit
    ``x`` then ``y`` together at 1030.0896 ms, and ``c`` at 2000 ms evicts
    one of them.  Equal-time hits run in trace order, so under LRU the one
    hit first is evicted; FIFO evicts ``a``, the first inserted."""

    def _run(self, eviction, x, y):
        text = "".join(f'"wiki/{e}" type Person\n"wiki/{e}" size 50\n' for e in "abc")
        kb = load_knowledge_base(io.StringIO(text))
        topology = Topology(
            cells=2, cache_location=CacheLocation.SGW, cache_capacity=100, eviction=eviction
        )
        steps = [(0, 0, 0, "a"), (0, 1, 1, "b"), (1000, 0, 0, x), (1000, 1, 1, y),
                 (2000, 0, 0, "c"), (3000, 0, 0, "a"), (3000, 1, 1, "b")]
        trace = [TraceEntry(float(t), user, cell, f"wiki/{e}") for t, user, cell, e in steps]
        report, records = run_simulation(topology, kb, trace, Mode.TRADITIONAL)
        assert records[2].served_from is records[3].served_from is ServedFrom.CACHE
        assert records[2].completed_at == records[3].completed_at == pytest.approx(1030.0896)
        assert report.origin_bytes == 200
        return [r.served_from for r in records[5:]]

    @pytest.mark.parametrize(
        "eviction, x, y, a_from, b_from",
        [
            ("lru", "a", "b", ServedFrom.ORIGIN, ServedFrom.CACHE),
            ("lru", "b", "a", ServedFrom.CACHE, ServedFrom.ORIGIN),
            ("fifo", "a", "b", ServedFrom.ORIGIN, ServedFrom.CACHE),
            ("fifo", "b", "a", ServedFrom.ORIGIN, ServedFrom.CACHE),
        ],
    )
    def test_equal_time_hits_in_trace_order(self, eviction, x, y, a_from, b_from):
        assert self._run(eviction, x, y) == [a_from, b_from]


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
        with pytest.raises(ValueError, match="cells must be >= 1, got 0"):
            Topology(cells=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cache_capacity", 5e6),
            ("cells", True),
            ("max_prefetch", 1.5),
            ("max_prefetch", True),
            ("cache_location", "enodeb"),
        ],
    )
    def test_wrong_type_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an? .*, got {value!r}"):
            Topology(**{field: value})

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cell_id", True),
            ("cell_id", 0.0),
            ("cell_id", 1.5),
            ("cell_id", "0"),
            ("user_id", True),
            ("user_id", 1.5),
            ("user_id", "0"),
        ],
    )
    def test_id_that_is_not_an_int(self, field, value):
        # A bool cell would run as cell 0 or 1, and a bool user would be
        # counted as user 0 or 1; a float or str cell would fail in the run.
        bad = replace(TraceEntry(1.0, 1, 1, "wiki/Bob"), **{field: value})
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice"), bad]
        ran = AssertionError("the event loop ran")
        message = rf"^trace entry 1: {field} must be an int, got {value!r}$"
        with mock.patch.object(_EventLoop, "run", side_effect=ran), pytest.raises(
            SimulationError, match=message
        ):
            run_simulation(topo(cells=2), pair_kb(), trace, Mode.SEMANTIC)

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

        def drop_request_1(self, i, t, size, served_from):
            if i != 1:
                deliver(self, i, t, size, served_from)

        monkeypatch.setattr(_Simulation, "_deliver", drop_request_1)
        trace = [
            TraceEntry(0.0, 0, 0, "wiki/Alice"),
            TraceEntry(1.0, 1, 0, "wiki/Bob"),
            TraceEntry(2.0, 2, 0, "wiki/Bob"),
        ]
        with pytest.raises(SimulationError, match="request 1 "):
            run_simulation(topo(), pair_kb(), trace, Mode.TRADITIONAL)


def _first_fault(trace, kb, cells):
    """The README's per-entry rule: the first entry with a fault, and its
    first fault, as ``(exception type, message)``; None for a clean trace.
    An entry is checked for time order, then for a known IRI, then for int
    ids (``user_id`` first), then for its cell range, then for an IRI that
    encodes to UTF-8."""
    previous = 0.0
    for idx, entry in enumerate(trace):
        if entry.time_ms < previous:
            return UnsortedTrace, f"trace entry {idx} is earlier than its predecessor"
        previous = entry.time_ms
        if entry.entity_iri not in kb:
            return UnknownEntity, f"entity {entry.entity_iri!r} is not in the knowledge base"
        for name in ("user_id", "cell_id"):
            value = getattr(entry, name)
            if type(value) is not int:
                return SimulationError, f"trace entry {idx}: {name} must be an int, got {value!r}"
        if not 0 <= entry.cell_id < cells:
            return SimulationError, f"trace entry {idx}: cell {entry.cell_id} outside topology"
        try:
            entry.entity_iri.encode()
        except UnicodeEncodeError as exc:
            return UnicodeEncodeError, str(exc)
    return None


# (field, value): a fault to inject into an entry.  A ``time_ms`` of None
# stands for half a millisecond before the previous entry.
_FAULT = st.one_of(
    st.tuples(st.just("time_ms"), st.none()),
    st.tuples(st.just("entity_iri"), st.sampled_from(["wiki/Nope", "wiki/\ud800"])),
    st.tuples(st.sampled_from(["user_id", "cell_id"]), st.sampled_from([True, False, 0.0, 1.5])),
    st.tuples(st.just("cell_id"), st.sampled_from([-1, 2, 5])),
)


# ``PAIR_KB`` plus an IRI that is in the KB but does not encode to UTF-8.
SURROGATE_KB = PAIR_KB + '"wiki/\ud800" type Person\n"wiki/\ud800" size 10\n'


class TestPreparationFaults:
    """A trace is checked entry by entry: the error raised is the per-entry
    rule's, type and message, whatever faults the trace holds and in
    whatever order, and each entry is described once.  A clean trace gets
    each entry's descriptor and IRI byte length."""

    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0]),
                st.integers(0, 1),
                st.sampled_from(["wiki/Alice", "wiki/Bob"]),
            ),
            min_size=1,
            max_size=8,
        ),
        faults=st.lists(st.tuples(st.integers(0, 7), _FAULT), max_size=3),
    )
    @example(steps=[(0.0, 0, "wiki/Alice")] * 3, faults=[(2, ("time_ms", None))])
    @example(
        steps=[(0.0, 0, "wiki/Alice")] * 3,
        faults=[(2, ("cell_id", 2)), (1, ("user_id", True)), (1, ("entity_iri", "wiki/Nope"))],
    )
    @example(
        steps=[(0.0, 0, "wiki/Alice")] * 3,
        faults=[(1, ("entity_iri", "wiki/\ud800")), (2, ("cell_id", 2))],
    )
    @settings(max_examples=300, deadline=None)
    def test_first_fault_by_the_per_entry_rule(self, steps, faults):
        trace, time = [], 1.0
        for gap, cell, iri in steps:
            time += gap
            trace.append(TraceEntry(time, cell, cell, iri))
        for index, (field, value) in faults:
            i = index % len(trace)
            if field == "time_ms":
                value = max(trace[i - 1].time_ms - 0.5, 0.0) if i else 0.0
            trace[i] = replace(trace[i], **{field: value})
        kb = load_knowledge_base(io.StringIO(SURROGATE_KB))
        expected = _first_fault(trace, kb, 2)
        if expected is None:
            prepared = _PreparedTrace(trace, kb, 2)
            assert prepared.descriptors == [kb.describe(entry.entity_iri) for entry in trace]
            assert prepared.nbytes == [len(entry.entity_iri.encode()) for entry in trace]
        else:
            with pytest.raises(Exception) as raised:
                _PreparedTrace(trace, kb, 2)
            assert (type(raised.value), str(raised.value)) == expected

    @pytest.mark.parametrize(
        "last, error",
        [
            (TraceEntry(4.0, 0, 0, "wiki/Alice"), None),
            (TraceEntry(4.0, 0, 2, "wiki/Alice"), SimulationError),
            (TraceEntry(4.0, 0, 0, "wiki/Nope"), UnknownEntity),
        ],
    )
    def test_each_entry_described_once(self, last, error):
        """A fault in the last entry costs no second pass over the trace: five
        entries make five ``describe`` calls, as a clean trace does."""
        trace = [TraceEntry(float(t), 0, 0, "wiki/Alice") for t in range(4)] + [last]
        calls = []
        real = KnowledgeBase.describe

        def describe(self, iri):
            calls.append(iri)
            return real(self, iri)

        raised = pytest.raises(error) if error else nullcontext()
        with mock.patch.object(KnowledgeBase, "describe", describe), raised:
            _PreparedTrace(trace, pair_kb(), 2)
        assert len(calls) == 5


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


def loaded_trace(kb):
    """Six users of the reference browsing mix in two cells, saved as CSV
    and loaded back: a column trace."""
    sink = io.StringIO()
    save_trace(generate_trace(kb, replace(reference_workload(6), n_cells=2)), sink)
    return load_trace(io.StringIO(sink.getvalue()))


class TestColumnTraceKeepsItsPreparation:
    """A loaded or generated trace keeps its preparation for its next run,
    by any caller: with the same KB object and cell count a run checks,
    describes and claims nothing again, and with another it prepares the
    trace afresh.  Every run equals a run of a plain list of its entries."""

    RUNS = TestSharedArrivals.RUNS

    @pytest.fixture
    def describes(self, monkeypatch):
        calls = []
        real = KnowledgeBase.describe

        def describe(self, iri):
            calls.append(iri)
            return real(self, iri)

        monkeypatch.setattr(KnowledgeBase, "describe", describe)
        return calls

    def test_second_run_describes_nothing(self, describes):
        kb = reference_kb()
        trace = loaded_trace(kb)
        describes.clear()
        run_simulation(topo(cells=2), kb, trace, Mode.SEMANTIC)
        assert len(describes) == len(trace)
        describes.clear()
        run_simulation(topo(CacheLocation.PGW, cells=2), kb, trace, Mode.TRADITIONAL)
        assert describes == []

    @pytest.mark.parametrize("runs", [RUNS, RUNS[::-1]], ids=["enodeb-first", "pgw-first"])
    def test_each_run_matches_a_list(self, runs):
        kb = reference_kb()
        trace = loaded_trace(kb)

        def outcome(location, mode, trace):
            report, records = run_simulation(topo(location, cells=2), kb, trace, mode, 3)
            return repr(report), [r.completed_at.hex() for r in records]

        for location, mode in runs:
            assert outcome(location, mode, trace) == outcome(location, mode, list(trace))
        assert len(trace._prepared._arrivals) == 3

    def test_another_kb_or_cell_count_prepares_again(self, describes):
        kb = reference_kb()
        trace = loaded_trace(kb)
        _, expected = run_simulation(topo(cells=2), kb, list(trace), Mode.SEMANTIC)
        for run_kb, cells in [(kb, 2), (reference_kb(), 2), (kb, 3), (kb, 2)]:
            describes.clear()
            _, records = run_simulation(topo(cells=cells), run_kb, trace, Mode.SEMANTIC)
            assert len(describes) == len(trace)
            assert records == expected
            assert all(r.descriptor is run_kb.describe(r.descriptor.entity_iri) for r in records)
        describes.clear()
        run_simulation(topo(cells=2), kb, trace, Mode.TRADITIONAL)
        assert describes == []

    def test_a_kb_lacking_an_iri_still_raises(self):
        trace = load_trace(io.StringIO("0,0,0,wiki/Alice\n1,0,0,wiki/Bob\n"))
        run_simulation(topo(), pair_kb(), trace, Mode.SEMANTIC)
        alice = '"wiki/Alice" type Person\n"wiki/Alice" size 9\n'
        with pytest.raises(UnknownEntity, match="wiki/Bob"):
            run_simulation(topo(), load_knowledge_base(io.StringIO(alice)), trace, Mode.SEMANTIC)

    def test_a_failed_preparation_stores_nothing(self, describes):
        kb = pair_kb()
        trace = load_trace(io.StringIO("0,0,0,wiki/Alice\n1,1,1,wiki/Bob\n"))
        too_few = "^trace entry 1: cell 1 outside topology$"
        with pytest.raises(SimulationError, match=too_few):
            run_simulation(topo(cells=1), kb, trace, Mode.SEMANTIC)
        assert getattr(trace, "_prepared", None) is None
        expected = run_simulation(topo(cells=2), kb, list(trace), Mode.SEMANTIC)
        assert run_simulation(topo(cells=2), kb, trace, Mode.SEMANTIC) == expected
        with pytest.raises(SimulationError, match=too_few):
            run_simulation(topo(cells=1), kb, trace, Mode.SEMANTIC)
        describes.clear()
        assert run_simulation(topo(cells=2), kb, trace, Mode.SEMANTIC) == expected
        assert describes == []


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

    def test_mean_latency_sums_left_to_right(self):
        # Ten 0.1 ms latencies: a left-to-right sum gives 0.9999999999999999,
        # a compensated one (``sum`` from Python 3.12 on) 1.0.
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice")] * 10
        sim = _Simulation(topo(), pair_kb(), trace, Mode.TRADITIONAL)
        sim.completed = [0.1] * 10
        assert sim.report(0).mean_latency_ms == 0.09999999999999999


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

    def test_unread_records_die_with_the_report(self):
        # Records never read hold the run's columns, never the simulation.
        trace = [TraceEntry(0.0, 0, 0, "wiki/Alice"), TraceEntry(1.0, 1, 0, "wiki/Bob")]
        gc.disable()
        try:
            report, records = run_simulation(topo(), pair_kb(), trace, Mode.SEMANTIC)
            ref = weakref.ref(records)
            del report, records
            assert ref() is None
        finally:
            gc.enable()

    def test_a_kept_trace_keeps_no_run_alive(self, monkeypatch):
        # A column trace keeps its preparation after the run, but neither the
        # run's records, read or not, nor the simulation that made them.
        sims = []

        class Watched(_Simulation):
            def __init__(self, *args):
                super().__init__(*args)
                sims.append(weakref.ref(self))

        monkeypatch.setattr(sim_module, "_Simulation", Watched)
        trace = load_trace(io.StringIO("0,0,0,wiki/Alice\n1,1,0,wiki/Bob\n"))
        gc.disable()
        try:
            for read in (False, True):
                report, records = run_simulation(topo(), pair_kb(), trace, Mode.SEMANTIC)
                refs = [weakref.ref(records), sims[-1]]
                if read:
                    refs.append(weakref.ref(records[0]))
                del report, records
                assert [ref() for ref in refs] == [None] * len(refs)
                assert trace._prepared is not None
        finally:
            gc.enable()


class TestRecordsOnFirstRead:
    """A run's records are built from its result columns the first time
    they are read, once: a caller that never reads them builds none."""

    TRACE = [
        TraceEntry(0.0, 0, 0, "wiki/Alice"),
        TraceEntry(1000.0, 1, 0, "wiki/Bob"),
        TraceEntry(2000.0, 0, 0, "wiki/Bob"),
    ]

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        real = RequestRecord

        def counting(*args):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(sim_module, "RequestRecord", counting)
        return built

    def test_built_once_on_first_read(self, built):
        _, records = run_simulation(topo(), pair_kb(), self.TRACE, Mode.SEMANTIC)
        assert built == []
        first = records[0]
        assert built == [0, 1, 2]
        assert records[0] is first and len(records) == 3
        assert [r.request_id for r in records] == [0, 1, 2]
        assert [r.served_from for r in records] == [
            ServedFrom.ORIGIN, ServedFrom.CACHE, ServedFrom.CACHE
        ]
        assert built == [0, 1, 2]

    def test_slice_is_a_list(self):
        _, records = run_simulation(topo(), pair_kb(), self.TRACE, Mode.SEMANTIC)
        tail = records[1:]
        assert type(tail) is list
        assert len(tail) == 2 and tail[0] is records[1] and tail[1] is records[2]

    def test_runs_compare_equal(self):
        kb = pair_kb()
        _, records = run_simulation(topo(), kb, self.TRACE, Mode.SEMANTIC)
        _, again = run_simulation(topo(), kb, self.TRACE, Mode.SEMANTIC)
        _, traditional = run_simulation(topo(), kb, self.TRACE, Mode.TRADITIONAL)
        assert records == again and not records != again
        assert records == list(again) and list(records) == again
        assert records != traditional and list(records) != traditional


class TestMetadataOverhead:
    def test_empty_trace(self):
        report, _ = run_simulation(topo(), pair_kb(), [], Mode.SEMANTIC)
        assert report.metadata_overhead_bytes == 0
        assert report.per_user_metadata_bytes == 0.0
        assert report.metadata_traffic_ratio == 0.0

    def test_per_user_accumulation(self):
        # One entity whose header wire size is exactly 64 bytes:
        # record 4 + 53-char IRI = 57 payload, 2 + 2 + 57 = 61, padded to 64.
        iri = "wiki/" + "x" * 48
        assert len(iri) == 53
        text = f'"{iri}" type Person\n"{iri}" size 640000\n'
        kb = load_knowledge_base(io.StringIO(text))
        trace = [TraceEntry(float(i), 0, 0, iri) for i in range(20)]
        report, _ = run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        assert report.metadata_overhead_bytes == 20 * 64
        assert report.per_user_metadata_bytes == 1280.0
        assert report.metadata_traffic_ratio == pytest.approx(1280 / 12_800_000)

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
        # Refused before the run: the event loop never starts.
        ran = AssertionError("the event loop ran")
        with mock.patch.object(_EventLoop, "run", side_effect=ran), pytest.raises(
            MetadataTooLarge, match="^serialized descriptor is 2031 bytes"
        ):
            run_simulation(topo(), kb, trace, Mode.SEMANTIC)
        report, _ = run_simulation(topo(), kb, trace, Mode.TRADITIONAL)
        assert report.metadata_overhead_bytes == 0
        assert report.per_user_metadata_bytes == report.metadata_traffic_ratio == 0.0
