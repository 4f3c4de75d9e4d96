"""Deterministic discrete-event simulation of the mobile caching path.

Topology: per cell a UE group and an eNodeB with its own access and
backhaul links, then a shared S-GW, P-GW and origin ("Internet").  The
content cache sits at the eNodeB (one per cell), the S-GW or the P-GW.
Each cell's path is split at the cache node once per run, into the links
between the UE and the cache and those between the cache and the origin.

Each link direction is a FIFO channel: a transfer occupies the channel for
``bytes / bandwidth`` ms and arrives ``propagation_delay`` ms after its
transmission ends, so concurrent transfers queue behind each other but the
two directions never interfere.

A request carries its metadata to the cache node; there the cache is
consulted and, in Semantic mode, the inference policy fires (on hits and
misses alike) so predicted contents are prefetched from the origin
concurrently with the demand path.  Metadata bytes are accounted
separately in the metrics and do not occupy link capacity, which keeps
Semantic mode under a null inference policy schedule-identical to
Traditional mode.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from semcache.cache import Cache, ContentOrigin
from semcache.codec import MetadataDescriptor, wire_size
from semcache.kb import InferencePolicy, KnowledgeBase, UnknownEntity, infer_next
from semcache.metrics import MetricsReport
from semcache.workload import TraceEntry


class SimulationError(Exception):
    pass


class UnsortedTrace(SimulationError):
    def __init__(self, index: int):
        super().__init__(f"trace entry {index} is earlier than its predecessor")
        self.index = index


class Mode(enum.Enum):
    SEMANTIC = "semantic"
    TRADITIONAL = "traditional"


class CacheLocation(enum.Enum):
    ENODEB = "enodeb"
    SGW = "sgw"
    PGW = "pgw"


class ServedFrom(enum.Enum):
    CACHE = "cache"
    ORIGIN = "origin"


@dataclass(frozen=True)
class LinkSpec:
    propagation_delay_ms: float
    bandwidth_bytes_per_ms: float

    def __post_init__(self) -> None:
        if not self.propagation_delay_ms >= 0:
            raise ValueError("propagation delay must be >= 0")
        if not self.bandwidth_bytes_per_ms > 0:
            raise ValueError("bandwidth must be > 0")


def transfer_time(link: LinkSpec, payload_bytes: float) -> float:
    """Uncontended traversal time of one link for one message."""
    if payload_bytes < 0:
        raise ValueError("payload must be >= 0")
    return link.propagation_delay_ms + payload_bytes / link.bandwidth_bytes_per_ms


DEFAULT_BANDWIDTH = 1250.0  # bytes/ms (10 Mbit/s)


@dataclass(frozen=True)
class Topology:
    cells: int = 1
    ue_enb: LinkSpec = LinkSpec(10.0, DEFAULT_BANDWIDTH)
    enb_sgw: LinkSpec = LinkSpec(5.0, DEFAULT_BANDWIDTH)
    sgw_pgw: LinkSpec = LinkSpec(5.0, DEFAULT_BANDWIDTH)
    pgw_inet: LinkSpec = LinkSpec(20.0, DEFAULT_BANDWIDTH)
    cache_location: CacheLocation = CacheLocation.ENODEB
    cache_capacity: int = 20_000_000

    def __post_init__(self) -> None:
        if self.cells <= 0:
            raise ValueError("cells must be positive")
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")

    def scenario_dict(self) -> dict:
        return {
            "cells": self.cells,
            "cache_location": self.cache_location.value,
            "cache_capacity": self.cache_capacity,
            "ue_enb_delay_ms": self.ue_enb.propagation_delay_ms,
            "enb_sgw_delay_ms": self.enb_sgw.propagation_delay_ms,
            "sgw_pgw_delay_ms": self.sgw_pgw.propagation_delay_ms,
            "pgw_inet_delay_ms": self.pgw_inet.propagation_delay_ms,
            "ue_enb_bw": self.ue_enb.bandwidth_bytes_per_ms,
            "enb_sgw_bw": self.enb_sgw.bandwidth_bytes_per_ms,
            "sgw_pgw_bw": self.sgw_pgw.bandwidth_bytes_per_ms,
            "pgw_inet_bw": self.pgw_inet.bandwidth_bytes_per_ms,
        }


@dataclass
class RequestRecord:
    request_id: int
    user_id: int
    cell_id: int
    descriptor: MetadataDescriptor
    issued_at: float
    completed_at: float = 0.0
    served_from: Optional[ServedFrom] = None

    @property
    def latency_ms(self) -> float:
        return self.completed_at - self.issued_at


class _Channel:
    """One direction of a link; FIFO store-and-forward."""

    __slots__ = ("delay", "bandwidth", "busy_until")

    def __init__(self, spec: LinkSpec):
        self.delay = spec.propagation_delay_ms
        self.bandwidth = spec.bandwidth_bytes_per_ms
        self.busy_until = 0.0

    def transfer(self, at: float, nbytes: float) -> float:
        """Claim the channel at ``at``; return the arrival time."""
        start = max(at, self.busy_until)
        self.busy_until = start + nbytes / self.bandwidth
        return self.busy_until + self.delay


# Links between the UE and the cache node, by cache location.
_CACHE_DEPTH = {CacheLocation.ENODEB: 1, CacheLocation.SGW: 2, CacheLocation.PGW: 3}


@dataclass(frozen=True)
class _CellRoutes:
    """One cell's cache index and its channels, in travel order."""

    cache: int
    access_up: tuple[_Channel, ...]
    access_down: tuple[_Channel, ...]
    origin_up: tuple[_Channel, ...]
    origin_down: tuple[_Channel, ...]


class _EventLoop:
    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0

    def at(self, time: float, fn: Callable[[float], None]) -> None:
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def run(self) -> None:
        while self._heap:
            time, _, fn = heapq.heappop(self._heap)
            fn(time)


class _Simulation:
    def __init__(
        self,
        topology: Topology,
        kb: KnowledgeBase,
        trace: Sequence[TraceEntry],
        mode: Mode,
        *,
        inference: Optional[InferencePolicy],
        max_prefetch: Optional[int],
        eviction: str,
    ):
        self.topology = topology
        self.kb = kb
        self.trace = trace
        self.mode = mode
        self.inference = inference if inference is not None else infer_next
        self.max_prefetch = max_prefetch
        self.loop = _EventLoop()

        t = topology
        per_cell = t.cache_location is CacheLocation.ENODEB
        depth = _CACHE_DEPTH[t.cache_location]
        shared_up = (_Channel(t.sgw_pgw), _Channel(t.pgw_inet))
        shared_down = (_Channel(t.sgw_pgw), _Channel(t.pgw_inet))
        self.routes: list[_CellRoutes] = []
        for cell in range(t.cells):
            # Both chains run from the UE outwards.
            up = (_Channel(t.ue_enb), _Channel(t.enb_sgw), *shared_up)
            down = (_Channel(t.ue_enb), _Channel(t.enb_sgw), *shared_down)
            self.routes.append(
                _CellRoutes(
                    cache=cell if per_cell else 0,
                    access_up=up[:depth],
                    access_down=down[:depth][::-1],
                    origin_up=up[depth:],
                    origin_down=down[depth:][::-1],
                )
            )

        n_caches = t.cells if per_cell else 1
        self.caches = [Cache(t.cache_capacity, eviction) for _ in range(n_caches)]
        # Per cache, keyed by entity IRI like the caches: a key is pending
        # while its prefetch is in flight, and maps to the demand requests
        # waiting for it.
        self.pending: list[dict[str, list[RequestRecord]]] = [{} for _ in range(n_caches)]

        self.records: list[RequestRecord] = []
        self.origin_bytes = 0  # content bytes fetched from the origin

    # -- path helpers -------------------------------------------------------

    def _send(
        self,
        channels: Sequence[_Channel],
        start: float,
        nbytes: float,
        on_arrival: Callable[[float], None],
    ) -> None:
        """Forward a message hop by hop; each hop claims its channel in
        event-time order so FIFO contention is deterministic."""

        def hop(index: int, t: float) -> None:
            if index == len(channels):
                on_arrival(t)
                return
            arrive = channels[index].transfer(t, nbytes)
            self.loop.at(arrive, lambda tt: hop(index + 1, tt))

        hop(0, start)

    # -- request lifecycle --------------------------------------------------

    def _request_bytes(self, iri: str) -> int:
        return len(iri.encode("utf-8"))

    def schedule_trace(self) -> None:
        prev_time = None
        for idx, entry in enumerate(self.trace):
            if prev_time is not None and entry.time_ms < prev_time:
                raise UnsortedTrace(idx)
            prev_time = entry.time_ms
            if entry.entity_iri not in self.kb:
                raise UnknownEntity(entry.entity_iri)
            if not 0 <= entry.cell_id < self.topology.cells:
                raise SimulationError(
                    f"trace entry {idx}: cell {entry.cell_id} outside topology"
                )
            descriptor = self.kb.describe(entry.entity_iri)
            record = RequestRecord(
                idx, entry.user_id, entry.cell_id, descriptor, entry.time_ms
            )
            self.records.append(record)
            self.loop.at(entry.time_ms, lambda t, r=record: self._issue(r, t))

    def _issue(self, record: RequestRecord, t: float) -> None:
        route = self.routes[record.cell_id]
        nbytes = self._request_bytes(record.descriptor.entity_iri)
        self._send(route.access_up, t, nbytes, lambda tt: self._at_cache(record, tt))

    def _at_cache(self, record: RequestRecord, t: float) -> None:
        route = self.routes[record.cell_id]
        ci = route.cache
        cache = self.caches[ci]
        key = record.descriptor.entity_iri
        size = self.kb.sizes[key]

        entry = cache.lookup(key, t)
        if entry is not None:
            self._deliver(record, t, size, ServedFrom.CACHE)
        elif key in self.pending[ci]:
            # An in-flight prefetch will bring this content; wait for it
            # instead of fetching again.
            self.pending[ci][key].append(record)
        else:

            def fetched(t_back: float) -> None:
                cache.insert(key, size, ContentOrigin.DEMAND, t_back)
                self._deliver(record, t_back, size, ServedFrom.ORIGIN)

            self._fetch(route, key, t, fetched)

        if self.mode is Mode.SEMANTIC:
            self._launch_prefetches(record, route, t)

    def _fetch(
        self, route: _CellRoutes, key: str, t: float, arrived: Callable[[float], None]
    ) -> None:
        """Fetch ``key`` from the origin to the cell's cache node."""
        size = self.kb.sizes[key]

        def at_origin(t_origin: float) -> None:
            self.origin_bytes += size
            self._send(route.origin_down, t_origin, size, arrived)

        self._send(route.origin_up, t, self._request_bytes(key), at_origin)

    def _deliver(
        self, record: RequestRecord, t: float, size: int, served_from: ServedFrom
    ) -> None:
        def delivered(t_done: float) -> None:
            record.completed_at = t_done
            record.served_from = served_from

        self._send(self.routes[record.cell_id].access_down, t, size, delivered)

    # -- prefetch path ------------------------------------------------------

    def _launch_prefetches(self, record: RequestRecord, route: _CellRoutes, t: float) -> None:
        predictions = self.inference(self.kb, record.descriptor)
        if self.max_prefetch is not None:
            predictions = predictions[: self.max_prefetch]
        ci = route.cache
        cache = self.caches[ci]
        pending = self.pending[ci]
        for predicted in predictions:
            key = predicted.entity_iri
            if key in cache or key in pending:
                continue
            pending[key] = []
            self._fetch(route, key, t, lambda tb, key=key: self._prefetched(ci, key, tb))

    def _prefetched(self, ci: int, key: str, t: float) -> None:
        cache = self.caches[ci]
        size = self.kb.sizes[key]
        waiters = self.pending[ci].pop(key)
        # An object larger than the cache is rejected; its waiters are
        # still served, but there is no cached prefetch to credit.
        cached = cache.insert(key, size, ContentOrigin.PREFETCH, t)
        for waiter in waiters:
            if cached:
                cache.credit_prefetch_hit(key, t)
            self._deliver(waiter, t, size, ServedFrom.ORIGIN)

    # -- reporting ----------------------------------------------------------

    def report(self, seed: int) -> MetricsReport:
        stats = [c.stats() for c in self.caches]
        lookups = sum(s.lookups for s in stats)
        hits = sum(s.hits for s in stats)
        prefetched = sum(s.prefetched_bytes for s in stats)
        prefetched_hit = sum(s.prefetched_bytes_hit for s in stats)
        useless = prefetched - prefetched_hit

        latencies = [r.latency_ms for r in self.records]
        mean_latency = sum(latencies) / len(latencies) if latencies else 0.0

        if self.mode is Mode.SEMANTIC:
            overhead = metadata_overhead(self.trace, self.kb)
        else:
            overhead = {"total_bytes": 0, "per_user_bytes": 0.0, "ratio_of_total_traffic": 0.0}

        scenario = self.topology.scenario_dict()
        scenario["seed"] = seed
        scenario["requests"] = len(self.trace)

        return MetricsReport(
            mode=self.mode.value,
            requests_total=len(self.records),
            hits=hits,
            lookups=lookups,
            hit_ratio=hits / lookups if lookups else 0.0,
            mean_latency_ms=mean_latency,
            prefetched_bytes=prefetched,
            prefetched_bytes_hit=prefetched_hit,
            useless_prefetch_ratio=useless / prefetched if prefetched else 0.0,
            origin_bytes=self.origin_bytes,
            useless_prefetch_origin_ratio=(
                useless / self.origin_bytes if self.origin_bytes else 0.0
            ),
            metadata_overhead_bytes=overhead["total_bytes"],
            per_user_metadata_bytes=overhead["per_user_bytes"],
            metadata_traffic_ratio=overhead["ratio_of_total_traffic"],
            scenario=scenario,
        )


def run_simulation(
    topology: Topology,
    kb: KnowledgeBase,
    trace: Sequence[TraceEntry],
    mode: Mode,
    seed: int = 0,
    *,
    inference: Optional[InferencePolicy] = None,
    max_prefetch: Optional[int] = None,
    eviction: str = "lru",
) -> tuple[MetricsReport, list[RequestRecord]]:
    """Run one deterministic simulation and return its metrics and records.

    The seed is echoed into the report for bookkeeping; the event schedule
    itself contains no randomness.
    """
    if max_prefetch is not None and max_prefetch < 0:
        raise ValueError(f"max_prefetch must be >= 0, got {max_prefetch}")
    sim = _Simulation(
        topology,
        kb,
        trace,
        mode,
        inference=inference,
        max_prefetch=max_prefetch,
        eviction=eviction,
    )
    sim.schedule_trace()
    sim.loop.run()
    unserved = next((r for r in sim.records if r.served_from is None), None)
    if unserved is not None:
        raise SimulationError(f"request {unserved.request_id} was never served")
    return sim.report(seed), sim.records


def metadata_overhead(trace: Sequence[TraceEntry], kb: KnowledgeBase) -> dict:
    """Bytes added by carrying metadata headers, versus delivered content.

    Per request the overhead is the full wire size of its hop-by-hop header
    (a request without the framework carries no such header at all).
    """
    total = 0
    content = 0
    users = set()
    for entry in trace:
        total += wire_size(kb.describe(entry.entity_iri))
        content += kb.sizes[entry.entity_iri]
        users.add(entry.user_id)
    return {
        "total_bytes": total,
        "per_user_bytes": total / len(users) if users else 0.0,
        "ratio_of_total_traffic": total / content if content else 0.0,
    }
