"""A hop-by-hop reference for ``semcache.sim``.

``HopByHop`` is the simulation with every fetch and delivery sent one link
per heap event: a message claims a link when the event of its arrival at
the link's sending end pops.  ``semcache.sim`` claims a run of links at
once wherever each link is fed only by the link before it, and keeps heap
events only where the S-GW uplink merges the cells' fetches and where a
fetch lands; ``tests/test_sim.py`` checks that whole runs of the two agree
bit for bit.  The requests' arrivals at the cache node are still worked
out before the run, once per prepared trace and run of access links, by
``_PreparedTrace.arrivals``; ``TestAccessArrivalsMatchHopByHop`` checks
them against ``HopByHop.send`` over the paths of ``access_up``.
"""

from semcache.sim import _CACHE_DEPTH, _Channel, _claim, _Simulation


def access_up(topology):
    """Each cell's links from the UE up to its cache node, as new channels:
    the UE-eNodeB and eNodeB-S-GW links are the cell's own, and one S-GW-P-GW
    channel is shared by every cell."""
    shared = (_Channel(topology.sgw_pgw),)
    depth = _CACHE_DEPTH[topology.cache_location]
    return [
        (_Channel(topology.ue_enb), _Channel(topology.enb_sgw), *shared)[:depth]
        for _ in range(topology.cells)
    ]


class HopByHop(_Simulation):
    def send(self, path, t, nbytes, then, arg):
        """Claim ``path[0]`` at ``t`` now and each later link in the heap
        event of the message's arrival at it; call ``then(t, arg)`` in the
        event of its arrival at the end of ``path``."""
        self._hop(t, (path, 0, nbytes, then, arg))

    def _hop(self, t, message):
        path, index, nbytes, then, arg = message
        if index == len(path):
            then(t, arg)
        else:
            arrive = _claim(path[index : index + 1], t, nbytes)
            self.loop.at(arrive, self._hop, (path, index + 1, nbytes, then, arg))

    def _fetch(self, route, key, t, origin, waiters):
        fetch = (route, key, origin, waiters)
        up = route.to_sgw + route.origin_up
        self.send(up, t, len(key.encode("utf-8")), self._at_origin, fetch)

    def _at_origin(self, t, fetch):
        route, key, _, _ = fetch
        self.origin_bytes += self.sizes[key]
        self.send(route.origin_down, t, self.sizes[key], self._fetched, fetch)

    def _deliver(self, record, t, size, served_from):
        record.served_from = served_from
        self.send(self.routes[record.cell_id].access_down, t, size, _stamp, record)


def _stamp(t, record):
    record.completed_at = t


def run_hop_by_hop(topology, kb, trace, mode, seed=0):
    """``run_simulation`` on ``HopByHop``."""
    sim = HopByHop(topology, kb, trace, mode)
    sim.loop.run(sim.schedule_trace(), sim._at_cache)
    return sim.report(seed), sim.records
