"""Pinned reference workload used for regression-locked metrics.

The real browsing trace behind the published evaluation is not available,
so the repository ships a deterministic stand-in: a bundled 200-entity
knowledge base and a seeded 20-user workload (seed 42, p_follow 0.6) whose
metrics are locked by the acceptance tests.
"""

from __future__ import annotations

from importlib import resources

from semcache.kb import KnowledgeBase, load_knowledge_base
from semcache.sim import Topology
from semcache.workload import SyntheticSpec

REFERENCE_SEED = 42
REFERENCE_CELLS = 4


def reference_kb() -> KnowledgeBase:
    ref = resources.files("semcache").joinpath("data/reference_kb.triples")
    with ref.open("r", encoding="utf-8") as fh:
        return load_knowledge_base(fh)


def reference_workload(n_users: int = 20) -> SyntheticSpec:
    return SyntheticSpec(
        n_users=n_users,
        requests_per_user=(20, 30),
        p_follow=0.6,
        gap_ms=(2000.0, 8000.0),
        seed=REFERENCE_SEED,
        n_cells=REFERENCE_CELLS,
    )


def reference_topology() -> Topology:
    return Topology(cells=REFERENCE_CELLS)
