#!/usr/bin/env python3
"""Benchmark of the semcache simulator, end to end and per layer.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload ref-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics (``setup_s``, ``requests_per_s``, ``peak_rss_mb``), with host
times scaled to a reference interpreter speed (see ``speed.py``).  ``--trace 1``
is a separate run that wraps semcache's public callables (see
``tracing.py``) and reports the per-layer metrics.  Both check the
program's outputs outside the timed region and print, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGEST = BENCH / "digest.json"

if not (SRC / "semcache" / "__init__.py").is_file():
    raise SystemExit(f"run.py: the semcache sources are missing: no {SRC / 'semcache'}")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import semcache.experiments as experiments  # noqa: E402
import semcache.kb as kb_mod  # noqa: E402
import semcache.reference as reference  # noqa: E402
import semcache.sim as sim_mod  # noqa: E402
import semcache.workload as workload  # noqa: E402
from semcache.codec import decode_metadata, encode_metadata  # noqa: E402
from semcache.experiments import Scenario, SweepSpec, SweepVariable  # noqa: E402
from semcache.sim import CacheLocation, LinkSpec, Mode, Topology  # noqa: E402
from semcache.workload import SyntheticSpec  # noqa: E402

# Core links fast enough that no simulated queue grows (access links keep
# the default 10 Mbit/s): 100 Mbit/s eNodeB-S-GW, 1 Gbit/s beyond.
FAST_CORE = dict(
    enb_sgw=LinkSpec(5.0, 12_500.0),
    sgw_pgw=LinkSpec(5.0, 125_000.0),
    pgw_inet=LinkSpec(20.0, 125_000.0),
)


class RefSweep:
    """``run_sweep`` over the three cache locations, both modes, on the
    bundled 200-entity KB and the reference browsing mix."""

    setup_repeats = 9
    users = 400
    cells = 20

    def __init__(self, seed: int):
        self.seed = seed
        self.kinds, self.sizes, self.successors = checks.parse_triples(
            SRC / "semcache" / "data" / "reference_kb.triples"
        )
        scenario = Scenario(
            Topology(cells=self.cells, **FAST_CORE),
            workload=SyntheticSpec(n_users=self.users, n_cells=self.cells),
        )
        self.spec = SweepSpec(
            SweepVariable.CACHE_LOCATION, tuple(CacheLocation), scenario, seed=seed
        )
        self.kb = None

    def release(self) -> None:
        self.kb = None

    def setup(self) -> None:
        self.kb = reference.reference_kb()

    def static_checks(self) -> list[str]:
        return checks.check_kb(self.kb, self.kinds, self.sizes) + checks.check_inference(
            self.kb, self.kinds, self.successors
        )

    def run(self) -> list:
        return [p.report for p in experiments.run_sweep(self.spec, self.kb)]

    def verify(self, on_sim) -> tuple[list, list[str]]:
        """One sweep with every simulation's output handed to ``on_sim``."""
        real = experiments.run_simulation
        traces = []

        def capture(topology, kb, trace, mode, *args, **kwargs):
            report, records = real(topology, kb, trace, mode, *args, **kwargs)
            on_sim(topology, trace, mode, report, records)
            traces.append(trace)
            return report, records

        experiments.run_simulation = capture
        try:
            points = experiments.run_sweep(self.spec, self.kb)
        finally:
            experiments.run_simulation = real
        return [p.report for p in points], checks.check_sweep(points, traces)

    def cleanup(self) -> None:
        pass


class BigKB:
    """One P-GW simulation over a generated 20k-entity KB and trace CSV."""

    setup_repeats = 3
    cells = 40

    def __init__(self, name: str, mode: Mode, seed: int):
        self.seed = seed
        self.mode = mode
        self.dir = OUT / f"{name}-{seed}"
        inputs = gen.generate(seed, self.dir, n_users=200, n_cells=self.cells)
        self.kb_path, self.trace_path = inputs.kb_path, inputs.trace_path
        self.kinds, self.sizes, self.successors, self.rows = (
            inputs.kinds,
            inputs.sizes,
            inputs.successors,
            inputs.rows,
        )
        self.topology = Topology(
            cells=self.cells,
            cache_location=CacheLocation.PGW,
            cache_capacity=sum(self.sizes.values()) // 10,
            **FAST_CORE,
        )
        self.kb = self.trace = None

    def release(self) -> None:
        self.kb = self.trace = None

    def setup(self) -> None:
        self.kb = kb_mod.load_knowledge_base(self.kb_path)
        self.trace = workload.load_trace(self.trace_path)

    def static_checks(self) -> list[str]:
        errors = (
            checks.check_kb(self.kb, self.kinds, self.sizes)
            + checks.check_inference(self.kb, self.kinds, self.successors)
            + checks.check_trace_rows(self.trace, self.rows)
        )
        # Only the sizes are checked against from here on; the rest of the
        # ground truth would add to the process's peak RSS.
        self.kinds = self.successors = self.rows = None
        return errors

    def run(self) -> list:
        report, _ = sim_mod.run_simulation(self.topology, self.kb, self.trace, self.mode, self.seed)
        return [report]

    def verify(self, on_sim) -> tuple[list, list[str]]:
        report, records = sim_mod.run_simulation(
            self.topology, self.kb, self.trace, self.mode, self.seed
        )
        on_sim(self.topology, self.trace, self.mode, report, records)
        return [report], []

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "ref-sweep": RefSweep,
    "bigkb-traditional": lambda seed: BigKB("bigkb-traditional", Mode.TRADITIONAL, seed),
    "bigkb-semantic": lambda seed: BigKB("bigkb-semantic", Mode.SEMANTIC, seed),
}


def verification_round(wl) -> tuple[list[str], dict, set[str]]:
    """Run the workload once, untimed, and check every simulation.

    Returns the failures, the digest entry (report fields and a hash of the
    records of every simulation) and the IRIs the workload requested.
    """
    errors: list[str] = []
    hashes: list[str] = []
    iris: set[str] = set()

    def on_sim(topology, trace, mode, report, records):
        errors.extend(checks.check_simulation(topology, trace, mode, report, records, wl.sizes))
        hashes.append(tracing.records_sha256(records))
        iris.update(e.entity_iri for e in trace)

    reports, more = wl.verify(on_sim)
    errors.extend(more)
    return errors, {"reports": [r.as_dict() for r in reports], "records_sha256": hashes}, iris


def digest_status(name: str, seed: int, entry: dict) -> str:
    if not DIGEST.is_file():
        return "no digest file"
    known = json.loads(DIGEST.read_text(encoding="utf-8")).get(name, {}).get(str(seed))
    if known is None:
        return f"no digest entry for seed {seed}"
    return "match" if known == json.loads(json.dumps(entry)) else "MISMATCH (simulated statistics changed)"


def timed_round(wl, sample: bool = True) -> tuple[list, float, float]:
    """One round: its reports, host seconds and reference-speed seconds."""
    gc.collect()
    return speed.timed(wl.run, sample)


def peak_alloc_mb(wl) -> float:
    """``tracemalloc`` peak above the level at entry, over the workload's
    ``run_simulation`` calls, in a pass of its own."""
    real = sim_mod.run_simulation
    peak = 0

    def measured(*args, **kwargs):
        nonlocal peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = real(*args, **kwargs)
        peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        return out

    experiments.run_simulation = sim_mod.run_simulation = measured
    tracemalloc.start()
    try:
        wl.run()
    finally:
        tracemalloc.stop()
        experiments.run_simulation = sim_mod.run_simulation = real
    return peak / 1e6


def codec_roundtrip_us(kb, iris: set[str], errors: list[str]) -> float:
    """Median ``encode_metadata`` + ``decode_metadata`` time of one request's
    header, over the descriptors of every IRI the workload requested."""
    times = []
    clock = time.perf_counter
    for iri in sorted(iris):
        d = kb.describe(iri)
        start = clock()
        back = decode_metadata(encode_metadata(d))
        times.append((clock() - start) * 1e6)
        if back != d:
            errors.append(f"codec round trip changed {d!r} into {back!r}")
    return tracing.median(times)


def layer_metrics(tracer: tracing.Tracer, cost: tracing.CallCost) -> dict[str, float]:
    """Per-layer figures of one traced round, pooled over its simulations;
    span times are net of the tracer's ``cost`` per wrapped call."""
    reports = [s[0] for s in tracer.sims]
    latencies = [x for s in tracer.sims for x in s[2]]
    stats = [c.stats() for c in tracer.caches]
    requests = sum(r.requests_total for r in reports)
    lookups = sum(r.lookups for r in reports)
    hits = sum(r.hits for r in reports)
    prefetched = sum(r.prefetched_bytes for r in reports)
    inserts_us = tracer.durations_us("cache.insert")
    spans = tracer.summary(cost)
    sim_self = spans.self_s("run_simulation")
    return {
        "codec.descriptors_built": spans.count("descriptor"),
        "codec.key_s": spans.total_s("to_bytes"),
        "codec.wire_size_s": spans.total_s("wire_size"),
        "kb.describe_calls": spans.count("describe"),
        "kb.describe_s": spans.total_s("describe"),
        "kb.infer_calls": spans.count("infer_next"),
        "kb.infer_s": spans.total_s("infer_next"),
        "workload.generate_calls": spans.count("generate_trace"),
        "workload.generate_s": spans.total_s("generate_trace"),
        "cache.lookup_s": spans.total_s("cache.lookup"),
        "cache.insert_s": spans.total_s("cache.insert"),
        "cache.insert_us_p50": tracing.percentile(inserts_us, 50),
        "cache.insert_us_p99": tracing.percentile(inserts_us, 99),
        "cache.lookups": lookups,
        "cache.hits": hits,
        "cache.insertions": sum(s.demand_insertions + s.prefetch_insertions for s in stats),
        "cache.evictions": sum(s.evictions for s in stats),
        "cache.prefetch_useful_ratio": (
            sum(r.prefetched_bytes_hit for r in reports) / prefetched if prefetched else 0.0
        ),
        "sim.run_s": spans.total_s("run_simulation"),
        "sim.self_s": sim_self,
        "sim.self_us_per_request": sim_self / requests * 1e6,
        "sim.hit_ratio": hits / lookups,
        "sim.latency_p50_ms": tracing.percentile(latencies, 50),
        "sim.latency_p99_ms": tracing.percentile(latencies, 99),
        "sim.origin_mb": sum(r.origin_bytes for r in reports) / 1e6,
        "sim.metadata_kb": sum(r.metadata_overhead_bytes for r in reports) / 1e3,
        "experiments.sweep_s": spans.total_s("run_sweep"),
        "experiments.self_s": spans.self_s("run_sweep"),
        "trace.call_cost_us": cost.total_s * 1e6,
    }


def listed_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` lists them in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def measure(wl, name: str, seed: int, seconds: float, trace: bool) -> dict:
    errors: list[str] = []
    tracer = tracing.Tracer()

    # Set-up, several times: the KB load plus, where there is one, the
    # trace-CSV load.  The previous copy is dropped first.
    setup_s, setup_raw_s, load_s, load_trace_s = [], [], [], []
    for _ in range(wl.setup_repeats):
        wl.release()
        gc.collect()
        tracer.reset()
        if trace:
            cost = tracing.call_cost()
            with tracer.installed():
                wl.setup()
            spans = tracer.summary(cost)
            load_s.append(spans.total_s("load_knowledge_base"))
            load_trace_s.append(spans.total_s("load_trace"))
        else:
            _, raw, ref = speed.timed(wl.setup)
            setup_raw_s.append(raw)
            setup_s.append(ref)

    errors += wl.static_checks()
    more, entry, iris = verification_round(wl)
    errors += more
    expected = entry["reports"]

    def same(reports) -> bool:
        return [r.as_dict() for r in reports] == expected

    attempted = 0
    rounds: list[float] = []  # host seconds of the timed or traced rounds
    layers: list[dict] = []
    if not trace:
        scaled: list[float] = []  # reference-speed seconds
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            reports, raw, ref = timed_round(wl)
            rounds.append(raw)
            scaled.append(ref)
            attempted += sum(r.requests_total for r in reports)
            if not same(reports):
                errors.append(f"timed round {len(rounds)} reports differ from the checked round")
        probes = [speed.REFERENCE_S * raw / ref for raw, ref in zip(rounds, scaled)]
        print(
            f"host time: set-up median {tracing.median(setup_raw_s):.4f} s, "
            f"{attempted / sum(rounds):.1f} req/s, "
            f"speed probe median {tracing.median(probes) * 1e3:.1f} ms"
        )
        metrics = {
            "setup_s": tracing.median(setup_s),
            "requests_per_s": attempted / sum(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    else:
        # Untraced and traced rounds alternate, so that the overhead compares
        # neighbours in time.
        overheads = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            reports, _, untraced_s = timed_round(wl, sample=False)
            attempted += sum(r.requests_total for r in reports)
            # Measured next to the round, as the machine's speed drifts.
            cost = tracing.call_cost()
            tracer.reset()
            with tracer.installed():
                reports, raw, ref = timed_round(wl, sample=False)
            tracer.resolve()
            rounds.append(raw)
            overheads.append(ref / untraced_s - 1)
            attempted += sum(r.requests_total for r in reports)
            if not same(reports) or [s[1] for s in tracer.sims] != entry["records_sha256"]:
                errors.append(f"traced round {len(rounds)} output differs from the checked round")
            layers.append(layer_metrics(tracer, cost))
            if len(rounds) == 1:
                OUT.mkdir(parents=True, exist_ok=True)
                tracer.write(OUT / f"spans-{name}-{seed}.tsv.gz")
        tracer.reset()
        # median_low keeps counts whole.
        metrics = {k: statistics.median_low([m[k] for m in layers]) for k in layers[0]}
        metrics["kb.load_s"] = tracing.median(load_s)
        metrics["workload.load_trace_s"] = tracing.median(load_trace_s)
        metrics["sim.peak_alloc_mb"] = peak_alloc_mb(wl)
        metrics["codec.roundtrip_us"] = codec_roundtrip_us(wl.kb, iris, errors)
        metrics["trace.overhead_pct"] = tracing.median(overheads) * 100

    status = digest_status(name, seed, entry)
    print(
        f"{name} seed {seed}: {len(rounds)} {'traced ' if trace else ''}rounds, "
        f"{sum(rounds):.2f} s; {attempted} requests attempted, 0 failed; digest {status}"
    )
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(f"checks: {'FAILED' if errors else 'passed'}")
    units = listed_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    try:
        result = measure(wl, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        wl.cleanup()
    for k, m in result["metrics"].items():
        print(f"  {k:<28} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
