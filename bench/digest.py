#!/usr/bin/env python3
"""Regenerate ``digest.json``, the simulated statistics of every workload.

    python3 bench/digest.py

For each workload and each seed in ``SEEDS`` it runs the checked
(untimed) round of ``run.py`` and records every ``MetricsReport`` field
and a SHA-256 of the records of each simulation.  A benchmark run
reports whether its own round matches the entry for its seed, without
failing on it: a speed-only change keeps every entry; a change to the
model regenerates the file and says so.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = (*range(11), 42)


def main() -> int:
    digest: dict[str, dict] = {}
    for name, make in run.WORKLOADS.items():
        for seed in SEEDS:
            wl = make(seed)
            try:
                wl.setup()
                errors, entry, _ = run.verification_round(wl)
            finally:
                wl.cleanup()
            if errors:
                print(f"{name} seed {seed}: checks failed, digest not written", file=sys.stderr)
                for error in errors:
                    print(f"  {error}", file=sys.stderr)
                return 1
            digest.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {len(entry['reports'])} simulation(s)")
    run.DIGEST.write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
