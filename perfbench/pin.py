#!/usr/bin/env python3
"""Recompute the records digests ``perfbench/pinned.json`` pins.

    python3 perfbench/pin.py                # every pinned seed
    python3 perfbench/pin.py --seeds 0-3,97

Each digest is one round of the workload on a fresh set-up.  Re-pin
only in a change that is meant to move records, and say why; a speed
change must leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from typing import List

import run

DEV_SEED = 1
HELDOUT_SEED = 97
DEFAULT_SEEDS = "0-31,97"


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default=DEFAULT_SEEDS)
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOADS)
    args = parser.parse_args()
    if not run.use_sources():
        return 2
    import workloads

    pins = json.loads(run.PINS.read_text()) if run.PINS.is_file() else {}
    workdir = run.scratch_dir()
    try:
        for name in args.workload or run.WORKLOADS:
            entry = pins.setdefault(name, {})
            entry["dev_seed"] = DEV_SEED
            entry["heldout_seed"] = HELDOUT_SEED
            digests = entry.setdefault("digests", {})
            for seed in parse_seeds(args.seeds):
                workload = workloads.make(name, workdir)
                workload.setup(seed)
                first = workloads.round_digest(workload.round())
                digest = workload.reference_digest(first)
                if digest != first:
                    print(f"error: {name} seed {seed}: a warm request "
                          f"does not reproduce the cold records",
                          file=sys.stderr)
                    return 1
                digests[str(seed)] = digest
                print(f"{name} seed {seed}: {digest}", file=sys.stderr)
            entry["digests"] = dict(sorted(digests.items(),
                                           key=lambda kv: int(kv[0])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
