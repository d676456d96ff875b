"""Re-pin the report digests and work counters of the pinned seeds.

Usage (from the repository root)::

    python3 hostbench/repin.py [workload ...]

Runs the traced worker of each workload (all by default) on every seed
in ``workloads.PINNED_SEEDS`` and rewrites their entries in
``pins.json``.  The simulated clock is the reproduction's result: a
change re-pins only when it moves that result on purpose, and says why.
A run whose results differ from ``gold_result`` is never pinned.
"""

import json
import sys
import time

from run import COUNTERS, PINS, TIME_LIMIT_S, per_layer, start_worker
from workloads import PINNED_SEEDS, WORKLOADS


def main(names) -> int:
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    for name in names or WORKLOADS:
        for seed in PINNED_SEEDS:
            out = start_worker(name, seed, 0.0, True,
                               time.monotonic() + TIME_LIMIT_S)
            if out["failed"]:
                print(f"{name} seed {seed}: not pinned, {out['errors']}",
                      file=sys.stderr)
                return 1
            metrics = per_layer(out)
            pins["digests"].setdefault(name, {})[str(seed)] = out["digest"]
            pins["counters"].setdefault(name, {})[str(seed)] = {
                counter: metrics[counter] for counter in COUNTERS}
            print(f"{name} seed {seed}: {out['digest'][:16]}")
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
