"""Record which certify ops fail, per seed, as the fail_ratio baseline.

    python3 bench/record_baseline.py 0 1 2 3 4 5 6 7 8 9

Runs every op of each seed's certify pool once, in the order a timed run
takes them, and writes the failing pool indices with their labels to
bench/certify_baseline.json.  run.py compares the distinct ops each certify
run saw fail with this record, so the same seed reproduces the same
fail_ratio.
"""

import json
import sys

import run as bench

OUT = bench.BASELINE


def main(seeds):
    failed = {}
    pool = None
    for seed in seeds:
        wl = bench.WORKLOADS["certify"](seed, bench.ROOT)
        pool = len(wl.ops)
        run = bench.run_ops(wl, bench.DIRECT, wl.warmup, count=pool)
        failed[str(seed)] = sorted(run.failed_ops().items())
        print("seed %d: %d of %d ops failed" % (seed, len(failed[str(seed)]), pool))
    OUT.write_text(json.dumps({"pool": pool, "failed_ops": failed}, indent=1) + "\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
