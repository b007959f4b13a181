"""Check that the trace counters repeat exactly across two runs with one seed.

    python3 perfbench/check_repeat.py --workload scarf_numeric --seed 0 --seconds 30

Runs ``run.py --trace 1`` twice in fresh processes and compares every metric
with unit ``count``. Prints the counters and any that differ; exits 1 if one
does or if either run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def counters(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    first = counters(args.workload, args.seed, args.seconds)
    second = counters(args.workload, args.seed, args.seconds)
    differ = {k: [first[k], second.get(k)] for k in first if first[k] != second.get(k)}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "counters": first,
                      "differ": differ}, sort_keys=True))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
