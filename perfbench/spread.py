#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload solve_large --seeds 101-110

Runs the benchmark once per seed and prints, for each end-to-end metric,
the median over the runs and the spread: the interquartile distance as a
share of the median.  A metric is steady when its spread is under a third
of its bound in BENCHMARK.json.  With --out, the values are also written
as JSON.  Exits non-zero if a run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        run = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                              "--trace", "0"],
                             cwd=REPO, capture_output=True, text=True, check=False)
        if run.returncode != 0:
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
            return 1
        for name, metric in json.loads(run.stdout.splitlines()[-1])["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: done", flush=True)

    for name, samples in values.items():
        spread = stats.relative_spread(samples)
        verdict = "steady" if spread < bounds[name] / 3 else "WIDE"
        print(f"{args.workload} {name:16s} median {stats.median(samples):12.6g}  "
              f"spread {spread:.4f}  bound {bounds[name]}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                              "values": values}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
