"""Run the benchmark over several seeds and print every metric with its spread.

    python3 perfbench/summary.py [--seeds 10]
        [--workloads verify-fast,delta-batch] [--trace] [--out FILE]
        [--compare FILE]

Runs ``run.py`` once per workload and seed, one run at a time, from the
root of the checkout.  For each workload and metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound from ``BENCHMARK.json``, plus
failed/attempted over all runs.  ``--out`` saves the raw values;
``--compare`` reads such a file and prints how far each median moved
from it, as a share of the earlier median (positive is worse).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)
    raw = {}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(int(args.trace))],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit("run.py failed on %s seed %d" % (w, seed))
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and failed == 0 and all(r["correct"] for r in runs)
        print("%s: %d runs, correct %s, failed_frac %.4g (%d of %d)"
              % (w, len(runs), all(r["correct"] for r in runs),
                 failed / attempted, failed, attempted))
        raw[w] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            raw[w][m["name"]] = values
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            line = "  %-44s %12.6g %-6s q1 %-10.6g q3 %-10.6g spread %.4f" \
                % (m["name"], med, m["unit"], q1, q3, spread)
            if "bound" in m:
                line += " bound %.2f" % m["bound"]
            if m["name"] in earlier.get(w, {}):
                before = statistics.median(earlier[w][m["name"]])
                if before:
                    moved = (med - before) / before
                    line += " moved %+.4f" % (
                        moved if m["better"] == "lower" else -moved)
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(raw, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
