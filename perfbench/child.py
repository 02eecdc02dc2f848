"""One workload pass in a fresh interpreter.

    python3 perfbench/child.py --workload W --work DIR --t0 T [--trace]

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src``.
It imports every circlegc module first; the time from ``T`` (the parent's
clock just before it started this process) to the end of those imports
is the set-up time.  A pass calls the workload, timing from the first
call into circlegc until the last output is written, and writes
``DIR/result.json``.  Inputs are made, and outputs checked, by the parent.
"""

import sys
import time

from circlegc import (cli, coboundary, cocycles, enumeration, faces,  # noqa
                      framed, graphs, homology, serialize, verification,
                      weights)

READY = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

# Every verification suite but "weights": that one is the gl(N) trace
# oracle, 27-36 s, too long to repeat within a run (see README.md).
VERIFY_SUITES = ("dsquared", "cocycles", "cohomology", "framed", "faces")
# The bidegrees cohomology-o4 computes, as (parity, degree): the two of
# the order-4 table with the largest matrices (up to 227 x 170).  The whole
# table takes 13-20 s, too long to repeat within a run.
COHOMOLOGY = [("odd", 2), ("even", 2)]
# The bidegrees enumerate-o5 lists, as (parity, order, degree).
ENUMERATE = [(p, 5, m) for p in ("odd", "even") for m in range(3, 8)]


def _cli_calls(work, ops, tracer, argvs):
    """One ``circlegc`` command per operation, in this process."""
    statuses = []
    for i, argv in enumerate(argvs):
        if tracer:
            tracer.run_id = i
        t = time.perf_counter()
        statuses.append(cli.main(argv))
        ops.append(time.perf_counter() - t)
    return {"status": max(statuses)}


def run_verify(work, ops, tracer):
    """``circlegc verify --suite S --report F`` for each of VERIFY_SUITES."""
    return _cli_calls(work, ops, tracer, [
        ["verify", "--suite", name, "--report",
         os.path.join(work, "verify_%s.json" % name)]
        for name in VERIFY_SUITES])


def run_cohomology(work, ops, tracer):
    """``circlegc cohomology --order 4`` for each of COHOMOLOGY."""
    return _cli_calls(work, ops, tracer, [
        ["cohomology", "--parity", p, "--order", "4", "--degree", str(m),
         "--report", os.path.join(work, "cohomology_%s_%d.json" % (p, m))]
        for p, m in COHOMOLOGY])


def run_enumerate(work, ops, tracer):
    """``circlegc enumerate`` for order 5, degrees 3..7, both parities."""
    return _cli_calls(work, ops, tracer, [
        ["enumerate", "--parity", p, "--order", str(k), "--degree", str(m),
         "--out", os.path.join(work, "enumerate_%s_%d_%d.json" % (p, k, m))]
        for p, k, m in ENUMERATE])


def run_delta(work, ops, tracer, graphs_in):
    """Batch ``circlegc delta``: parse, delta (and delta_underline for odd
    graphs), write one JSON line per graph."""
    with open(os.path.join(work, "vectors.jsonl"), "w") as fh:
        for i, data in enumerate(graphs_in):
            if tracer:
                tracer.run_id = i
            t = time.perf_counter()
            g = serialize.graph_from_dict(data)
            payload = {"index": i,
                       "delta": serialize.vector_to_dict(coboundary.delta(g))}
            if g.parity == graphs.ODD:
                payload["delta_underline"] = serialize.vector_to_dict(
                    framed.delta_underline(g))
            fh.write(serialize.dumps(payload))
            ops.append(time.perf_counter() - t)
    return {"status": 0}


def peak_rss_mb():
    """VmHWM of this process.  getrusage's ru_maxrss would also count the
    parent's memory, which Linux carries across fork and exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


WORKLOADS = {"verify-fast": run_verify, "cohomology-o4": run_cohomology,
             "enumerate-o5": run_enumerate, "delta-batch": run_delta}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    result = {"setup_s": READY - args.t0, "module": graphs.__file__}
    extra = ()
    if args.workload == "delta-batch":
        with open(os.path.join(args.work, "graphs.json")) as fh:
            extra = (json.load(fh),)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    ops = []
    t = time.perf_counter()
    out = WORKLOADS[args.workload](args.work, ops, tracer, *extra)
    result["wall_s"] = time.perf_counter() - t
    result["peak_rss_mb"] = peak_rss_mb()
    result["ops_s"] = ops
    result.update(out)
    if tracer:
        tracer.dump(os.path.join(args.work, "spans.npz"))
        result["layers"], result["checks"] = tracer.metrics()
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
