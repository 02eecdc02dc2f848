"""circlegc benchmark: one workload, measured from outside the package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (``child.py``), one at a time, with ``PYTHONHASHSEED``
fixed, ``CIRCLEGC_BASIS_CACHE`` removed, a one-thread BLAS pool and
``PYTHONPATH`` set to the checkout's ``src``.  Passes repeat while the
next one is expected to end within S seconds (at least two).  Inputs are
made before, and outputs checked after, the timed region.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` one untraced and one traced pass run
and the result carries the per-layer metrics.  The traced pass's spans are
kept in ``perfbench/.work/<workload>-spans.npz``.  The last line of standard
output is the JSON result; the lines before it are a readable summary.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(HERE, ".work")
LIMIT_S = 170          # a run must end within 180 s
CHECK_SAMPLE = 40      # delta-batch graphs re-checked per run

# Pinned at the seed commit: the order-5 basis sizes for m = 3..7 (the
# spaces are empty above m = 7).
ENUMERATE_PIN = {"odd": [3704, 1910, 524, 63, 2],
                 "even": [3707, 1861, 517, 70, 2]}
# Pinned at the seed commit: for each order-4 bidegree cohomology-o4
# computes, (dim C, dim ker, rank of the incoming map, dim H, number of
# cocycles).
COHOMOLOGY_PIN = {("odd", 2): (215, 114, 113, 1, 114),
                  ("even", 2): (227, 124, 122, 2, 124)}
# Criteria per verification suite.
VERIFY_CRITERIA = {"dsquared": 1, "cocycles": 2, "cohomology": 3,
                   "framed": 2, "faces": 1}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def spawn(args, budget):
    # circlegc does no BLAS work; a one-thread pool keeps numpy's import
    # from timing the start of a thread per core.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC,
               OPENBLAS_NUM_THREADS="1")
    env.pop("CIRCLEGC_BASIS_CACHE", None)
    t0 = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args,
             "--t0", repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        fail("child %s timed out" % " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("child %s exited with %d" % (" ".join(args), proc.returncode))
    return proc.stdout


def one_pass(workload, work, trace, budget, inputs):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if inputs is not None:
        with open(os.path.join(work, "graphs.json"), "w") as fh:
            json.dump(inputs, fh)
    spawn(["--workload", workload, "--work", work]
          + (["--trace"] if trace else []), budget)
    with open(os.path.join(work, "result.json")) as fh:
        res = json.load(fh)
    if not res["module"].startswith(os.path.join(SRC, "circlegc") + os.sep):
        fail("circlegc imported from %s, not from this checkout"
             % res["module"])
    return res


# ----------------------------------------------------------------------
# output checks; each returns (attempted, failed) for one pass


def check_verify(work, res, ctx):
    """Each suite passed every criterion, and its report bytes equal those
    of the run's first pass."""
    from child import VERIFY_SUITES
    reports, digests = {}, {}
    for name in VERIFY_SUITES:
        with open(os.path.join(work, "verify_%s.json" % name), "rb") as fh:
            raw = fh.read()
        reports[name] = json.loads(raw)
        digests[name] = hashlib.sha256(raw).hexdigest()
    first = ctx.setdefault("digests", digests)
    failed = sum(not (res["status"] == 0 and r["passed"]
                      and len(r["criteria"]) == VERIFY_CRITERIA[name]
                      and digests[name] == first[name])
                 for name, r in reports.items())
    return len(VERIFY_SUITES), failed


def check_cohomology(work, res, ctx):
    """Each bidegree's dimensions equal those pinned at the seed commit, and
    the reports of a parity satisfy the Euler identity of the complex
    truncated to the degrees a..M computed:
    sum (-1)^m (dim C_m - dim H_m) = (-1)^a rank d_(a-1) + (-1)^M rank d_M,
    with rank d_(a-1) the incoming rank at a and rank d_M = dim C_M - dim
    ker_M."""
    from child import COHOMOLOGY
    failed = 0
    for parity in {p for p, _ in COHOMOLOGY}:
        got = {}
        for p, m in COHOMOLOGY:
            if p == parity:
                with open(os.path.join(work, "cohomology_%s_%d.json"
                                       % (p, m))) as fh:
                    rep = json.load(fh)
                got[m] = (len(rep["basis_ordering"]), rep["dim_kernel"],
                          rep["rank_previous"], rep["dim_H"],
                          len(rep["cocycles"]))
        a, top = min(got), max(got)
        euler = sum((-1) ** m * (c[0] - c[3]) for m, c in got.items()) == \
            (-1) ** a * got[a][2] + (-1) ** top * (got[top][0] - got[top][1])
        failed += sum(res["status"] != 0 or not euler
                      or c != COHOMOLOGY_PIN[parity, m]
                      for m, c in got.items())
    return len(COHOMOLOGY), failed


def check_enumerate(work, res, ctx):
    from circlegc.serialize import dumps, graph_from_dict, graph_to_dict
    failed = 0
    for parity, pin in ENUMERATE_PIN.items():
        for m, want in enumerate(pin, start=3):
            with open(os.path.join(work, "enumerate_%s_5_%d.json"
                                   % (parity, m))) as fh:
                text = fh.read()
            data = json.loads(text)
            ok = (res["status"] == 0 and data["count"] == want
                  and len(data["graphs"]) == want and dumps(data) == text
                  and all(graph_to_dict(graph_from_dict(d)) == d
                          for d in data["graphs"]))
            failed += not ok
    return sum(map(len, ENUMERATE_PIN.values())), failed


def check_delta(work, res, ctx):
    """Every graph has its output line; a seeded sample is recomputed, and
    checked for d^2 = 0 and for d(variant) = sign * d(graph)."""
    from circlegc.coboundary import delta, delta_vector
    from circlegc.framed import delta_underline, delta_underline_vector
    from circlegc.serialize import graph_from_dict, vector_to_dict
    import gen
    inputs = ctx["inputs"]
    with open(os.path.join(work, "vectors.jsonl")) as fh:
        outs = [json.loads(line) for line in fh]
    if len(outs) != len(inputs) or res["status"] != 0:
        return len(inputs), len(inputs)
    bad = set()
    for i, (g, out) in enumerate(zip(inputs, outs)):
        odd = g["parity"] == "odd"
        if out["index"] != i or out["delta"]["parity"] != g["parity"] or \
                ("delta_underline" in out) != odd:
            bad.add(i)
    rng = random.Random("check-%d" % ctx["seed"])
    for i in rng.sample(range(len(inputs)), CHECK_SAMPLE):
        g = graph_from_dict(inputs[i])
        other, sign = gen.variant(inputs[i], rng)
        g2 = graph_from_dict(other)
        ops = [("delta", delta, delta_vector)]
        if g.parity == "odd":
            ops.append(("delta_underline", delta_underline,
                        delta_underline_vector))
        for key, op, op_vector in ops:
            d = op(g)
            if vector_to_dict(d) != outs[i][key] or \
                    not op_vector(d).is_zero() or op(g2) != d.scaled(sign):
                bad.add(i)
    return len(inputs), len(bad)


CHECKS = {"verify-fast": check_verify, "cohomology-o4": check_cohomology,
          "enumerate-o5": check_enumerate, "delta-batch": check_delta}


def p99(samples):
    """Nearest-rank 99th percentile: 20 of 2000 samples lie above it; with
    fewer than 100 samples it is the largest."""
    s = sorted(samples)
    return s[-(-len(s) * 99 // 100) - 1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.time()
    if not os.path.isfile(os.path.join(SRC, "circlegc", "__init__.py")):
        fail("no circlegc sources under %s" % SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, "%s-%d" % (args.workload, os.getpid()))
    ctx = {"seed": args.seed, "inputs": None}
    if args.workload == "delta-batch":
        import gen
        ctx["inputs"] = gen.batch(args.seed)

    def left():
        return LIMIT_S - (time.time() - started)

    setups = []
    begin = time.time()
    passes, traced = [], None
    attempted = failed = 0
    plan = [False, True] if args.trace else []
    last = 0.0
    try:
        # Untraced passes repeat while the next one, if it takes as long as
        # the last, still ends within --seconds; there are always two.
        while plan or (not args.trace and (
                len(passes) < 2
                or time.time() + last - begin <= args.seconds)):
            trace = plan.pop(0) if plan else False
            t = time.time()
            res = one_pass(args.workload, work, trace, left(), ctx["inputs"])
            a, f = CHECKS[args.workload](work, res, ctx)
            attempted += a
            failed += f
            setups.append(res["setup_s"])
            if trace:
                traced = res
                os.replace(os.path.join(work, "spans.npz"),
                           os.path.join(STATE, args.workload + "-spans.npz"))
            else:
                passes.append(res)
            last = time.time() - t
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("workload %s seed %d: %d untraced passes, %d of %d operations "
          "failed (failed_frac %.4g)" % (args.workload, args.seed,
                                         len(passes), failed, attempted,
                                         failed / attempted))
    correct = failed == 0
    if traced:
        layers = traced["layers"]
        print("  %-44s %10s %10s %7s" % ("span", "calls", "self_s", "share"))
        for name in sorted((k[:-6] for k in layers if k.endswith(".calls")),
                           key=lambda n: -layers[n + ".self_s"]):
            if layers[name + ".calls"]:
                print("  %-44s %10d %10.3f %6.1f%%" % (
                    name, layers[name + ".calls"], layers[name + ".self_s"],
                    100 * layers[name + ".self_s"] / traced["wall_s"]))
        layers["trace.overhead_frac"] = \
            traced["wall_s"] / passes[0]["wall_s"] - 1
        for name, (got, want) in traced["checks"].items():
            print("self-check %s: %d vs %d %s"
                  % (name, got, want, "ok" if got == want else "FAILED"))
            correct = correct and got == want
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        # An operation's latency is its mean over the run's passes: a short
        # operation runs at one of two speeds depending on the process it
        # lands in, so a median over passes jumps between the two while the
        # mean moves with the share of each (README.md).
        op_ms = [1000 * statistics.fmean(op) for op in
                 zip(*(p["ops_s"] for p in passes))]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in passes),
            "op_p50_ms": statistics.median(op_ms),
            "op_p99_ms": p99(op_ms),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
