"""Command line front-end.

Subcommands: ``enumerate`` (basis listings, optionally cached in the
directory named by the ``CIRCLEGC_BASIS_CACHE`` environment variable),
``delta`` (apply a coboundary to a JSON graph), ``cohomology`` (exact
dimension reports), ``verify`` (named verification suites with a
deterministic JSON report and a nonzero exit on failure), ``weight`` and
``astu-dim`` (chord-diagram weight systems), ``faces`` (codimension-one
face audits), and ``export-dot`` (Graphviz rendering).  All JSON output
is byte deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .graphs import ODD, EVEN
from .coboundary import delta
from .enumeration import basis, framed_basis
from .homology import cohomology
from .framed import delta_framed, delta_underline
from .weights import ChordDiagram, gl_weight, a_space_dim
from .faces import audit_graph
from .serialize import (dumps, graph_to_dict, graph_from_dict,
                        graph_to_dot, vector_to_dict)
from .verification import SUITES, run_suite, basis_ordering

CACHE_ENV = "CIRCLEGC_BASIS_CACHE"


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    import json
    with open(path) as fh:
        return json.load(fh)


def _cached_basis(parity: str, k: int, m: int, framed: bool):
    """The basis, served from the cache directory when a file there was
    written by this version for the same bidegree; anything else there,
    unreadable or stale, is a miss and is overwritten."""
    cache = os.environ.get(CACHE_ENV)
    key = {"tool": "circlegc", "version": __version__, "parity": parity,
           "order": k, "degree": m, "framed": framed}
    if cache:
        path = os.path.join(cache, "basis_%s_%d_%d%s.json" % (
            parity, k, m, "_framed" if framed else ""))
        try:
            data = _read_json(path)
        except (OSError, ValueError):
            data = None
        if isinstance(data, dict) and isinstance(data.get("graphs"), list) \
                and all(data.get(f) == v for f, v in key.items()):
            return [graph_from_dict(d) for d in data["graphs"]]
    graphs = framed_basis(k, m) if framed else basis(parity, k, m)
    if cache:
        os.makedirs(cache, exist_ok=True)
        payload = dict(key, graphs=[graph_to_dict(g) for g in graphs])
        # a reader sees the old file or the whole new one, never a part
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                fh.write(dumps(payload))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return graphs


def cmd_enumerate(args):
    graphs = _cached_basis(args.parity, args.order, args.degree,
                           args.framed)
    payload = {"tool": "circlegc", "version": __version__,
               "parity": args.parity, "order": args.order,
               "degree": args.degree, "framed": args.framed,
               "count": len(graphs),
               "graphs": [graph_to_dict(g) for g in graphs]}
    _emit(dumps(payload), args.out)
    return 0


_OPS = {"regular": delta, "framed": delta_framed,
        "underline": delta_underline}


def cmd_delta(args):
    g = graph_from_dict(_read_json(args.infile))
    op = _OPS[args.op]
    payload = {"tool": "circlegc", "version": __version__, "op": args.op,
               "vector": vector_to_dict(op(g))}
    _emit(dumps(payload), args.out)
    return 0


def cmd_cohomology(args):
    if args.framed:
        rep = cohomology(ODD, args.order, args.degree, op=delta_framed,
                         basis_fn=lambda parity, k, m: framed_basis(k, m))
    elif args.underline:
        rep = cohomology(ODD, args.order, args.degree, op=delta_underline)
    else:
        rep = cohomology(args.parity, args.order, args.degree)
    payload = {"tool": "circlegc", "version": __version__,
               "parity": rep.parity, "order": rep.k, "degree": rep.m,
               "framed": args.framed, "underline": args.underline,
               "dim_kernel": rep.dim_kernel,
               "rank_previous": rep.rank_previous, "dim_H": rep.dim_H,
               "basis_ordering": basis_ordering(rep.parity, rep.k, rep.m)
               if not args.framed else
               [graph_to_dict(g) for g in framed_basis(rep.k, rep.m)],
               "cocycles": [vector_to_dict(v) for v in rep.cocycle_basis]}
    _emit(dumps(payload), args.report)
    return 0


def cmd_verify(args):
    report = run_suite(args.suite)
    _emit(dumps(report), args.report)
    return 0 if report["passed"] else 1


def cmd_weight(args):
    data = _read_json(args.diagram)
    d = ChordDiagram(tuple(tuple(sorted(p)) for p in data["chords"]),
                     data.get("mark"))
    d.validate()
    w = gl_weight(d)
    payload = {"tool": "circlegc", "version": __version__,
               "weight": {str(p): c for p, c in sorted(w.coeffs.items())},
               "text": repr(w)}
    _emit(dumps(payload), args.out)
    return 0


def cmd_astu_dim(args):
    payload = {"tool": "circlegc", "version": __version__, "k": args.k,
               "dim": a_space_dim(args.k)}
    _emit(dumps(payload), args.out)
    return 0


def cmd_faces(args):
    g = graph_from_dict(_read_json(args.audit))
    rep = audit_graph(g, args.n, extended=args.extended)
    payload = {"tool": "circlegc", "version": __version__, "n": rep.n,
               "extended": rep.extended, "total_subgraphs": rep.total,
               "verdicts": dict(sorted(rep.verdict_counts.items())),
               "principal_sites": [{"kind": s.kind, "index": s.index}
                                   for s in sorted(
                                       rep.principal_sites,
                                       key=lambda s: (s.kind, s.index))],
               "expected_sites": [{"kind": s.kind, "index": s.index}
                                  for s in sorted(
                                      rep.expected_sites,
                                      key=lambda s: (s.kind, s.index))],
               "principal_match": rep.principal_match,
               "unresolved": [{"face_type": sg.face_type,
                               "externals": list(sg.externals),
                               "internals": list(sg.internals)}
                              for sg in rep.unresolved],
               "ok": rep.ok}
    _emit(dumps(payload), args.report)
    return 0 if rep.ok or (args.n == 3 and rep.principal_match) else 1


def cmd_export_dot(args):
    data = _read_json(args.infile)
    graphs = data["graphs"] if "graphs" in data else [data]
    texts = []
    for i, gd in enumerate(graphs):
        g = graph_from_dict(gd)
        text = graph_to_dot(g, name="g%d" % i)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            with open(os.path.join(args.out_dir,
                                   "graph_%03d.dot" % i), "w") as fh:
                fh.write(text)
        else:
            texts.append(text)
    if not args.out_dir:
        sys.stdout.write("".join(texts))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="circlegc",
        description="graph complexes on an oriented circle")
    p.add_argument("--version", action="version",
                   version="circlegc %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list a graph basis")
    sp.add_argument("--parity", choices=(ODD, EVEN), default=ODD)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--framed", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("delta", help="apply a coboundary to a graph")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--op", choices=sorted(_OPS), default="regular")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_delta)

    sp = sub.add_parser("cohomology", help="exact dimension report")
    sp.add_argument("--parity", choices=(ODD, EVEN), default=ODD)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--framed", action="store_true")
    sp.add_argument("--underline", action="store_true")
    sp.add_argument("--report")
    sp.set_defaults(fn=cmd_cohomology)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=sorted(SUITES), required=True)
    sp.add_argument("--report")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("weight", help="gl(N) weight of a chord diagram")
    sp.add_argument("--gl", action="store_true", required=True)
    sp.add_argument("--diagram", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_weight)

    sp = sub.add_parser("astu-dim",
                        help="dimension of chord diagrams modulo STU")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_astu_dim)

    sp = sub.add_parser("faces", help="codimension-one face audit")
    sp.add_argument("--audit", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--extended", action="store_true")
    sp.add_argument("--report")
    sp.set_defaults(fn=cmd_faces)

    sp = sub.add_parser("export-dot", help="Graphviz export")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out-dir")
    sp.set_defaults(fn=cmd_export_dot)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
