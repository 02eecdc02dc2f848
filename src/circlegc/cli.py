"""Command line front-end.

Subcommands: ``enumerate`` (basis listings), ``delta`` (apply a
coboundary to a JSON graph), ``cohomology`` (exact dimension reports),
``verify`` (named verification suites with a deterministic JSON report
and a nonzero exit on failure), ``weight`` and ``astu-dim``
(chord-diagram weight systems), ``faces`` (codimension-one face audits),
and ``export-dot`` (Graphviz rendering).  All JSON output is byte
deterministic for fixed inputs, written with ``serialize``'s one encoder
configuration: most reports through ``dumps``, and ``enumerate``
listings and ``cohomology`` reports through ``write_listing``, which
writes one basis graph's or cocycle's JSON text before the next is
built.  A ``cohomology`` report encodes each basis graph once, and
splices that text into the basis ordering and into every cocycle term
that names the graph.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from functools import lru_cache

from . import __version__
from .graphs import ODD, EVEN, canonical_form
from .coboundary import delta
from .enumeration import basis, framed_basis
from .homology import cohomology
from .framed import delta_framed, delta_underline
from .weights import gl_weight, a_space_dim
from .faces import audit_graph
from .serialize import (diagram_from_dict, dumps, graph_from_dict,
                        graph_text, graph_to_dot, vector_text,
                        vector_to_dict, write_listing)
from .verification import SUITES, run_suite


@contextmanager
def _output(path):
    """The file at ``path``, opened for writing and closed on exit, or
    standard output when ``path`` is empty."""
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, path):
    with _output(path) as fh:
        fh.write(text)


def _read_json(path):
    import json
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None


def _checked_graph(data):
    """The graph ``data`` describes; ``ValueError`` when ``canonical_form``
    finds it malformed rather than zero by the relations."""
    g = graph_from_dict(data)
    canonical_form(g)
    return g


def _check_complex(args):
    """The framed and underline complexes are odd and exclude each other."""
    chosen = [f for f in ("framed", "underline") if getattr(args, f, False)]
    if len(chosen) > 1:
        raise ValueError("--framed and --underline exclude each other")
    if chosen and args.parity == EVEN:
        raise ValueError("--%s needs the odd parity" % chosen[0])


def cmd_enumerate(args):
    _check_complex(args)
    graphs = (framed_basis(args.order, args.degree) if args.framed
              else basis(args.parity, args.order, args.degree))
    head = {"tool": "circlegc", "version": __version__,
            "parity": args.parity, "order": args.order,
            "degree": args.degree, "framed": args.framed,
            "count": len(graphs)}
    # opened once the basis is built, so a failed command writes no file
    with _output(args.out) as fh:
        write_listing(fh, head, {"graphs": map(graph_text, graphs)})
    return 0


_OPS = {"regular": delta, "framed": delta_framed,
        "underline": delta_underline}


def cmd_delta(args):
    g = _checked_graph(_read_json(args.infile))
    op = _OPS[args.op]
    payload = {"tool": "circlegc", "version": __version__, "op": args.op,
               "vector": vector_to_dict(op(g))}
    _emit(dumps(payload), args.out)
    return 0


def cmd_cohomology(args):
    _check_complex(args)
    if args.framed:
        rep = cohomology(ODD, args.order, args.degree, op=delta_framed,
                         basis_fn=framed_basis)
    elif args.underline:
        rep = cohomology(ODD, args.order, args.degree, op=delta_underline)
    else:
        rep = cohomology(args.parity, args.order, args.degree)
    # every cocycle term is a basis graph: one text per graph, shared by
    # the basis ordering and the cocycles
    text = lru_cache(maxsize=None)(graph_text)
    head = {"tool": "circlegc", "version": __version__,
            "parity": rep.parity, "order": rep.k, "degree": rep.m,
            "framed": args.framed, "underline": args.underline,
            "dim_kernel": rep.dim_kernel,
            "rank_previous": rep.rank_previous, "dim_H": rep.dim_H}
    lists = {"basis_ordering": map(text, rep.basis),
             "cocycles": (vector_text(v, text) for v in rep.cocycle_basis)}
    # opened once the report is computed, so a failed command writes no file
    with _output(args.report) as fh:
        write_listing(fh, head, lists)
    return 0


def cmd_verify(args):
    report = run_suite(args.suite)
    _emit(dumps(report), args.report)
    return 0 if report["passed"] else 1


def cmd_weight(args):
    (c,) = gl_weight(diagram_from_dict(_read_json(args.diagram)))
    payload = {"tool": "circlegc", "version": __version__,
               "weight": {str(c): 1}, "text": "N^%d" % c if c > 1 else "N"}
    _emit(dumps(payload), args.out)
    return 0


def cmd_astu_dim(args):
    payload = {"tool": "circlegc", "version": __version__, "k": args.k,
               "dim": a_space_dim(args.k)}
    _emit(dumps(payload), args.out)
    return 0


def cmd_faces(args):
    g = _checked_graph(_read_json(args.audit))
    rep = audit_graph(g, args.n, extended=args.extended)
    payload = {"tool": "circlegc", "version": __version__, "n": rep.n,
               "extended": rep.extended, "total_subgraphs": rep.total,
               "verdicts": dict(sorted(rep.verdict_counts.items())),
               "principal_sites": [{"kind": s.kind, "index": s.index}
                                   for s in sorted(rep.principal_sites)],
               "expected_sites": [{"kind": s.kind, "index": s.index}
                                  for s in sorted(rep.expected_sites)],
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
    graphs = data.get("graphs", [data]) if isinstance(data, dict) else None
    if not isinstance(graphs, list):
        raise ValueError("expected a graph or an object with a graphs list")
    # every graph is checked before anything is drawn
    graphs = [_checked_graph(gd) for gd in graphs]
    texts = [graph_to_dot(g, name="g%d" % i) for i, g in enumerate(graphs)]
    if not args.out_dir:
        sys.stdout.write("".join(texts))
        return 0
    os.makedirs(args.out_dir, exist_ok=True)
    for i, text in enumerate(texts):
        with open(os.path.join(args.out_dir, "graph_%03d.dot" % i),
                  "w") as fh:
            fh.write(text)
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
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:    # json.JSONDecodeError included
        print("circlegc: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
