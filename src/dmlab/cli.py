"""dmlab command line interface.

Subcommands are thin shells over single library operations.  Graphs travel
as graph6 lines, labelings as JSON, tables as TSV.  One reader makes any
labeling document centered and keeps its scheme.  Exit codes: 0 success,
1 negative mathematical verdict (NotDistanceMagic, a failed verification,
NotFound), 2 usage or input error.  `filter` reports RuledOut in its TSV
rows and exits 0; it checks every line before it prints any row, and a
malformed or irregular line, or one of odd valency, makes it print no rows
and exit 2, naming the line's 1-based number.  `census` with an odd valency
prints nothing and exits 2.  A closed stdout (a broken pipe, as under
`| head -1`) ends any subcommand with exit 2 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import constructive, dot, kfk, labeling, qw, search, spectral
from .enumerator import EnumerationTask, census_pipeline, enumerate_regular
from .errors import DmlabError
from .graph import Graph, parse_graph6, require_graph6_order, write_graph6
from .labeling import SCHEMA

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DmlabError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise DmlabError(f"{'stdin' if path == '-' else path}: {exc}") from None


def _read_graph(path: str) -> Graph:
    lines = [line.strip() for line in _read_text(path).splitlines() if line.strip()]
    if not lines:
        raise DmlabError(f"no graph6 line found in {path}")
    if len(lines) > 1:
        raise DmlabError(f"{path} holds {len(lines)} graph6 lines; expected one graph")
    return parse_graph6(lines[0])


def _read_labeling(path: str):
    """The labeling document at path, as a centered labeling, and its scheme."""
    lab = labeling.labeling_from_json(_read_text(path))
    return (labeling.from_standard(lab) if lab.scheme == "standard" else lab), lab.scheme


def _sequence_from_args(args, graph6: bool = False) -> qw.QWSequence:
    """The sequence of --profile or --sequence.  With graph6, an order 2m
    above the graph6 limit is refused before a profile is expanded."""
    if args.profile is not None:
        parts = qw.parse_profile(args.profile)
        if graph6 and min(parts) >= 2:  # a smaller part keeps profile_to_sequence's error
            require_graph6_order(2 * sum(parts))
        return qw.profile_to_sequence(parts)
    bits = args.sequence.replace(",", "")
    if set(bits) - {"0", "1"}:
        raise DmlabError(f"malformed sequence {args.sequence!r}: entries must be 0 or 1")
    seq = qw.validate_sequence([int(ch) for ch in bits])
    if graph6:
        require_graph6_order(2 * seq.m)
    return seq


def _emit(doc: dict):
    print(json.dumps({"schema": SCHEMA, **doc}))


# --- subcommand handlers ----------------------------------------------------

def _cmd_qw_build(args) -> int:
    seq = _sequence_from_args(args, graph6=True)
    print(write_graph6(qw.build_qw(seq)))
    return EXIT_OK


def _cmd_qw_classify(args) -> int:
    seq = _sequence_from_args(args)
    verdict = qw.classify(seq)
    segs = [
        {"index": s.index, "start": s.start, "length": s.length, "type": s.kind}
        for s in qw.segments(seq)
    ]
    _emit(
        {
            "verdict": "DistanceMagic" if verdict.distance_magic else "NotDistanceMagic",
            "reason": verdict.reason,
            "segments": segs,
        }
    )
    return EXIT_OK if verdict.distance_magic else EXIT_NEGATIVE


def _cmd_label_construct(args) -> int:
    seq = _sequence_from_args(args)
    maker = constructive.construct_tilde_labeling if args.tilde else constructive.construct_labeling
    print(labeling.labeling_to_json(maker(seq)))
    return EXIT_OK


def _cmd_label_verify(args) -> int:
    g = _read_graph(args.graph)
    lab, scheme = _read_labeling(args.labels)
    report = labeling.verify(g, lab)
    weights = report.weights
    if scheme == "standard":
        if len({g.degree(v) for v in range(g.n)}) != 1:
            raise DmlabError("standard-scheme verification target needs a regular graph")
        # standard weight = (centered weight + deg(v)(n+1)) / 2; the target r(n+1)/2
        # is centered weight 0, so the verdict and first violation carry over
        weights = [(w + g.degree(v) * (g.n + 1)) // 2 for v, w in enumerate(weights)]
    _emit(
        {
            "verdict": "pass" if report.ok else "fail",
            "bijective": report.bijective,
            "first_violation": report.first_violation,
            "weights": list(weights),
        }
    )
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def _cmd_label_convert(args) -> int:
    # exact for a standard document too: its x reads as c = 2x - 1 - n, and c + n is odd
    lab, _ = _read_labeling(args.labels)
    print(labeling.labeling_to_json(labeling.to_standard(lab) if args.to == "standard" else lab))
    return EXIT_OK


def _cmd_search(args) -> int:
    g = _read_graph(args.graph)
    opts = search.SearchOptions(
        mode=search.COUNT_ALL if args.count else search.FIND_ONE,
        node_budget=args.budget_nodes,
        time_budget=args.budget_secs,
        prefilter=not args.no_prefilter,
    )
    outcome = search.find_labeling(g, opts)
    if outcome.verdict == search.FOUND and not args.count:
        print(labeling.labeling_to_json(outcome.labeling))
        return EXIT_OK
    doc = {"verdict": outcome.verdict, "stats": outcome.stats}
    if args.count:
        doc["count_folded"] = outcome.count_folded
        doc["count_raw"] = outcome.count_raw
    _emit(doc)
    if outcome.verdict == search.FOUND:
        return EXIT_OK
    return EXIT_NEGATIVE if outcome.verdict == search.NOT_FOUND else EXIT_ERROR


def _cmd_filter(args) -> int:
    rows = []
    for number, line in enumerate(_read_text(args.input).splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            verdict = spectral.corollary_filter(parse_graph6(line))
        except DmlabError as exc:
            raise DmlabError(f"line {number}: {exc}") from None
        tag = "Candidate" if verdict.candidate else "RuledOut"
        rows.append(f"{line}\t{tag}\t{verdict.reason or ''}")
    for row in rows:
        print(row)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    task = EnumerationTask(order=args.order, valency=args.valency, connected=args.connected)
    lines = (write_graph6(g) for g in enumerate_regular(task))
    for s in sorted(lines) if args.sorted else lines:
        print(s)
    return EXIT_OK


def _cmd_census(args) -> int:
    rows = census_pipeline(args.orders, valency=args.valency)
    print("order\ttotal\tcandidates\tdm_confirmed")
    for row in rows:
        print(f"{row.order}\t{row.total}\t{len(row.candidates)}\t{row.dm_confirmed}")
    return EXIT_OK


def _cmd_expand(args) -> int:
    g = _read_graph(args.graph)
    lab, _ = _read_labeling(args.labels)
    if args.cycle:
        verts = tuple(map(int, args.cycle.split(","))) if qw._DECIMALS.fullmatch(args.cycle) else ()
        if len(verts) != 4:
            raise DmlabError("--cycle needs exactly four comma-separated vertices")
        g2, lab2 = kfk.expand(g, lab, kfk.ZeroAntipodal4Cycle(verts))
    else:
        g2, lab2 = kfk.expand_default(g, lab)
    print(write_graph6(g2))
    print(labeling.labeling_to_json(lab2))
    return EXIT_OK


def _cmd_dot(args) -> int:
    g = _read_graph(args.graph)
    lab = _read_labeling(args.labels)[0] if args.labels else None
    sys.stdout.write(dot.export_dot(g, lab, qw_rows=args.qw_rows))
    return EXIT_OK


# --- parser -----------------------------------------------------------------

def _add_sequence_args(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--profile", help='segment profile, e.g. "11,3,5,3,7,5,3"')
    group.add_argument("--sequence", help='bit sequence, e.g. "011011"')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmlab",
        description="Distance magic labelings of tetravalent quasi wreath graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_qw = sub.add_parser("qw", help="build or classify quasi wreath graphs")
    qw_sub = p_qw.add_subparsers(dest="qw_command", required=True)
    p = qw_sub.add_parser("build", help="emit the graph6 line of QW(S)")
    _add_sequence_args(p)
    p.set_defaults(func=_cmd_qw_build)
    p = qw_sub.add_parser("classify", help="distance magic verdict for QW(S)")
    _add_sequence_args(p)
    p.set_defaults(func=_cmd_qw_classify)

    p_label = sub.add_parser("label", help="construct, verify, or convert labelings")
    label_sub = p_label.add_subparsers(dest="label_command", required=True)
    p = label_sub.add_parser("construct", help="closed-form labeling of a DM quasi wreath graph")
    _add_sequence_args(p)
    p.add_argument("--tilde", action="store_true", help="emit the exchanged (range-split) variant")
    p.set_defaults(func=_cmd_label_construct)
    p = label_sub.add_parser("verify", help="check a labeling against a graph")
    p.add_argument("--graph", required=True, help="file with a graph6 line, or -")
    p.add_argument("--labels", required=True, help="labeling JSON file, or -")
    p.set_defaults(func=_cmd_label_verify)
    p = label_sub.add_parser("convert", help="switch between centered and standard schemes")
    p.add_argument("--labels", required=True)
    p.add_argument("--to", required=True, choices=("centered", "standard"))
    p.set_defaults(func=_cmd_label_convert)

    p = sub.add_parser("search", help="complete backtracking search for a labeling")
    p.add_argument("--graph", required=True)
    p.add_argument("--count", action="store_true", help="count all labelings")
    p.add_argument("--no-prefilter", action="store_true")
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--budget-secs", type=float, default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("filter", help="eigenvector filter over graph6 lines")
    p.add_argument("--input", default="-", help="graph6 lines, one per line (default stdin)")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("enumerate", help="isomorph-free regular graph generation")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--valency", type=int, default=4)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--sorted", action="store_true", help="certificate-lexicographic order")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("census", help="enumerate + filter + search, one TSV row per order")
    p.add_argument("--orders", type=int, nargs="+", required=True)
    p.add_argument("--valency", type=int, default=4)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("expand", help="4-cycle expansion of a labeled DM graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--cycle", help="a,b,c,d (default: least qualifying cycle)")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("dot", help="DOT export, optionally annotated with labels")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels")
    p.add_argument("--qw-rows", action="store_true", help="rank x and y rows separately")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except DmlabError as exc:
        print(f"dmlab: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        return EXIT_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
