"""Command-line front end: index computation, theta classes, quotients,
molecule generation, and a cut-versus-direct benchmark.

A `--partition-file` is read as one label per edge id and validated as
`weighted_suite_cut` validates any partition the library did not write.
`quotient` reads the classes as the cut route does, through
`indices._read_classes`, and prints a class as K2 exactly when it is one
clean cut. `index --method direct` reads no partition and refuses it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Sequence

from .errors import (
    DisconnectedError,
    InvalidCPartitionError,
    ParseError,
    PartitionNotCoveringError,
    SzegedCutError,
)
from .graph import Graph, _int_pairs, format_edge_list, parse_edge_list
from .indices import IndexReport, _json_values, _read_classes, weighted_suite_cut, weighted_suite_direct
from .molgen import (
    HexSpec,
    build_benzenoid,
    build_phenylene,
    linear_phenylene,
    parse_hex_spec,
)
from .oracle import oracle_suite
from .quotient import quotient_graph, WeightAssignment
from .theta import EdgePartition, theta_star_partition

_EXIT_OK = 0
_EXIT_MISMATCH = 1
_EXIT_PARSE = 2
_EXIT_DISCONNECTED = 3
_EXIT_PARTITION = 4
_EXIT_INPUT = 5


def _read_text(path: str) -> str:
    # stdin is decoded strictly like a file, whatever its own error handler
    try:
        if path == "-":
            if sys.stdin is None:  # started with stdin closed
                raise OSError("stdin is closed")
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _parse_partition(text: str, m: int) -> EdgePartition:
    """Classes from `edge_id class_id` lines that name each edge id once."""
    pairs = _int_pairs(text)
    labels: list[int | None] = [None] * m
    for e, c in pairs:
        if not 0 <= e < m:  # before indexing: labels[-1] is the last slot
            raise ParseError(f"edge id {e} outside 0..{m - 1} in partition file")
        labels[e] = c
    # m in-range ids that leave no slot empty name each edge id exactly once
    if len(pairs) != m or None in labels:
        raise ParseError(f"file must map every edge id 0..{m - 1} exactly once")
    return EdgePartition.from_labels(labels)


def _load_partition(g: Graph, path: str | None) -> EdgePartition:
    if path is None:
        return theta_star_partition(g)
    return _parse_partition(_read_text(path), g.m)


def _print_report(report: IndexReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    print(f"method: {report.method}")
    print(f"starred: {str(report.starred).lower()}")
    for name, value in _json_values(report).items():
        print(f"{name}: {value}")
    for c in report.per_class:
        print(f"class {c.class_index}:", *(f"{k}={v}" for k, v in _json_values(c).items()))


def _cmd_index(args) -> int:
    if args.method == "direct" and args.partition_file is not None:
        raise ParseError("--partition-file needs --method cut or compare")
    g = _read_graph(args.input)
    if args.method == "direct":
        report = weighted_suite_direct(g, starred=args.starred)
    else:
        p = _load_partition(g, args.partition_file)
        report = weighted_suite_cut(g, p, starred=args.starred)
    if args.method == "compare":
        oracle = oracle_suite(g, starred=args.starred)
        if report.as_tuple() != oracle.as_tuple():
            print(
                f"mismatch: cut {report.as_tuple()} != oracle {oracle.as_tuple()}",
                file=sys.stderr,
            )
            return _EXIT_MISMATCH
    _print_report(report, args.format)
    return _EXIT_OK


def _cmd_theta(args) -> int:
    g = _read_graph(args.input)
    p = theta_star_partition(g)
    for members in p.classes:
        tokens = [f"{g.edges[e][0]}-{g.edges[e][1]}" for e in sorted(members)]
        print(" ".join(tokens))
    return _EXIT_OK


def _cmd_quotient(args) -> int:
    g = _read_graph(args.input)
    p = _load_partition(g, args.partition_file)
    wa = WeightAssignment.degree_weighted(g, starred=args.starred)
    for idx, (members, cuts, rest) in enumerate(zip(p.classes, *_read_classes(g, wa, p))):
        if len(cuts) == 1 and not rest:  # the class is one clean cut: G/F is K2
            w0, t0, w1, t1, lp, wp = cuts[0]
            vertices, edges = [(w0, t0), (w1, t1)], [(0, 1, lp, wp)]
        else:
            q = quotient_graph(g, wa, members)
            vertices = list(zip(q.w, q.lam))
            edges = [(a, b, lp, wp) for (a, b), lp, wp in zip(q.graph.edges, q.lambda_prime, q.w_prime)]
        print(f"# class {idx}: {len(vertices)} components, {len(edges)} quotient edges")
        print(f"{len(vertices)} {len(edges)}")
        for row in vertices + edges:
            print(*row)
    return _EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "ph":
        dlg = linear_phenylene(args.n)
        source = f"linear phenylene, {args.n} hexagons"
    else:
        spec = parse_hex_spec(_read_text(args.spec))
        if args.family == "benzenoid":
            dlg = build_benzenoid(spec)
        else:
            dlg = build_phenylene(spec)
        source = f"{args.family}, {len(spec.cells)} cells"
    comments = [f"{dlg.kind}: {source}"]
    if dlg.nonstandard_region:
        comments.append("nonstandard_region: cell set encloses holes")
    # the sidecar goes first, so an unwritable path prints no edge list
    if args.labels:
        try:
            with open(args.labels, "w", encoding="utf-8") as fh:
                for eid, label in enumerate(dlg.direction_of):
                    fh.write(f"{eid} {label}\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.labels}: {exc}") from exc
    sys.stdout.write(format_edge_list(dlg.graph, comments=comments))
    return _EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ParseError(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    if not sizes:
        raise ParseError("--sizes is empty")
    if args.reps < 1:
        raise ParseError(f"--reps must be at least 1, got {args.reps}")
    print("family,cells,vertices,edges,method,seconds")
    for cells in sizes:
        if args.family == "ph":
            dlg = linear_phenylene(cells)
        else:
            dlg = build_benzenoid(HexSpec.linear_chain(cells))
        g = dlg.graph
        g.degrees()  # builds the adjacency, so no timed rep pays for it
        p = dlg.direction_partition()

        def timed(fn) -> float:
            runs = []
            for _ in range(args.reps):
                t0 = time.perf_counter()
                fn()
                runs.append(time.perf_counter() - t0)
            return statistics.median(runs)

        cut_s = timed(lambda: weighted_suite_cut(g, p))
        print(f"{args.family},{cells},{g.n},{g.m},cut,{cut_s:.6f}")
        if cells <= args.direct_max:
            direct_s = timed(lambda: weighted_suite_direct(g))
            print(f"{args.family},{cells},{g.n},{g.m},direct,{direct_s:.6f}")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szegedcut",
        description=(
            "Weighted Szeged-type and PI-type indices of connected graphs, "
            "directly or via quotient-graph cuts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_partition_opts(p):
        p.allow_abbrev = False  # a stale `--partition X` must not mean --partition-file
        p.add_argument("--partition-file",
                       help="edge_id class_id lines (default: Theta*-classes)")
        p.add_argument("--starred", action="store_true",
                       help="use degree products instead of degree sums")

    p_index = sub.add_parser("index", help="compute the four-index suite")
    p_index.add_argument("input", nargs="?", default="-",
                         help="edge-list file, or - for stdin")
    p_index.add_argument("--method", choices=["cut", "direct", "compare"],
                         default="cut")
    p_index.add_argument("--format", choices=["json", "text"], default="json")
    add_partition_opts(p_index)
    p_index.set_defaults(func=_cmd_index)

    p_theta = sub.add_parser("theta", help="print Theta*-classes")
    p_theta.add_argument("input", nargs="?", default="-")
    p_theta.set_defaults(func=_cmd_theta)

    p_quot = sub.add_parser("quotient", help="print weighted quotient graphs")
    p_quot.add_argument("input", nargs="?", default="-")
    add_partition_opts(p_quot)
    p_quot.set_defaults(func=_cmd_quotient)

    p_gen = sub.add_parser("gen", help="generate benzenoids and phenylenes")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    for family in ("benzenoid", "phenylene"):
        pg = gen_sub.add_parser(family)
        pg.add_argument("spec", help="hex-spec file (q r per line), or -")
        pg.add_argument("--labels", help="write edge_id label sidecar here")
        pg.set_defaults(func=_cmd_gen, family=family)
    pg = gen_sub.add_parser("ph", help="linear phenylene with n hexagons")
    pg.add_argument("n", type=int)
    pg.add_argument("--labels", help="write edge_id label sidecar here")
    pg.set_defaults(func=_cmd_gen, family="ph")

    p_bench = sub.add_parser("bench", help="time cut vs direct, CSV output")
    p_bench.add_argument("--family", choices=["ph", "benzenoid"], default="ph")
    p_bench.add_argument("--sizes", default="100,1000,10000",
                         help="comma-separated cell counts")
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument(
        "--direct-max", type=int, default=200,
        help="largest cell count at which the direct route is timed",
    )
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): stop quietly, and let the final
        # flush at exit write to devnull (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except DisconnectedError as exc:
        print(f"disconnected input: {exc}", file=sys.stderr)
        return _EXIT_DISCONNECTED
    except (InvalidCPartitionError, PartitionNotCoveringError) as exc:
        print(f"invalid partition: {exc}", file=sys.stderr)
        return _EXIT_PARTITION
    except SzegedCutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
