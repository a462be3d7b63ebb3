"""Command-line front end: index computation, theta classes, quotients,
molecule generation, and a cut-versus-direct benchmark."""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Sequence

from .errors import (
    DisconnectedError,
    IncompleteGroupingError,
    InvalidCPartitionError,
    ParseError,
    PartitionNotCoveringError,
    SzegedCutError,
)
from .graph import Graph, format_edge_list, parse_edge_list
from .indices import IndexReport, weighted_suite_cut
from .molgen import (
    HexSpec,
    build_benzenoid,
    build_phenylene,
    linear_phenylene,
    parse_hex_spec,
)
from .oracle import oracle_suite
from .quotient import quotient_graph, WeightAssignment
from .theta import EdgePartition, theta_star_partition, validate_c_partition

_EXIT_OK = 0
_EXIT_MISMATCH = 1
_EXIT_PARSE = 2
_EXIT_DISCONNECTED = 3
_EXIT_PARTITION = 4
_EXIT_INPUT = 5

# first line of a label sidecar whose cell set has holes: its labels may
# split a Theta*-class, so the partition is validated instead of trusted
_HOLED_MARKER = "# nonstandard_region"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_partition(text: str, what: str, m: int) -> EdgePartition:
    """Classes from `edge_id value` lines that name each edge id once."""
    groups: dict[int, list[int]] = {}
    seen: set[int] = set()
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"expected '{what}' line, got {line!r}")
        try:
            key, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer {what} line {line!r}") from None
        if key in seen:
            raise ParseError(f"duplicate edge id {key} in {what} file")
        seen.add(key)
        groups.setdefault(value, []).append(key)
    if sorted(seen) != list(range(m)):
        raise ParseError(f"file must map every edge id 0..{m - 1} exactly once")
    return EdgePartition.from_classes(groups.values(), m)


def _load_partition(g: Graph, args) -> EdgePartition:
    if args.partition == "theta-star":
        return theta_star_partition(g)
    if args.partition == "labels":
        path, option, what = args.labels_file, "--labels-file", "edge_id label"
    else:
        path, option, what = args.partition_file, "--partition-file", "edge_id class_id"
    if not path:
        raise ParseError(f"--partition {args.partition} requires {option}")
    text = _read_text(path)
    p = _parse_partition(text, what, g.m)
    # generator sidecars are trusted c-partitions unless marked as holed
    holed = text.partition("\n")[0].strip() == _HOLED_MARKER
    if (args.partition == "file" or holed) and not validate_c_partition(g, p):
        raise InvalidCPartitionError("partition file splits a Theta*-class across classes")
    return EdgePartition(p.classes, p.class_of, refined_by_theta_star=True)


def _print_report(report: IndexReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
        return
    print(f"method: {report.method}")
    print(f"starred: {str(report.starred).lower()}")
    print(f"wSz: {report.w_sz}")
    print(f"wPI_v: {report.w_pi_v}")
    print(f"wSz_e: {report.w_sz_e}")
    print(f"wPI: {report.w_pi}")
    for c in report.per_class:
        print(
            f"class {c.class_index}: wSz={c.w_sz} wPI_v={c.w_pi_v} "
            f"wSz_e={c.w_sz_e} wPI={c.w_pi}"
        )


def _cmd_index(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    if args.method == "direct":
        report = oracle_suite(g, starred=args.starred)
    else:
        p = _load_partition(g, args)
        report = weighted_suite_cut(g, p, starred=args.starred)
    if args.method == "compare":
        direct = oracle_suite(g, starred=args.starred)
        if report.as_tuple() != direct.as_tuple():
            print(
                f"mismatch: cut {report.as_tuple()} != direct {direct.as_tuple()}",
                file=sys.stderr,
            )
            return _EXIT_MISMATCH
    _print_report(report, args.format)
    return _EXIT_OK


def _cmd_theta(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    p = theta_star_partition(g)
    for members in p.classes:
        tokens = [f"{g.edges[e][0]}-{g.edges[e][1]}" for e in sorted(members)]
        print(" ".join(tokens))
    return _EXIT_OK


def _cmd_quotient(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    p = _load_partition(g, args)
    wa = WeightAssignment.degree_weighted(g, starred=args.starred)
    for idx, members in enumerate(p.classes):
        q = quotient_graph(g, wa, members)
        print(f"# class {idx}: {q.graph.n} components, {q.graph.m} quotient edges")
        print(f"{q.graph.n} {q.graph.m}")
        for x in range(q.graph.n):
            print(f"{q.w[x]} {q.lam[x]}")
        for eid, (a, b) in enumerate(q.graph.edges):
            print(f"{a} {b} {q.lambda_prime[eid]} {q.w_prime[eid]}")
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
    sys.stdout.write(format_edge_list(dlg.graph, comments=comments))
    if args.labels:
        with open(args.labels, "w", encoding="utf-8") as fh:
            if dlg.nonstandard_region:
                fh.write(_HOLED_MARKER + "\n")
            for eid, label in enumerate(dlg.direction_of):
                fh.write(f"{eid} {label}\n")
    return _EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise ParseError(f"--sizes expects comma-separated integers, got {args.sizes!r}")
    if not sizes:
        raise ParseError("--sizes is empty")
    print("family,cells,vertices,edges,method,seconds")
    for cells in sizes:
        if args.family == "ph":
            dlg = linear_phenylene(max(cells, 2))
        else:
            dlg = build_benzenoid(HexSpec.linear_chain(cells))
        g = dlg.graph
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
            direct_s = timed(lambda: oracle_suite(g))
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
        p.add_argument(
            "--partition",
            choices=["theta-star", "labels", "file"],
            default="theta-star",
            help="where the c-partition comes from (default: theta-star)",
        )
        p.add_argument("--partition-file", help="edge_id class_id lines")
        p.add_argument("--labels-file", help="edge_id label sidecar from gen")
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
        help="largest cell count at which the direct oracle is timed",
    )
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return _EXIT_PARSE
    except DisconnectedError as exc:
        print(f"disconnected input: {exc}", file=sys.stderr)
        return _EXIT_DISCONNECTED
    except (
        InvalidCPartitionError,
        PartitionNotCoveringError,
        IncompleteGroupingError,
    ) as exc:
        print(f"invalid partition: {exc}", file=sys.stderr)
        return _EXIT_PARTITION
    except SzegedCutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
