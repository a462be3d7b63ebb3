"""Seeded inputs, reference values and jobs of the three benchmark workloads.

Every workload is a fixed list of cases drawn from one seed. A case holds
the job's input, the reference values its output must match, and the
sizes printed for it. A job calls the library only through a namespace of
step callables, one per layer seam (`STEPS`), so the traced run can swap in
wrapped callables while the untraced run calls the library directly. Only
the `szegedcut` top-level namespace is used.

Reference values never come from the route being timed:

- molecule sizes and first Zagreb index are counted from the hex spec, so
  every bipartite molecule is checked against wPI_v = |V| * M1;
- linear phenylenes are checked against `ph_closed_formulas`;
- Theta*-route results are checked against the generator-label cut;
- weighted-generic values come from the brute-force oracle at set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import szegedcut as sc

AXIAL_RIGHT = (1, 0)
AXIAL_UP = (0, 1)  # 60 degrees from AXIAL_RIGHT

KIND_TAG = {"phenylene": "PH", "benzenoid": "BZ"}
CUT_KINDS = (sc.IndexKind.SZ, sc.IndexKind.PI_V, sc.IndexKind.SZ_E, sc.IndexKind.PI)


@dataclass
class Case:
    """One job input with its reference values.

    `expected` maps output keys to exact values the job output must equal;
    `edges` is the input edge count credited to `edges_per_s`. `sizes` is
    printed; the class count is read from the job output.
    """

    label: str
    edges: int
    sizes: dict
    payload: dict
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

def chain_cells(rng: random.Random, h: int, kink: float) -> sc.HexSpec:
    """Unbranched catacondensed chain of h cells.

    Each step goes right or up-right (60 degrees apart), so cell i and cell
    j sit at lattice distance |i - j|: only consecutive cells touch and no
    corner lies in three cells. `kink` is the chance of switching heading;
    0 gives the linear chain.
    """
    q = r = 0
    heading = AXIAL_RIGHT
    cells = [(0, 0)]
    for _ in range(h - 1):
        if rng.random() < kink:
            heading = AXIAL_UP if heading == AXIAL_RIGHT else AXIAL_RIGHT
        q, r = q + heading[0], r + heading[1]
        cells.append((q, r))
    return sc.HexSpec(frozenset(cells))


def row_convex_cells(rng: random.Random, h: int, width: int) -> sc.HexSpec:
    """Benzenoid region whose cells form one interval per row.

    An empty cell can walk along its row to the bounding box, so the region
    has no holes: its direction labels are a c-partition. Each row starts
    within one cell of the previous row's start, so the first cell of a row
    touches the row below and the region is connected.
    """
    cells = set()
    start, row = 0, 0
    while len(cells) < h:
        w = min(h - len(cells), width + rng.randint(-width // 4, width // 4))
        cells.update((q, row) for q in range(start, start + w))
        start += rng.randint(-1, 1 if w > 1 else 0)
        row += 1
    return sc.HexSpec(frozenset(cells))


def internal_vertices(cells: frozenset) -> int:
    """Lattice corners shared by three cells: triangles of adjacent cells."""
    count = 0
    for q, r in cells:
        if (q + 1, r) in cells:
            count += ((q, r + 1) in cells) + ((q + 1, r - 1) in cells)
    return count


def molecule_counts(kind: str, spec: sc.HexSpec) -> tuple[int, int, int]:
    """(n, m, M1) of the molecule, counted from the cells alone."""
    h = len(spec.cells)
    if kind == "phenylene":
        # 4(h-1) corners gain a square edge (degree 3); the rest keep degree 2
        return 6 * h, 8 * h - 2, 44 * h - 20
    ni = internal_vertices(spec.cells)
    # n3 = 2h - 2 degree-3 corners, n2 = 2h + 4 - ni degree-2 corners
    return 4 * h + 2 - ni, 5 * h + 1 - ni, 26 * h - 2 - 4 * ni


def make_molecule(rng: random.Random, kind: str, h: int, linear: bool = False) -> sc.HexSpec:
    if kind == "phenylene":
        return chain_cells(rng, h, 0.0 if linear else rng.uniform(0.1, 0.4))
    return row_convex_cells(rng, h, max(3, round(h ** 0.5)))


def molecule_expected(kind: str, spec: sc.HexSpec, linear: bool) -> dict:
    n, m, m1 = molecule_counts(kind, spec)
    expected = {"n": n, "m": m, "wPI_v": n * m1}
    if linear:
        closed = sc.ph_closed_formulas(len(spec.cells))
        expected.update(zip(("wSz", "wPI_v", "wSz_e", "wPI"), closed.as_tuple()))
    return expected


# ---------------------------------------------------------------------------
# steps: one callable per layer seam
# ---------------------------------------------------------------------------

def molgen_build(kind: str, spec: sc.HexSpec):
    """Generate the molecule and its direction-label partition (trusted)."""
    build = sc.build_phenylene if kind == "phenylene" else sc.build_benzenoid
    dlg = build(spec)
    return dlg.graph, dlg.direction_partition()


def output_report(report, **extra) -> str:
    return json.dumps({**extra, **report.to_json_dict()})


def output_values(values: dict, **extra) -> str:
    return json.dumps({**extra, **{k: str(v) for k, v in values.items()}})


# name -> (layer span, plain callable); the traced run wraps each in a span
STEPS: dict[str, tuple[str, Callable]] = {
    "molgen_build": ("molgen.build", molgen_build),
    "graph_format": ("graph.format", sc.format_edge_list),
    "graph_parse": ("graph.parse", sc.parse_edge_list),
    "theta_partition": ("theta.partition", sc.theta_star_partition),
    "theta_validate": ("theta.validate", sc.validate_c_partition),
    "indices_suite_cut": ("indices", sc.weighted_suite_cut),
    "indices_general": ("indices", sc.general_cut_index),
    "indices_weighted": ("indices", sc.weighted_index),
    "output_report": ("output.json", output_report),
    "output_values": ("output.json", output_values),
}


def plain_steps() -> SimpleNamespace:
    return SimpleNamespace(**{name: fn for name, (_, fn) in STEPS.items()})


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def molecule_cut_job(steps, case: Case) -> str:
    g0, labels = steps.molgen_build(case.payload["kind"], case.payload["spec"])
    g = steps.graph_parse(steps.graph_format(g0))
    report = steps.indices_suite_cut(g, labels)
    return steps.output_report(report, n=g.n, m=g.m, classes=len(labels))


def read_partition(text: str, m: int) -> sc.EdgePartition:
    """Partition from `edge_id class_id` lines, unflagged (to be validated)."""
    by_class: dict[int, list[int]] = {}
    for line in text.splitlines():
        eid, cid = line.split()
        by_class.setdefault(int(cid), []).append(int(eid))
    return sc.EdgePartition.from_classes(by_class.values(), m)


def theta_star_job(steps, case: Case) -> str:
    g = steps.graph_parse(case.payload["text"])
    part_text = case.payload["partition"]
    if part_text is None:
        p = steps.theta_partition(g)
    else:
        p = read_partition(part_text, g.m)
        if not steps.theta_validate(g, p):
            raise sc.InvalidCPartitionError("partition file splits a Theta*-class")
        p = sc.EdgePartition(p.classes, p.class_of, refined_by_theta_star=True)
    report = steps.indices_suite_cut(g, p)
    return steps.output_report(report, n=g.n, m=g.m, classes=len(p))


def weighted_generic_job(steps, case: Case) -> str:
    g = steps.graph_parse(case.payload["text"])
    wa = sc.WeightAssignment(*case.payload["weights"])
    p = steps.theta_partition(g)
    values = {k.value: steps.indices_general(g, wa, p, k) for k in CUT_KINDS}
    values["Sz_t"] = steps.indices_weighted(g, wa, sc.IndexKind.SZ_T)
    return steps.output_values(values, n=g.n, m=g.m, classes=len(p))


def check(case: Case, output: str) -> bool:
    """True iff every reference value equals the job's output exactly."""
    got = json.loads(output)
    return all(
        k in got and Fraction(got[k]) == Fraction(v) for k, v in case.expected.items()
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Ladders: one case per rung, run in this order every round; the first rung
# is the warm-up. Sizes are chosen so job times cluster around the median
# instead of splitting into groups, which keeps job_p50_s steady.

# The median job and the tail job (10 jobs beyond it) sit among ladder
# cases of about equal cost, so neither statistic is the slowest or the
# fastest repeat of a single case. The rank positions follow from the
# number of rounds (2, 4 and 2 at 24 seconds): with 16 jobs the median
# falls between the 4th and 5th cheapest cases and the tail on the 5th;
# with 32 jobs the median falls between the 4th and 5th and the tail on
# the 6th, which costs about as much as the 7th.

# (kind, hexagons, linear): a phenylene costs about 2.5x a benzenoid of the
# same size, so phenylenes take the lower part of the 5k-20k range
MOLECULE_LADDER = (
    ("phenylene", 5000, True),
    ("benzenoid", 10000, False),
    ("phenylene", 6200, False),
    ("benzenoid", 13000, False),
    ("phenylene", 6400, False),
    ("benzenoid", 15500, False),
    ("phenylene", 9000, True),
    ("benzenoid", 20000, False),
)

# (kind, hexagons, linear, partition file supplied): Theta* costs O(m^2)
# and a phenylene has about 2.4x the edges of a benzenoid, so benzenoids
# take the upper sizes; PH300 sets the all-pairs table behind peak_rss_mb
THETA_LADDER = (
    ("phenylene", 100, True, False),
    ("benzenoid", 260, False, False),
    ("phenylene", 115, False, False),
    ("benzenoid", 280, False, True),
    ("phenylene", 160, False, True),
    ("phenylene", 200, False, True),
    ("phenylene", 140, False, False),
    ("phenylene", 300, True, False),
)

# (vertices, Fraction weights): Fractions cost about 5x ints, so they go
# on the smallest graphs
GENERIC_LADDER = (
    (330, False),
    (200, True),
    (350, False),
    (210, True),
    (370, False),
    (220, True),
    (395, False),
    (400, False),
)


def molecule_case(rng: random.Random, kind: str, h: int, linear: bool) -> Case:
    spec = make_molecule(rng, kind, h, linear)
    expected = molecule_expected(kind, spec, linear)
    return Case(
        label=f"{KIND_TAG[kind]}{h}{'-linear' if linear else ''}",
        edges=expected["m"],
        sizes={"hexagons": h, "n": expected["n"], "m": expected["m"]},
        payload={"kind": kind, "spec": spec},
        expected=expected,
    )


def partition_text(p: sc.EdgePartition) -> str:
    return "".join(f"{e} {c}\n" for e, c in enumerate(p.class_of))


def theta_case(
    rng: random.Random, kind: str, h: int, linear: bool, with_file: bool
) -> Case:
    spec = make_molecule(rng, kind, h, linear)
    g, labels = molgen_build(kind, spec)
    expected = molecule_expected(kind, spec, linear)
    label_cut = sc.weighted_suite_cut(g, labels).to_json_dict()
    if (g.n, g.m) != (expected["n"], expected["m"]) or int(label_cut["wPI_v"]) != expected["wPI_v"]:
        raise RuntimeError(f"reference sources disagree on {kind} {h}")
    expected.update((k, int(label_cut[k])) for k in ("wSz", "wPI_v", "wSz_e", "wPI"))
    return Case(
        label=f"{KIND_TAG[kind]}{h}{'-linear' if linear else ''}{'-file' if with_file else ''}",
        edges=g.m,
        sizes={"hexagons": h, "n": g.n, "m": g.m},
        payload={
            "text": sc.format_edge_list(g),
            "partition": partition_text(labels) if with_file else None,
        },
        expected=expected,
    )


def random_sparse_graph(rng: random.Random, n: int) -> sc.Graph:
    """Connected non-bipartite graph: random tree plus n/4 extra edges."""
    while True:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < n * 5 // 4:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = sc.build_graph(n, sorted(edges))
        if not sc.is_bipartite(g):
            return g


def random_weights(rng: random.Random, g: sc.Graph, fractions: bool):
    def draw():
        if fractions:
            return Fraction(rng.randint(0, 12), rng.randint(1, 6))
        return rng.randint(0, 9)

    return (
        tuple(draw() for _ in range(g.n)),
        tuple(draw() for _ in range(g.m)),
        tuple(draw() for _ in range(g.m)),
    )


def oracle_values(g: sc.Graph, wa: sc.WeightAssignment) -> dict:
    """All five weighted indices from the oracle's side sets of each edge.

    Same sums as `oracle_general`, with the side sets computed once per
    edge instead of once per edge and index.
    """
    totals = dict.fromkeys(("Sz", "PI_v", "Sz_e", "PI", "Sz_t"), 0)
    for eid in range(g.m):
        s = sc.oracle_edge_sides(g, eid)
        n_u = sum(wa.w[x] for x in s.n_u)
        n_v = sum(wa.w[x] for x in s.n_v)
        m_u = sum(wa.lambda_prime[f] for f in s.m_u)
        m_v = sum(wa.lambda_prime[f] for f in s.m_v)
        wp = wa.w_prime[eid]
        totals["Sz"] += wp * n_u * n_v
        totals["PI_v"] += wp * (n_u + n_v)
        totals["Sz_e"] += wp * m_u * m_v
        totals["PI"] += wp * (m_u + m_v)
        totals["Sz_t"] += wp * (n_u + m_u) * (n_v + m_v)
    return totals


def generic_case(rng: random.Random, n: int, fractions: bool) -> Case:
    g = random_sparse_graph(rng, n)
    weights = random_weights(rng, g, fractions)
    return Case(
        label=f"G{n}-{'frac' if fractions else 'int'}",
        edges=g.m,
        sizes={"n": g.n, "m": g.m},
        payload={"text": sc.format_edge_list(g), "weights": weights},
        expected=oracle_values(g, sc.WeightAssignment(*weights)),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    ladder: tuple
    make_case: Callable[..., Case]
    job: Callable
    # nominal seconds per round of all cases (about one round's time on a
    # 2-core Xeon VM): a run makes --seconds / round_s rounds, rounded
    round_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("molecule-cut", MOLECULE_LADDER, molecule_case, molecule_cut_job, 12.0),
        Workload("theta-star", THETA_LADDER, theta_case, theta_star_job, 6.0),
        Workload("weighted-generic", GENERIC_LADDER, generic_case, weighted_generic_job, 12.0),
    )
}


def make_cases(workload: Workload, seed: int) -> list[Case]:
    """The workload's cases, one per ladder rung, drawn from one seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make_case(rng, *rung) for rung in workload.ladder]
