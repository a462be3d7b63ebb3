"""Acceptance suite.

Every test prints one `criterion N: PASS/FAIL` line (run with -s to see
them live). All index values are exact integers; comparisons use zero
tolerance throughout.
"""

import functools
import math
import random
import time

from szegedcut import (
    EdgePartition,
    IndexKind,
    build_benzenoid,
    build_phenylene,
    distance_decomposition_check,
    first_zagreb,
    general_cut_index,
    is_partial_cube,
    linear_phenylene,
    oracle_edge_sides,
    oracle_general,
    oracle_suite,
    ph_closed_formulas,
    quotient_graph,
    theta_star_partition,
    weighted_suite_cut,
    weighted_suite_direct,
)

from conftest import (
    BENZENOID_SPECS,
    FULLERENE_BIG_CLASS,
    FULLERENE_TOTALS,
    PHENYLENE_SPECS,
    assert_square_quotient_is_the_cell_tree,
    direction_quotients,
    fullerene_patch,
    random_bipartite_connected,
    random_connected_graph,
    random_weight_assignment,
)

CORPUS_SEED = 20260810


def criterion(num):
    """Print the pass/fail line for a criterion, whatever happens inside."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion {num}: FAIL ({exc})")
                raise
            print(f"criterion {num}: PASS ({detail})")

        return wrapper

    return decorate


@criterion(1)
def test_criterion_1_fullerene_patch():
    t0 = time.perf_counter()
    g = fullerene_patch()

    star = theta_star_partition(g)
    sizes = sorted(len(c) for c in star.classes)
    assert sizes == [3, 3, 3, 3, 3, 10]
    big_index = star.class_of[0]
    assert star.classes[big_index] == FULLERENE_BIG_CLASS

    direct = weighted_suite_direct(g)
    assert direct.as_tuple() == FULLERENE_TOTALS

    cut_star = weighted_suite_cut(g, star)
    assert cut_star.as_tuple() == FULLERENE_TOTALS

    grouping = {i: (0 if i == big_index else 1) for i in range(len(star.classes))}
    two = EdgePartition.from_labels(grouping[c] for c in star.class_of)
    cut_two = weighted_suite_cut(g, two)
    assert cut_two.as_tuple() == FULLERENE_TOTALS
    # per-quotient contributions of the {big class, rest} split
    contribs = [c.w_sz for c in cut_two.per_class]
    assert sorted(contribs) == [3200, 6000]
    assert sorted(c.w_pi_v for c in cut_two.per_class) == [800, 1600]
    assert sorted(c.w_sz_e for c in cut_two.per_class) == [5000, 5760]
    assert sorted(c.w_pi for c in cut_two.per_class) == [1000, 1760]

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    return f"direct = theta-star cut = 2-class cut = {FULLERENE_TOTALS}, {elapsed:.2f}s"


@criterion(2)
def test_criterion_2_linear_phenylenes():
    t0 = time.perf_counter()
    for n in range(2, 13):
        expected = ph_closed_formulas(n).as_tuple()
        ph = linear_phenylene(n)
        cut = weighted_suite_cut(ph.graph, ph.direction_partition())
        assert cut.as_tuple() == expected, f"cut mismatch at n={n}"
        assert oracle_suite(ph.graph).as_tuple() == expected, f"oracle mismatch at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    return f"n=2..12 cut = oracle = formulas, {elapsed:.2f}s"


@criterion(3)
def test_criterion_3_cut_equals_direct():
    t0 = time.perf_counter()
    rng = random.Random(CORPUS_SEED)
    kinds = (IndexKind.SZ, IndexKind.PI_V, IndexKind.SZ_E, IndexKind.PI)
    graphs = 0
    for _ in range(200):
        g = random_connected_graph(rng, max_n=12)
        star = theta_star_partition(g)
        partitions = [star, EdgePartition.from_labels([0] * g.m)]
        if len(star) > 1:
            grouping = {i: rng.randrange(2) for i in range(len(star.classes))}
            partitions.append(EdgePartition.from_labels(grouping[c] for c in star.class_of))
        for starred in (False, True):
            direct = weighted_suite_direct(g, starred=starred).as_tuple()
            for p in partitions:
                cut = weighted_suite_cut(g, p, starred=starred)
                assert cut.as_tuple() == direct
                assert (
                    cut.w_sz == sum(c.w_sz for c in cut.per_class)
                    and cut.w_pi == sum(c.w_pi for c in cut.per_class)
                )
        wa = random_weight_assignment(rng, g)
        for kind in kinds:
            assert general_cut_index(g, wa, star, kind) == oracle_general(g, wa, kind)
        graphs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    return f"{graphs} random graphs, 3 partitions, both starred, 4 general kinds, {elapsed:.1f}s"


@criterion(4)
def test_criterion_4_quotient_transfer_identities():
    rng = random.Random(CORPUS_SEED)
    edges_checked = 0
    for _ in range(200):
        g = random_connected_graph(rng, max_n=12)
        star = theta_star_partition(g)
        wa = random_weight_assignment(rng, g, lo=1)
        quotients = [quotient_graph(g, wa, members) for members in star.classes]

        # distance decomposition across the whole partition
        assert distance_decomposition_check(g, quotients)

        for members, q in zip(star.classes, quotients):
            qedges = {e: i for i, e in enumerate(q.graph.edges)}
            for e in sorted(members):
                u, v = g.edges[e]
                cu, cv = q.component_map[u], q.component_map[v]
                # class edges end in distinct, adjacent components
                assert cu != cv
                key = (cu, cv) if cu < cv else (cv, cu)
                assert key in qedges
                qeid = qedges[key]

                sides = oracle_edge_sides(g, e)
                n_u = sum(wa.w[x] for x in sides.n_u)
                n_v = sum(wa.w[x] for x in sides.n_v)
                m_u = sum(wa.lambda_prime[f] for f in sides.m_u)
                m_v = sum(wa.lambda_prime[f] for f in sides.m_v)

                qsides = oracle_edge_sides(q.graph, qeid)
                qn = (
                    sum(q.w[x] for x in qsides.n_u),
                    sum(q.w[x] for x in qsides.n_v),
                )
                qlam_vertex = (
                    sum(q.lam[x] for x in qsides.n_u),
                    sum(q.lam[x] for x in qsides.n_v),
                )
                qlam_edge = (
                    sum(q.lambda_prime[f] for f in qsides.m_u),
                    sum(q.lambda_prime[f] for f in qsides.m_v),
                )
                flip = key[0] != cu
                u_slot, v_slot = (1, 0) if flip else (0, 1)
                # vertex masses transfer to the quotient exactly
                assert n_u == qn[u_slot] and n_v == qn[v_slot]
                # edge masses split into internal mass plus fiber mass
                assert m_u == qlam_vertex[u_slot] + qlam_edge[u_slot]
                assert m_v == qlam_vertex[v_slot] + qlam_edge[v_slot]
                edges_checked += 1
    return f"distance/adjacency/side-transfer equalities on {edges_checked} class edges"


@criterion(5)
def test_criterion_5_bipartite_identity():
    molecules = [build_benzenoid(s).graph for s in BENZENOID_SPECS]
    molecules += [build_phenylene(s).graph for s in PHENYLENE_SPECS]
    for g in molecules:
        rep = weighted_suite_direct(g)
        assert rep.w_pi_v == g.n * first_zagreb(g)
    rng = random.Random(CORPUS_SEED)
    randoms = 0
    for _ in range(100):
        g = random_bipartite_connected(rng)
        rep = weighted_suite_direct(g)
        assert rep.w_pi_v == g.n * first_zagreb(g)
        randoms += 1
    return f"{len(molecules)} molecules + {randoms} random bipartite graphs"


@criterion(6)
def test_criterion_6_molecule_structure():
    for spec in BENZENOID_SPECS:
        b = build_benzenoid(spec)
        assert all(t.graph.m == t.graph.n - 1 for t in direction_quotients(b))
        assert is_partial_cube(b.graph)
    for spec in PHENYLENE_SPECS:
        ph = build_phenylene(spec)
        assert_square_quotient_is_the_cell_tree(ph)
        assert is_partial_cube(ph.graph)
    return (
        f"{len(BENZENOID_SPECS)} benzenoids: 3 tree quotients; "
        f"{len(PHENYLENE_SPECS)} phenylenes: square quotient = cell tree; all partial cubes"
    )


@criterion(7)
def test_criterion_7_linear_scaling():
    sizes = (100, 1000, 10000)
    reps = (3, 3, 1)
    times = []
    for n, rep_count in zip(sizes, reps):
        ph = linear_phenylene(n)
        best = math.inf
        for _ in range(rep_count):
            t0 = time.perf_counter()
            p = ph.direction_partition()
            report = weighted_suite_cut(ph.graph, p)
            best = min(best, time.perf_counter() - t0)
        assert report.as_tuple() == ph_closed_formulas(n).as_tuple()
        times.append(best)

    assert times[-1] < 10.0, f"PH_10000 suite took {times[-1]:.2f}s"
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert slope <= 1.3, f"log-log slope {slope:.2f}"
    return (
        "suite times "
        + ", ".join(f"n={n}: {t:.3f}s" for n, t in zip(sizes, times))
        + f", slope {slope:.2f}"
    )
