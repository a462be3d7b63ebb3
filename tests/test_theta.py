import random
import tracemalloc
from dataclasses import replace
from operator import eq, is_
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegedcut import (
    DisconnectedError,
    build_benzenoid,
    is_connected,
    EdgePartition,
    PartitionNotCoveringError,
    WeightAssignment,
    all_pairs_distances,
    build_graph,
    is_bipartite,
    is_partial_cube,
    linear_phenylene,
    HexSpec,
    MalformedPartitionError,
    oracle_is_partial_cube,
    oracle_suite,
    oracle_theta_star_partition,
    quotient_graph,
    theta_related,
    SzegedCutError,
    bfs_distances,
    theta_star_partition,
    validate_c_partition,
    weighted_suite_cut,
)
from szegedcut import graph, theta
from szegedcut.cli import _parse_partition

from conftest import (
    FULLERENE_BIG_CLASS,
    bridged_weighted_graphs,
    cube_subgraph,
    cycle_graph,
    cyclic_weighted_graphs,
    pendant_weighted_graphs,
    pass_facts,
    path_graph,
    quotient_edge_members,
    random_bipartite_connected,
    random_connected_graph,
    random_tree,
)


def test_theta_c4_opposite_edges():
    c4 = cycle_graph(4)
    dm = all_pairs_distances(c4)
    e01 = c4.edges.index((0, 1))
    e23 = c4.edges.index((2, 3))
    assert theta_related(c4, dm, e01, e23)


def test_theta_p3_adjacent_edges_unrelated():
    p3 = path_graph(3)
    dm = all_pairs_distances(p3)
    assert not theta_related(p3, dm, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_theta_reflexive_and_symmetric(seed):
    g = random_connected_graph(random.Random(seed), max_n=10)
    dm = all_pairs_distances(g)
    for e in range(g.m):
        assert theta_related(g, dm, e, e)
    for e1 in range(g.m):
        for e2 in range(g.m):
            assert theta_related(g, dm, e1, e2) == theta_related(g, dm, e2, e1)


def test_theta_star_c6_opposite_pairs():
    p = theta_star_partition(cycle_graph(6))
    assert [sorted(c) for c in p.classes] == [[0, 3], [1, 4], [2, 5]]
    assert p.refined_by_theta_star


def test_theta_star_p4_singletons():
    p = theta_star_partition(path_graph(4))
    assert [sorted(c) for c in p.classes] == [[0], [1], [2]]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_even_cycles_have_k_opposite_pairs(k):
    p = theta_star_partition(cycle_graph(2 * k))
    assert len(p.classes) == k
    assert all(len(c) == 2 for c in p.classes)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_odd_cycles_collapse_to_one_class(k):
    p = theta_star_partition(cycle_graph(2 * k + 1))
    assert len(p.classes) == 1
    assert len(p.classes[0]) == 2 * k + 1


def test_trees_have_singleton_classes():
    rng = random.Random(11)
    for _ in range(20):
        t = random_tree(rng, max_n=12)
        p = theta_star_partition(t)
        assert all(len(c) == 1 for c in p.classes)


def test_partition_classes_cover_disjointly():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng)
        p = theta_star_partition(g)
        seen = set()
        for c in p.classes:
            assert c
            assert not (seen & c)
            seen |= c
        assert seen == set(range(g.m))
        assert all(p.class_of[e] == i for i, c in enumerate(p.classes) for e in c)


def test_validate_identity_and_coarsest():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connected_graph(rng)
        star = theta_star_partition(g)
        assert validate_c_partition(g, star)
        assert validate_c_partition(g, EdgePartition.from_labels([0] * g.m))


def test_validate_rejects_split_class():
    c6 = cycle_graph(6)
    # opposite pair {0, 3} torn across two classes
    p = EdgePartition.from_classes([{0, 1, 2}, {3, 4, 5}], 6)
    assert not validate_c_partition(c6, p)


def test_validate_requires_cover():
    c6 = cycle_graph(6)
    p = EdgePartition.from_classes([{0, 1, 2}], 3)
    with pytest.raises(PartitionNotCoveringError):
        validate_c_partition(c6, p)


def test_partition_factory_rejects_bad_input():
    with pytest.raises(ValueError):
        EdgePartition.from_classes([{0}, {0, 1}], 2)   # overlap
    with pytest.raises(PartitionNotCoveringError):
        EdgePartition.from_classes([{0}, {2}], 2)      # id out of range
    with pytest.raises(PartitionNotCoveringError):
        EdgePartition.from_classes([{0}], 2)           # not covering


def test_is_bipartite():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert is_bipartite(build_graph(4, [(0, 1), (2, 3)]))  # disconnected ok


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


@settings(max_examples=400, deadline=None)
@given(_small_graphs())
def test_is_bipartite_matches_every_2_colouring(g):
    # connected or not: an odd cycle in any component makes g non-bipartite
    colourings = range(1 << g.n)
    bipartite = any(all(c >> u & 1 != c >> v & 1 for u, v in g.edges) for c in colourings)
    assert is_bipartite(g) == bipartite


def test_partial_cube_examples(patch):
    assert is_partial_cube(cycle_graph(6))
    assert not is_partial_cube(cycle_graph(5))
    assert not is_partial_cube(patch)


def test_removing_a_class_from_a_partial_cube_gives_two_components():
    c6 = cycle_graph(6)
    star = theta_star_partition(c6)
    wa = WeightAssignment.unit(c6)
    for members in star.classes:
        q = quotient_graph(c6, wa, members)
        assert q.graph.n == 2


def test_partition_rejects_class_of_that_disagrees_with_classes():
    # every edge mapped to class 0 while class 1 holds five of them: the
    # cut method would read wSz = 112 on C6, where the truth is 216
    with pytest.raises(MalformedPartitionError):
        EdgePartition((frozenset({0}), frozenset({1, 2, 3, 4, 5})), (0,) * 6)
    with pytest.raises(MalformedPartitionError):
        EdgePartition((frozenset({0, 1}), frozenset({1})), (0, 1))   # overlap
    with pytest.raises(MalformedPartitionError):
        EdgePartition((frozenset(), frozenset({0})), (1,))           # empty class
    with pytest.raises(PartitionNotCoveringError):
        EdgePartition((frozenset({0, 2}),), (0, 0))                  # id 2 of 2
    with pytest.raises(PartitionNotCoveringError):
        EdgePartition((frozenset({0}),), (0, 0))                     # edge 1 left out
    star = theta_star_partition(cycle_graph(6))
    assert EdgePartition(star.classes, star.class_of, True).classes == star.classes


def test_the_constructor_keeps_frozen_copies():
    # a list class could repeat an id, and so hide an uncovered edge, or
    # change after the walk checked it: the constructor checks and keeps
    # frozen copies
    g = path_graph(3)
    with pytest.raises(PartitionNotCoveringError):
        EdgePartition(([0, 0],), (0, 0), True)
    members = [0, 1]
    p = EdgePartition((members,), [0, 0], True)
    members.remove(1)
    assert p.classes == (frozenset({0, 1}),) and p.class_of == (0, 0)
    assert weighted_suite_cut(g, p).as_tuple() == oracle_suite(g).as_tuple() == (12, 18, 0, 6)
    q = EdgePartition((frozenset({0, 1}),), (0, 0), True)
    assert p == q and hash(p) == hash(q)
    # frozensets and tuples are their own copies: no class is copied again
    star = theta_star_partition(cycle_graph(6))
    kept = replace(EdgePartition(star.classes, star.class_of, True))
    assert all(map(is_, kept.classes, star.classes)) and kept.class_of is star.class_of


def test_partition_factory_errors_are_library_errors():
    for classes in ([{0}, {0, 1}], [set(), {0, 1}]):   # overlap, empty class
        with pytest.raises(MalformedPartitionError) as info:
            EdgePartition.from_classes(classes, 2)
        assert isinstance(info.value, SzegedCutError)
        assert isinstance(info.value, ValueError)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b"])), max_size=30))
def test_from_labels_matches_from_classes(labels):
    p = EdgePartition.from_labels(labels)
    groups: dict = {}
    for e, label in enumerate(labels):
        groups.setdefault(label, []).append(e)
    q = EdgePartition.from_classes(groups.values(), len(labels))
    assert p.classes == q.classes and p.class_of == q.class_of
    smallest = [min(c) for c in p.classes]   # numbered by smallest edge id
    assert smallest == sorted(smallest)
    # wrapped unchecked, yet the checked constructor accepts the same views
    assert EdgePartition(p.classes, p.class_of) == p
    assert p.refined_by_theta_star is False
    assert p.two_sided == ()
    assert p._certified_on is None


def test_partitions_the_library_builds_skip_the_constructor_check():
    # every partition in the library comes from `from_labels`, whose two
    # views agree by construction, so none runs the constructor's walk
    refuse = AssertionError("EdgePartition.__post_init__ ran")
    with mock.patch.object(EdgePartition, "__post_init__", side_effect=refuse):
        with pytest.raises(AssertionError):   # the patch holds for the raw constructor
            EdgePartition((frozenset({0}),), (0,))
        assert EdgePartition.from_labels([0, 1, 0]).class_of == (0, 1, 0)
        molecule = build_benzenoid(HexSpec.linear_chain(3)).graph   # the lattice route
        bridged = build_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        for g, classes in ((molecule, 7), (bridged, 3), (cycle_graph(5), 1)):   # C5 takes the pass
            assert len(theta_star_partition(g)) == classes
        assert len(linear_phenylene(3).direction_partition()) == 4
        assert _parse_partition("0 5\n1 7\n2 5\n", 3).class_of == (0, 1, 0)


def _named_fault(classes, class_of):
    """(error class, message) that the rules name for the pair, or None:
    classes are read in order and the first bad one is named, by the first
    of these it breaks: nonempty, ids in 0..m-1, class_of agreeing on each
    of its ids; then the classes must cover 0..m-1."""
    m = len(class_of)
    for idx, members in enumerate(classes):
        if not members:
            return MalformedPartitionError, "empty partition class"
        if any(not 0 <= e < m for e in members):
            return PartitionNotCoveringError, f"edge id outside 0..{m - 1}"
        if any(class_of[e] != idx for e in members):
            return MalformedPartitionError, f"class_of disagrees with class {idx}"
    if set().union(*classes) != set(range(m)):
        return PartitionNotCoveringError, f"classes do not cover all {m} edges"
    return None


@st.composite
def _class_pairs(draw):
    # a partition of 0..m-1 into classes in some order, then, each now and
    # then, an id moved, added or put out of range, an empty class, and
    # class_of entries redrawn
    m = draw(st.integers(0, 6))
    labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    classes = [{e for e in range(m) if labels[e] == c} for c in dict.fromkeys(labels)]
    classes = draw(st.permutations(classes))
    ids = st.integers(-1, m)
    for _ in range(draw(st.integers(0, 2))):
        if classes:
            members = draw(st.sampled_from(classes))
            if members and draw(st.booleans()):
                members.discard(draw(st.sampled_from(sorted(members))))
            else:
                members.add(draw(ids))
    if draw(st.integers(0, 4)) == 0:
        classes.insert(draw(st.integers(0, len(classes))), set())
    class_of = [next((i for i, c in enumerate(classes) if e in c), 0) for e in range(m)]
    for e in draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else ():
        class_of[e] = draw(st.integers(-1, len(classes)))
    return tuple(map(frozenset, classes)), tuple(class_of)


@settings(max_examples=300, deadline=None)
@given(_class_pairs())
def test_the_constructor_names_the_first_bad_class(pair):
    classes, class_of = pair
    fault = _named_fault(classes, class_of)
    if fault is None:
        assert EdgePartition(classes, class_of).classes == classes
        return
    with pytest.raises(SzegedCutError) as info:
        EdgePartition(classes, class_of)
    assert (type(info.value), str(info.value)) == fault


# ---------------------------------------------------------------------------
# the BFS-tree Theta* pass against the pairwise oracle
# ---------------------------------------------------------------------------

GRAPH_FAMILIES = ("tree", "even-cycle", "odd-cycle", "bipartite", "general", "tiny")


def family_graph(family: str, rng: random.Random):
    if family == "tree":
        return random_tree(rng, min_n=1, max_n=12)
    if family == "even-cycle":
        return cycle_graph(2 * rng.randint(2, 7))
    if family == "odd-cycle":
        return cycle_graph(2 * rng.randint(1, 7) + 1)
    if family == "bipartite":
        return random_bipartite_connected(rng, extra=rng.choice((0.1, 0.3, 0.6)))
    if family == "general":
        return random_connected_graph(rng, max_n=12, extra=rng.choice((0.1, 0.25, 0.5)))
    return random_connected_graph(rng, min_n=1, max_n=2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRAPH_FAMILIES), st.integers(0, 10**9))
def test_theta_star_matches_pairwise_oracle(family, seed):
    g = family_graph(family, random.Random(seed))
    assert theta_star_partition(g).classes == oracle_theta_star_partition(g).classes


def test_theta_star_matches_oracle_on_patch_and_molecule(patch):
    for g in (patch, linear_phenylene(6).graph):
        assert theta_star_partition(g).classes == oracle_theta_star_partition(g).classes
    # a 10 x 10 parallelogram and PH20 take the lattice route, so their
    # sweeps are run through the pass itself
    cells = frozenset((q, r) for q in range(10) for r in range(10))
    for g in (build_benzenoid(HexSpec(cells)).graph, linear_phenylene(20).graph):
        classes, _, two_sided = pass_facts(g)
        assert classes == oracle_theta_star_partition(g).classes
        assert all(two_sided)


def _split_and_coarsen(rng: random.Random, star: EdgePartition) -> EdgePartition:
    # refine some Theta*-classes at random, then merge classes at random
    pieces = []
    for members in star.classes:
        ids = sorted(members)
        rng.shuffle(ids)
        if len(ids) > 1 and rng.random() < 0.3:
            cut = rng.randint(1, len(ids) - 1)
            pieces += [ids[:cut], ids[cut:]]
        else:
            pieces.append(ids)
    groups = rng.randint(1, len(pieces))
    merged: dict[int, list[int]] = {}
    for piece in pieces:
        merged.setdefault(rng.randrange(groups), []).extend(piece)
    return EdgePartition.from_classes(merged.values(), star.num_edges)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRAPH_FAMILIES), st.integers(0, 10**9))
def test_validate_agrees_with_oracle(family, seed):
    rng = random.Random(seed)
    g = family_graph(family, rng)
    star = oracle_theta_star_partition(g)
    if not star.classes:
        assert validate_c_partition(g, star)
        return
    for _ in range(3):
        p = _split_and_coarsen(rng, star)
        expected = all(len({p.class_of[e] for e in c}) == 1 for c in star.classes)
        assert validate_c_partition(g, p) == expected


def _family_or_pendant(family: str, data):
    # a GRAPH_FAMILIES graph, one with pendant trees (bridges) hung on a
    # cyclic core, or a connected induced subgraph of Q3 or Q4; and a
    # generator for the partitions made from it
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    if family == "pendant":
        return data.draw(pendant_weighted_graphs())[0], rng
    if family in ("Q3", "Q4"):
        return hypercube_subgraph(rng, int(family[1])), rng
    return family_graph(family, rng), rng


@settings(max_examples=250, deadline=None)
@given(
    st.sampled_from(GRAPH_FAMILIES + ("pendant", "Q3", "Q4")),
    st.sampled_from((6, 7, 8)),
    st.data(),
)
def test_theta_star_in_several_sweeps_matches_oracle(family, source_bits, data):
    # 3 or 4 tree edges per sweep, so any graph with a cycle takes several
    g, rng = _family_or_pendant(family, data)
    whole = theta_star_partition(g)
    star = oracle_theta_star_partition(g)
    parts = [_split_and_coarsen(rng, star) for _ in range(3)] if star.classes else []
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        swept = theta_star_partition(g)
        valid = [validate_c_partition(g, p) for p in parts]
    assert swept.classes == star.classes
    assert swept.two_sided == whole.two_sided
    for p, v in zip(parts, valid):
        assert v == all(len({p.class_of[e] for e in c}) == 1 for c in star.classes)


def _tie_bits(g) -> dict[int, bool]:
    # tree edge -> whether the pass finds a vertex equidistant from its ends
    return {
        e: bool(ties >> i & 1)
        for tree_edges, _, ties in theta._theta_cuts(g)
        for i, e in enumerate(tree_edges)
    }


def _has_tie(g, e) -> bool:
    p, c = g.edges[e]
    return any(map(eq, bfs_distances(g, p), bfs_distances(g, c)))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(GRAPH_FAMILIES + ("pendant",)),
    st.sampled_from((6, 7, 4096)),
    st.data(),
)
def test_tie_bits_match_distances(family, source_bits, data):
    g, _ = _family_or_pendant(family, data)
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        ties = _tie_bits(g)
    assert len(ties) == g.n - 1
    for e, tie in ties.items():
        assert tie == _has_tie(g, e)


@pytest.mark.parametrize(
    "g, tie",
    [
        (cycle_graph(3), True),
        (cycle_graph(5), True),
        (cycle_graph(7), True),
        (cycle_graph(4), False),
        (cycle_graph(8), False),
        (path_graph(6), False),
        (build_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), False),
    ],
    ids=["K3", "C5", "C7", "C4", "C8", "P6", "tree"],
)
def test_ties_on_small_graphs(g, tie):
    # every edge of an odd cycle has one vertex equidistant from its ends
    assert set(_tie_bits(g).values()) == {tie}


def hypercube_subgraph(rng: random.Random, d: int):
    """A random connected induced subgraph of the d-cube Q_d."""
    chosen = [rng.randrange(1 << d)]
    size = rng.randint(1, 1 << d)
    while len(chosen) < size:
        v = rng.choice(chosen) ^ (1 << rng.randrange(d))
        if v not in chosen:
            chosen.append(v)
    index = {v: i for i, v in enumerate(chosen)}
    edges = [
        (index[v], index[v ^ (1 << b)])
        for v in chosen
        for b in range(d)
        if v & (1 << b) and v ^ (1 << b) in index
    ]
    return build_graph(len(chosen), edges)


def _refuse(name: str):
    def run(*_):
        raise AssertionError(f"{name} called")

    return run


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(GRAPH_FAMILIES + ("Q4",)),
    st.sampled_from((6, 7, 4096)),
    st.integers(0, 10**9),
)
def test_batches_hold_exactly_the_related_edges(family, source_bits, seed):
    # every batch, one sweep, hands on only the edges related to one of
    # its tree edges, each with its full row
    rng = random.Random(seed)
    g = hypercube_subgraph(rng, 4) if family == "Q4" else family_graph(family, rng)
    dm = all_pairs_distances(g)
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        batches = [(t, dict(related)) for t, related, _ in theta._theta_cuts(g)]
    for tree_edges, rows in batches:
        for f in range(g.m):
            row = sum(1 << i for i, e in enumerate(tree_edges) if theta_related(g, dm, f, e))
            assert rows.get(f, 0) == row
        assert all(rows.values())


def test_trees_take_no_sweep():
    # a tree's edges are bridges, each a two-sided class of its own, so
    # Theta* needs no sweep and no pass, however shallow or long the tree
    g = random_tree(random.Random(7), min_n=500, max_n=500)
    with mock.patch.object(theta, "_sweep", _refuse("_sweep")):
        star = theta_star_partition(g)
    assert star.classes == tuple(frozenset({e}) for e in range(g.m))
    assert star.two_sided == (True,) * g.m
    assert star == oracle_theta_star_partition(g)
    with mock.patch.object(theta, "_theta_star_pass", _refuse("_theta_star_pass")):
        path = theta_star_partition(path_graph(20000))
    assert path.classes == tuple(frozenset({e}) for e in range(19999))
    assert path.two_sided == (True,) * 19999


def test_pieces_are_not_searched_for_bridges():
    # a C5 with a pendant path of three bridges: the bridges are read once,
    # on the whole graph, and the C5, bridgeless, goes straight to the pass
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6), (6, 7)])
    with (
        mock.patch.object(theta, "_bridges", wraps=theta._bridges) as bridges,
        mock.patch.object(theta, "_theta_star_pass", wraps=theta._theta_star_pass) as passes,
    ):
        star = theta_star_partition(g)
    assert [call.args[0] for call in bridges.call_args_list] == [g]
    assert [call.args[0].n for call in passes.call_args_list] == [5]
    assert star == oracle_theta_star_partition(g)
    assert star.two_sided == (False, True, True, True)


def test_a_bridged_graph_builds_and_certifies_one_partition():
    # a C5, which takes the pass, and PH3, which takes the lattice route,
    # joined by a bridge that comes first in edge order: the routes hand
    # back labels, each piece's mapped to g's edge ids past the bridge,
    # and theta_star_partition builds and trusts one partition from them
    ph3 = linear_phenylene(3).graph
    v = ph3.degrees().index(2)
    c5 = tuple((i, (i + 1) % 5) for i in range(5))
    g = build_graph(5 + ph3.n, ((0, 5 + v),) + c5 + tuple((5 + a, 5 + b) for a, b in ph3.edges))
    expected = oracle_theta_star_partition(g)
    with (
        mock.patch.object(EdgePartition, "from_labels", wraps=EdgePartition.from_labels) as built,
        mock.patch.object(theta, "_trust", wraps=theta._trust) as trusted,
        mock.patch.object(theta, "_theta_star_pass", wraps=theta._theta_star_pass) as passes,
    ):
        star = theta_star_partition(g)
    assert built.call_count == 1 and trusted.call_count == 1
    assert [call.args[0].n for call in passes.call_args_list] == [5]
    assert star == expected
    assert star.two_sided == (True, False) + (True,) * 9


@settings(max_examples=60, deadline=None)
@given(bridged_weighted_graphs(), st.sampled_from((2, 3, 4096)))
def test_bridged_graphs_match_the_oracle_and_the_pass(graph_and_weights, source_bits):
    # bridges with cycles on both sides: each bridge is a two-sided class
    # of its own, and the classes and flags of each bridgeless piece are
    # those that the whole graph's pass finds; at 2 or 3 source bits the
    # bridges are read in several folds
    g, _ = graph_and_weights
    with mock.patch.object(graph, "_SOURCE_BITS", source_bits):
        star = theta_star_partition(g)
    assert star == oracle_theta_star_partition(g)
    assert star.two_sided == pass_facts(g)[2]


def _sparse_graph(rng: random.Random, n: int):
    # a random tree plus n // 4 chords, as sparse as the generic workloads
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n + n // 4 - 1:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return build_graph(n, sorted(edges))


def test_closure_walk_is_linear_in_rows():
    # per batch, one find for the lowest bit of each nonzero row and one
    # for the row's edge; a further bit costs a find only when it links
    # two classes (m - classes links in all) or first joins its class's
    # mask in this batch (once per tree edge); then one find per edge
    # labels the classes
    g = _sparse_graph(random.Random(1), 400)
    finds = 0
    real_find = theta._UnionFind.find

    def counted(uf, x):
        nonlocal finds
        finds += 1
        return real_find(uf, x)

    rows = sum(map(bool, (r for _, related, _ in theta._theta_cuts(g) for r in related)))
    with mock.patch.object(theta._UnionFind, "find", counted):
        star = theta_star_partition(g)
    assert star.classes == oracle_theta_star_partition(g).classes
    assert finds <= 2 * rows + (g.n - 1) + (g.m - len(star)) + g.m


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(GRAPH_FAMILIES + ("Q3", "Q4")), st.integers(0, 10**9))
def test_is_partial_cube_matches_oracle(family, seed):
    rng = random.Random(seed)
    if family in ("Q3", "Q4"):
        g = hypercube_subgraph(rng, int(family[1]))
    else:
        g = family_graph(family, rng)
    assert is_partial_cube(g) == oracle_is_partial_cube(g)


def test_is_partial_cube_on_one_vertex_and_disconnected_input():
    assert is_partial_cube(build_graph(1, []))
    assert oracle_is_partial_cube(build_graph(1, []))
    for g in (build_graph(2, []), build_graph(4, [(0, 1), (2, 3)])):
        with pytest.raises(DisconnectedError):
            is_partial_cube(g)
        with pytest.raises(DisconnectedError):
            oracle_is_partial_cube(g)


def test_theta_star_with_at_most_one_edge():
    k1 = build_graph(1, [])
    assert theta_star_partition(k1).classes == ()
    assert validate_c_partition(k1, EdgePartition.from_labels([]))
    k2 = build_graph(2, [(0, 1)])
    assert theta_star_partition(k2).classes == (frozenset({0}),)
    assert validate_c_partition(k2, EdgePartition.from_labels([0]))


@pytest.mark.parametrize("k", [63, 64, 65, 130])
def test_theta_star_at_hubs_with_many_tree_edges(k):
    # a hub with more tree edges than one BFS cuts at a time
    star = build_graph(k + 1, [(0, v) for v in range(1, k + 1)])
    assert theta_star_partition(star).classes == tuple(frozenset({e}) for e in range(k))
    k2 = build_graph(k + 2, [(hub, 2 + i) for hub in (0, 1) for i in range(k)])
    oracle = oracle_theta_star_partition(k2)
    assert theta_star_partition(k2).classes == oracle.classes
    assert validate_c_partition(k2, oracle)


def test_theta_star_and_validate_reject_disconnected_graphs():
    for g in (build_graph(2, []), build_graph(3, [(0, 1)]), build_graph(4, [(0, 1), (2, 3)])):
        with pytest.raises(DisconnectedError):
            theta_star_partition(g)
        with pytest.raises(DisconnectedError):
            validate_c_partition(g, EdgePartition.from_labels([0] * g.m))


def test_theta_star_and_validate_memory_is_linear():
    # the all-pairs table alone would be 300 x 300 entries (about 0.74 MB)
    dlg = linear_phenylene(50)
    g = dlg.graph
    p = EdgePartition.from_classes(dlg.direction_partition().classes, g.m)
    tracemalloc.start()
    try:
        star = theta_star_partition(g)
        valid = validate_c_partition(g, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(star) == 150 and valid
    assert peak < 400_000, f"peak {peak} bytes"


def test_theta_star_pass_memory_is_linear_on_a_phenylene():
    # a phenylene takes the lattice route; its pass, one sweep over the
    # 299 tree edges, must stay linear too (the all-pairs table would be
    # about 0.74 MB)
    g = linear_phenylene(50).graph
    tracemalloc.start()
    try:
        labels, sided = theta._theta_star_pass(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(labels)) == 150 and all(map(sided.__getitem__, labels))
    assert peak < 400_000, f"peak {peak} bytes"


def _phenylene_with_triangle(h: int):
    # PHh plus one chord that closes a triangle, so the graph has odd cycles
    g = linear_phenylene(h).graph
    a, b = (sum(g.edges[e]) for e in g.adj[0][:2])  # one end of each edge is vertex 0
    return build_graph(g.n, g.edges + ((a, b),))


def test_theta_star_and_validate_memory_is_linear_with_odd_cycles():
    # the all-pairs table alone would be 300 x 300 entries (about 0.74 MB)
    g = _phenylene_with_triangle(50)
    p = EdgePartition.from_classes(oracle_theta_star_partition(g).classes, g.m)
    tracemalloc.start()
    try:
        star = theta_star_partition(g)
        valid = validate_c_partition(g, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert star.classes == p.classes and valid
    assert peak < 400_000, f"peak {peak} bytes"


def test_partial_cube_memory_is_linear():
    # the all-pairs table alone would be 300 x 300 entries (about 0.74 MB)
    g = linear_phenylene(50).graph
    tracemalloc.start()
    try:
        cube = is_partial_cube(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cube
    assert peak < 400_000, f"peak {peak} bytes"


# ---------------------------------------------------------------------------
# the partial-cube test, read from the two_sided flags of the Theta* pass
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(GRAPH_FAMILIES + ("Q3", "Q4", "Q5")),
    st.booleans(),
    st.integers(0, 10**9),
)
def test_partial_cube_flag_matches_oracle(family, downset, seed):
    rng = random.Random(seed)
    if family.startswith("Q"):
        g = cube_subgraph(rng, int(family[1]), downset)
    else:
        g = family_graph(family, rng)
    cube = oracle_is_partial_cube(g)
    assert all(theta_star_partition(g).two_sided) == cube
    assert is_partial_cube(g) == cube


def _complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


@pytest.mark.parametrize(
    "g, cube",
    [
        (build_graph(1, []), True),
        (build_graph(2, [(0, 1)]), True),
        (path_graph(5), True),
        (cycle_graph(3), False),  # its one Theta-cut is its whole class
        (cycle_graph(4), True),
        (cycle_graph(7), False),
        (cycle_graph(10), True),
        (_complete_bipartite(2, 3), False),
        (_complete_bipartite(3, 3), False),
        (linear_phenylene(3).graph, True),
    ],
    ids=["K1", "K2", "P5", "K3", "C4", "C7", "C10", "K2,3", "K3,3", "PH3"],
)
def test_partial_cube_flag_on_small_graphs(g, cube):
    assert oracle_is_partial_cube(g) == cube
    assert all(theta_star_partition(g).two_sided) == cube
    assert is_partial_cube(g) == cube
    if g.m == 0:  # K1: no classes, all of them two-sided
        assert theta_star_partition(g).two_sided == ()


# ---------------------------------------------------------------------------
# the two_sided flag: classes that are one cut with two convex sides
# ---------------------------------------------------------------------------

def _bridges(g):
    return {
        e for e in range(g.m)
        if not is_connected(build_graph(g.n, g.edges[:e] + g.edges[e + 1:]))
    }


def _assert_two_sided_flags_are_sound(g):
    p = theta_star_partition(g)
    assert len(p.two_sided) == len(p.classes)
    assert is_partial_cube(g) == all(p.two_sided) == oracle_is_partial_cube(g)
    dm = all_pairs_distances(g)
    wa = WeightAssignment.unit(g)
    for members, flagged in zip(p.classes, p.two_sided):
        if not flagged:
            continue
        # G - F has two components, joined by every edge of F
        q = quotient_graph(g, wa, members)
        assert (q.graph.n, q.graph.m) == (2, 1)
        assert quotient_edge_members(g, q, members) == {(0, 1): sorted(members)}
        # and both are convex: every geodesic between two vertices of a
        # side stays inside it
        for side in (0, 1):
            inside = [x for x in range(g.n) if q.component_map[x] == side]
            for u in inside:
                for v in inside:
                    for x in range(g.n):
                        if dm[u][x] + dm[x][v] == dm[u][v]:
                            assert q.component_map[x] == side
    for e in _bridges(g):
        c = p.class_of[e]
        assert p.classes[c] == {e} and p.two_sided[c]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(("bipartite", "odd", "pendant", "Q3", "Q4")), st.data())
def test_two_sided_classes_are_clean_convex_cuts(family, data):
    if family in ("bipartite", "odd"):
        g, _ = data.draw(cyclic_weighted_graphs(family == "bipartite"))
    elif family == "pendant":
        g, _ = data.draw(pendant_weighted_graphs())
    else:
        seed = data.draw(st.integers(0, 10**9))
        g = cube_subgraph(random.Random(seed), int(family[1]), data.draw(st.booleans()))
    _assert_two_sided_flags_are_sound(g)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(3), cycle_graph(5), cycle_graph(7), _complete_bipartite(2, 3)],
    ids=["K3", "C5", "C7", "K2,3"],
)
def test_graphs_without_two_sided_classes(g):
    # K3 is the tie trap: the Theta-cut of each edge is the whole class,
    # but the third vertex is equidistant from its ends
    p = theta_star_partition(g)
    assert p.two_sided == (False,) * len(p.classes)
    assert not is_partial_cube(g)


def test_every_bridge_is_two_sided():
    # a triangle with a pendant path and a pendant star, and a hexagon
    # with a pendant triangle
    lollipop = build_graph(
        8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (4, 6), (0, 7)]
    )
    hexagon = build_graph(
        9, [(i, (i + 1) % 6) for i in range(6)] + [(3, 6), (6, 7), (7, 8), (8, 6)]
    )
    for g in (lollipop, hexagon):
        p = theta_star_partition(g)
        bridges = _bridges(g)
        assert bridges
        flagged = {e for c, f in zip(p.classes, p.two_sided) if f for e in c}
        assert bridges <= flagged
        _assert_two_sided_flags_are_sound(g)
    assert theta_star_partition(lollipop).two_sided.count(True) == 5


def test_fullerene_patch_has_five_two_sided_classes(patch):
    p = theta_star_partition(patch)
    assert len(p.classes) == 6
    assert p.two_sided.count(True) == 5
    assert not p.two_sided[p.classes.index(FULLERENE_BIG_CLASS)]
    _assert_two_sided_flags_are_sound(patch)


def test_equality_ignores_the_two_sided_flags():
    # only Theta* writes the flags, so the oracle's equal classes have none
    c4 = cycle_graph(4)
    star = theta_star_partition(c4)
    oracle = oracle_theta_star_partition(c4)
    assert star.two_sided == (True, True) and oracle.two_sided == ()
    assert star == oracle and hash(star) == hash(oracle)
    # the classes and the trust flag still take part; that no caller can
    # set the flags is test_only_theta_star_sets_the_partial_cube_flag's
    assert star != replace(star, refined_by_theta_star=False)
    assert star != theta._trust(EdgePartition.from_labels([0, 0, 1, 1]), c4.edges)


def _flags_a_partial_cube(p):
    # every class flagged two-sided: the partial-cube test `is_partial_cube`
    # reads from the Theta*-partition
    return len(p.two_sided) == len(p.classes) and all(p.two_sided)


def test_only_theta_star_sets_the_partial_cube_flag():
    c6 = cycle_graph(6)
    star = theta_star_partition(c6)
    assert _flags_a_partial_cube(star) and star.refined_by_theta_star
    assert not _flags_a_partial_cube(EdgePartition(star.classes, star.class_of, True))
    with pytest.raises(TypeError):   # from_classes takes no trust flag
        EdgePartition.from_classes(star.classes, 6, True)
    # the flags are read from two_sided, which callers cannot set, and a
    # copy made by replace() flags no class
    with pytest.raises(ValueError):
        replace(star, two_sided=(True, False, True))
    with pytest.raises(TypeError):
        EdgePartition(star.classes, star.class_of, True, (True, False, True))
    assert not _flags_a_partial_cube(replace(star, refined_by_theta_star=True))


def test_only_theta_star_sets_two_sided_flags():
    c6 = cycle_graph(6)
    star = theta_star_partition(c6)
    assert star.two_sided == (True, True, True) and star.refined_by_theta_star
    assert EdgePartition(star.classes, star.class_of, True).two_sided == ()
    assert replace(star, refined_by_theta_star=True).two_sided == ()
    dlg = build_benzenoid(HexSpec.linear_chain(3))
    assert dlg.direction_partition().two_sided == ()
    assert theta_star_partition(build_graph(1, [])).two_sided == ()
