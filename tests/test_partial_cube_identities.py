"""The partial-cube identities as a reference for wPI_v and wPI at any scale.

Every hole-free benzenoid and phenylene is a partial cube, and so is one
with a tree hung on it. In a partial cube, take an edge e = uv with
Theta*-class F(e): every vertex is strictly nearer one of u and v, every
edge of F(e) is equidistant from them, and every other edge is strictly
nearer one end. So n_u + n_v = n and m_u + m_v = m - |F(e)|, and with the
degree weights (w = lambda' = 1):

    wPI_v = n * M1,    wPI = m * M1 - sum over F of |F| * w'(F),

where M1 is the sum of w' over all edges and w'(F) its sum over F. The
unweighted case is PI = m^2 - sum |F|^2 (Klavzar, MATCH 60 (2008)
255-274). The identities read only Theta*-class sizes and degrees, so they
share no code with the side sums, the quotients or the sweep that compute
the same values on the cut route of the direction labels, and they check
that route at sizes that no oracle and no periodic fit reaches: random
kinked chains and random row-convex regions of 10 000 cells, and a chain
with a two-atom tail, whose Theta* takes the bridge split.
"""

import random
from functools import lru_cache

import pytest

from szegedcut import (
    EdgePartition,
    HexSpec,
    build_benzenoid,
    build_graph,
    build_phenylene,
    theta_star_partition,
    weighted_suite_cut,
)

from conftest import kinked_chain_cells, row_convex_cells

H = 10_000


def _tailed(mol):
    """The molecule with a two-atom tail hung on a vertex of degree 2, and
    its direction labels with one class for each tail bond: two bridges, so
    Theta* cuts the graph at them and reads the molecule as a piece."""
    g = mol.graph
    v = g.degrees().index(2)
    tailed = build_graph(g.n + 2, g.edges + ((v, g.n), (g.n, g.n + 1)))
    return tailed, EdgePartition.from_labels([*mol.direction_of, "near bond", "far bond"])


@lru_cache(maxsize=None)
def _case(name: str):
    """A graph, a c-partition of it that the cut route reads, and its
    Theta*-partition, which must flag it a partial cube."""
    rng = random.Random(41)
    if name == "row-convex benzenoid":
        mol = build_benzenoid(HexSpec(row_convex_cells(rng, H, 100)))
        g, p = mol.graph, mol.direction_partition()
    elif name == "kinked phenylene chain":
        mol = build_phenylene(HexSpec(kinked_chain_cells(rng, H)))
        g, p = mol.graph, mol.direction_partition()
    else:
        g, p = _tailed(build_phenylene(HexSpec(kinked_chain_cells(rng, 3000))))
    star = theta_star_partition(g)
    assert all(star.two_sided)
    return g, p, star


def _identities(g, star, starred: bool) -> tuple[int, int]:
    """wPI_v and wPI of a partial cube from its Theta*-class sizes and its
    degrees alone."""
    deg = g.degrees()
    w_prime = [deg[u] * deg[v] if starred else deg[u] + deg[v] for u, v in g.edges]
    m1 = sum(w_prime)
    by_class = sum(len(members) * sum(map(w_prime.__getitem__, members)) for members in star.classes)
    return g.n * m1, g.m * m1 - by_class


@pytest.mark.parametrize("starred", [False, True], ids=["plain", "starred"])
@pytest.mark.parametrize(
    "name", ["kinked phenylene chain", "row-convex benzenoid", "kinked phenylene chain with a two-atom tail"]
)
def test_partial_cube_identities(name, starred):
    # 10 000 cells, and 3000 for the chain with a tail
    g, p, star = _case(name)
    report = weighted_suite_cut(g, p, starred)
    assert (report.w_pi_v, report.w_pi) == _identities(g, star, starred)
