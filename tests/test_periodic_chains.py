"""Exact references at any scale for chains of a periodic word of cells.

Along a chain whose cells repeat with period k, each cut's sides grow
linearly in the number of cells h and the weights repeat, so each of the
four degree-weighted indices is a cubic in h on each residue class of h
modulo k, once h is past the end effects. Four oracle values fix that
cubic, two more oracle points test it, and then it is the reference for
the routes at sizes that no oracle reaches.
"""

from fractions import Fraction

import pytest

from szegedcut import (
    HexSpec,
    build_benzenoid,
    build_phenylene,
    format_edge_list,
    oracle_suite,
    parse_edge_list,
    ph_closed_formulas,
    theta_star_partition,
    weighted_suite_cut,
    weighted_suite_direct,
)


def _zigzag(h: int) -> HexSpec:
    # cells step alternately along q and along r: period 2
    return HexSpec(frozenset(((i + 1) // 2, i // 2) for i in range(h)))


def _cubic(points):
    """The polynomial through the (h, value) points, by exact Lagrange
    interpolation, as a function that returns ints."""

    def at(h):
        total = Fraction(0)
        for i, (x, y) in enumerate(points):
            term = Fraction(y)
            for j, (xj, _) in enumerate(points):
                if j != i:
                    term *= Fraction(h - xj, x - xj)
            total += term
        assert total.denominator == 1, (h, total)
        return int(total)

    return at


def _fit(build, word, fit_hs, check_hs):
    """The four values of the chain `build(word(h))` as functions of h,
    fitted on `fit_hs` from the oracle and checked against it on `check_hs`."""
    suite = {h: oracle_suite(build(word(h)).graph).as_tuple() for h in fit_hs + check_hs}
    cubics = [_cubic([(h, suite[h][i]) for h in fit_hs]) for i in range(4)]
    for h in check_hs:
        assert tuple(f(h) for f in cubics) == suite[h], h
    return lambda h: tuple(f(h) for f in cubics)


def _check_routes(build, word, expected, cut_h, text_h, direct_h):
    # the quotient route, on the generator's direction classes
    dlg = build(word(cut_h))
    assert weighted_suite_cut(dlg.graph, dlg.direction_partition()).as_tuple() == expected(cut_h)
    # the clean-cut route, on the Theta*-classes of the re-parsed text
    g = parse_edge_list(format_edge_list(build(word(text_h)).graph))
    assert weighted_suite_cut(g, theta_star_partition(g)).as_tuple() == expected(text_h)
    # the direct route
    assert weighted_suite_direct(build(word(direct_h)).graph).as_tuple() == expected(direct_h)


@pytest.mark.parametrize("build", [build_benzenoid, build_phenylene], ids=["benzenoid", "phenylene"])
@pytest.mark.parametrize(
    "fit_hs, check_hs, cut_h, text_h, direct_h",
    [
        ((4, 6, 8, 10), (12, 14), 10_000, 1000, 100),
        ((5, 7, 9, 11), (13, 15), 10_001, 1001, 101),
    ],
    ids=["even", "odd"],
)
def test_zigzag_chains_follow_one_cubic_per_parity(build, fit_hs, check_hs, cut_h, text_h, direct_h):
    _check_routes(build, _zigzag, _fit(build, _zigzag, fit_hs, check_hs), cut_h, text_h, direct_h)


@pytest.mark.parametrize("build", [build_benzenoid, build_phenylene], ids=["acene", "phenylene"])
def test_linear_chains_follow_one_cubic(build):
    # period 1: one cubic for every h >= 2
    expected = _fit(build, HexSpec.linear_chain, (2, 3, 4, 5), (6, 7))
    _check_routes(build, HexSpec.linear_chain, expected, 10_000, 1000, 100)
    if build is build_phenylene:
        for h in (2, 3, 50, 10_000):
            assert expected(h) == ph_closed_formulas(h).as_tuple(), h


def _kinked(h: int) -> HexSpec:
    # two steps along q, then one along r: period 3
    return HexSpec(frozenset((i - i // 3, i // 3) for i in range(h)))


@pytest.mark.parametrize("build", [build_benzenoid, build_phenylene], ids=["benzenoid", "phenylene"])
def test_period_three_chains_follow_one_cubic_per_residue(build):
    fits = [_fit(build, _kinked, tuple(h + r for h in (3, 6, 9, 12)), (15 + r, 18 + r)) for r in range(3)]
    # 10 000, 1001 and 102 leave the residues 1, 2 and 0: each route reads one at scale
    _check_routes(build, _kinked, lambda h: fits[h % 3](h), 10_000, 1001, 102)
