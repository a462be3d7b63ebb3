"""Mutant gate: every mutant of the package must fail the tests named for it.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

The script copies `src/` to a temporary directory. Each mutant names the
pytest node ids of the tests that kill it. The script first runs the
union of those tests on the unmutated copy, which must pass, so that a
test already failing cannot count as a kill; a node id that no longer
exists fails this run too. It then applies each mutant by exact string
replacement and requires `pytest -x -q` on the mutant's named tests to
fail. An anchor that is missing, or found more than once, fails the
script: a refactor that moves the code restates its mutant and never
drops it. The exit status is 0 only if every mutant is killed.

pytest is not pointed at this file: its name does not match `test_*.py`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# no run may hang the gate: a mutant that makes a test loop is a survivor
TIMEOUT_S = 120

# (name, module under src/szegedcut, anchor, replacement, the node ids of
# the tests that kill it)
MUTANTS = [
    (
        "t(A) off by lambda'(F) in _cut_sides",
        "indices.py",
        "t_a = [(sa - lp) // 2 for sa, lp in zip(s_a, lp_f)]",
        "t_a = [(sa - lp) // 2 + lp for sa, lp in zip(s_a, lp_f)]",
        [
            "tests/test_indices.py::test_suite_direct_k2",
            "tests/test_indices.py::test_general_cut_c6_edge_szeged",
            "tests/test_partial_cube_identities.py::test_partial_cube_identities[kinked phenylene chain-plain]",
        ],
    ),
    (
        "w' off by one on the first quotient edge of class 0",
        "indices.py",
        "_sums(q.graph, q.w, q.lam, q.lambda_prime, q.w_prime)",
        "_sums(q.graph, q.w, q.lam, q.lambda_prime, tuple(x + (c == 0) for x in q.w_prime[:1]) + q.w_prime[1:])",
        [
            "tests/test_indices.py::test_single_class_cut_equals_direct",
            "tests/test_acceptance.py::test_criterion_1_fullerene_patch",
        ],
    ),
    (
        "quotient_graph emits its first edge twice",
        "quotient.py",
        "pairs = tuple(sorted(wp_q))",
        "pairs = tuple(sorted(wp_q))[:1] + tuple(sorted(wp_q))",
        [
            "tests/test_quotient.py::test_c6_opposite_pair_quotient",
            "tests/test_quotient.py::test_full_edge_set_gives_isomorphic_quotient",
        ],
    ),
    (
        "bridge fold with no lambda' at the parent end",
        "indices.py",
        "t_in[px] += ta + lp",
        "t_in[px] += ta",
        [
            "tests/test_indices.py::test_generic_sums_sweep_no_bridge",
            "tests/test_indices.py::test_one_tree_build_per_graph_across_theta_star_and_both_routes",
        ],
    ),
    (
        "bridge fold of the wrong side onto the parent end",
        "indices.py",
        "w_in[px] += wa",
        "w_in[px] += wb",
        [
            "tests/test_indices.py::test_generic_sums_sweep_no_bridge",
            "tests/test_indices.py::test_bipartite_identity_with_first_zagreb",
        ],
    ),
    (
        "bridge finder reads a fold of bit 0 alone as uncrossed",
        "graph.py",
        "            if fold[x]:\n",
        "            if fold[x] > 1:\n",
        [
            "tests/test_acceptance.py::test_criterion_3_cut_equals_direct",
            "tests/test_indices.py::test_bipartite_identity_with_first_zagreb",
        ],
    ),
    (
        "sweep orients its sides without the parity term",
        "graph.py",
        "nv = x & (two[u] ^ two[v] ^ odd[u])",
        "nv = x & (two[u] ^ two[v])",
        [
            "tests/test_graph.py::test_sweep_matches_bfs_distances",
            "tests/test_indices.py::test_suite_direct_c6",
        ],
    ),
    (
        # confuses d = 0 with d = 2 (mod 4), so only distances of 4 and more
        # can kill it
        "sweep fills the bit-1 plane at every even round",
        "graph.py",
        "        elif r & 3 == 2:\n",
        "        elif r & 1 == 0:\n",
        [
            "tests/test_graph.py::test_sweep_matches_bfs_distances",
            "tests/test_periodic_chains.py::test_linear_chains_follow_one_cubic[phenylene]",
        ],
    ),
    (
        "bridges not flagged two-sided",
        "theta.py",
        "sided = [True] * g.m",
        "sided = [False] * g.m",
        [
            "tests/test_theta.py::test_every_bridge_is_two_sided",
            "tests/test_theta.py::test_trees_take_no_sweep",
        ],
    ),
    (
        "the bridge split leaves a piece's labels unmapped",
        "theta.py",
        "labels[e] = ids[r]",
        "labels[e] = r",
        [
            "tests/test_theta.py::test_a_bridged_graph_builds_and_certifies_one_partition",
            "tests/test_theta.py::test_bridged_graphs_match_the_oracle_and_the_pass",
        ],
    ),
    (
        "edge walk without its repeat test",
        "graph.py",
        "        if key in seen:\n"
        '            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")\n',
        "",
        [
            "tests/test_graph.py::test_build_rejects_duplicate_even_reversed",
            "tests/test_graph.py::test_graph_matches_the_per_edge_constructor",
        ],
    ),
    (
        "recognizer joins only two of a hexagon's three pairs of opposite sides",
        "molgen.py",
        "        for k in range(3):\n",
        "        for k in range(2):\n",
        [
            "tests/test_theta.py::test_only_theta_star_sets_two_sided_flags",
            "tests/test_theta.py::test_theta_star_matches_oracle_on_patch_and_molecule",
        ],
    ),
    (
        "Theta* pass leaves a row's other tree edges unlinked",
        "theta.py",
        "                    parent[r] = root\n",
        "",
        [
            "tests/test_theta.py::test_fullerene_patch_has_five_two_sided_classes",
            "tests/test_theta.py::test_odd_cycles_collapse_to_one_class",
        ],
    ),
    (
        "_clean_cuts accepts a partition that splits a Theta*-class",
        "theta.py",
        "== len(star) else None",
        ">= len(star) else None",
        [
            "tests/test_theta.py::test_validate_rejects_split_class",
            "tests/test_theta.py::test_validate_agrees_with_oracle",
        ],
    ),
    (
        "_bit_planes reads the masses in reverse",
        "indices.py",
        '"".join(map(format, masses[::-1], ',
        '"".join(map(format, masses, ',
        [
            "tests/test_indices.py::test_bit_planes_match_a_bit_by_bit_reference",
            "tests/test_indices.py::test_suite_direct_c6",
        ],
    ),
    (
        "_bit_planes slices each plane one digit late",
        "indices.py",
        "rows[j::width]",
        "rows[j + 1::width]",
        [
            "tests/test_indices.py::test_bit_planes_match_a_bit_by_bit_reference",
            "tests/test_indices.py::test_small_graphs_with_ties",
        ],
    ),
    (
        "the fifth column drops the vertex masses from the u side",
        "indices.py",
        "map(mul, map(add, n_u, t_u), map(add, n_v, t_v))",
        "map(mul, t_u, map(add, n_v, t_v))",
        [
            "tests/test_indices.py::test_total_szeged_after_the_cut_kinds_runs_no_evaluation",
            "tests/test_indices.py::test_small_graphs_with_ties",
        ],
    ),
    (
        "edge-Szeged unscaled by d^2, not d^3, after _integral's scaling",
        "indices.py",
        "zip(totals, (3, 2, 3, 2, 3))",
        "zip(totals, (3, 2, 2, 2, 3))",
        [
            "tests/test_indices.py::test_general_cut_fraction_weights",
            "tests/test_indices.py::test_four_cut_kinds_share_one_evaluation",
        ],
    ),
    (
        "total Szeged unscaled by d^2, not d^3, after _integral's scaling",
        "indices.py",
        "zip(totals, (3, 2, 3, 2, 3))",
        "zip(totals, (3, 2, 3, 2, 2))",
        [
            "tests/test_indices.py::test_total_szeged_after_the_cut_kinds_runs_no_evaluation",
            "tests/test_indices.py::test_weighted_index_matches_oracle_across_bridges",
        ],
    ),
    (
        "the direct route reads a cut entry whose partition no edge list certifies",
        "indices.py",
        "if q is p or (p is None and q._certified_on is g.edges):",
        "if q is p or p is None:",
        [
            "tests/test_indices.py::test_a_keyword_trusted_partition_is_never_read_by_the_direct_route",
            "tests/test_indices.py::test_threads_mixing_the_routes_on_the_memo_get_the_direct_totals",
        ],
    ),
    (
        "the entry is read for another WeightAssignment",
        "indices.py",
        "if last is not None and last[0] is wa:",
        "if last is not None:",
        [
            "tests/test_indices.py::test_alternating_weight_assignments_match_oracle",
            "tests/test_indices.py::test_new_but_equal_objects_evaluate_again",
        ],
    ),
    (
        "from_labels files edge 1 under the last class",
        "theta.py",
        "            members[c].append(e)\n",
        "            members[-1 if e == 1 else c].append(e)\n",
        [
            "tests/test_theta.py::test_even_cycles_have_k_opposite_pairs",
            "tests/test_theta.py::test_every_bridge_is_two_sided",
        ],
    ),
    (
        "_bfs_tree keeps the tree of a disconnected graph",
        "graph.py",
        "        if len(order) < g.n:\n"
        '            raise DisconnectedError("graph is not connected")\n'
        "        g._tree = order, parent, parent_edge\n",
        "        g._tree = order, parent, parent_edge\n"
        "        if len(order) < g.n:\n"
        '            raise DisconnectedError("graph is not connected")\n',
        [
            "tests/test_graph.py::test_a_disconnected_graph_raises_on_every_call",
        ],
    ),
    (
        "the oracle sums skip the connectivity check",
        "oracle.py",
        "    bfs_distances(g, 0)  # raises on a disconnected graph, even one with no edge\n",
        "",
        [
            "tests/test_oracle.py::test_oracle_rejects_disconnected",
        ],
    ),
    (
        "direction_partition trusts without the builders' mark",
        "molgen.py",
        "if self._hole_free else p",
        "if not self.nonstandard_region else p",
        [
            "tests/test_molgen.py::test_a_copy_of_builder_output_is_validated",
            "tests/test_molgen.py::test_only_the_builders_certify_direction_labels",
        ],
    ),
]


def _pytest(src: Path, work: Path, tests: list[str], *flags: str) -> tuple[int | None, float]:
    """Return code (None on timeout) and wall time of pytest on `tests`,
    importing the package from `src`. The run starts in `work`, so that
    hypothesis keeps the examples it finds there, not in the repository."""
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-c", str(REPO / "pyproject.toml"), "--rootdir", str(REPO),
        # the ini's `pythonpath = src` would put the repository's own package first
        "-o", f"pythonpath={src}",
        *flags, *(str(REPO / t) for t in tests),
    ]
    # no bytecode: a mutant of the same size written within the same second
    # as the original would otherwise load the original's cached code
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    return done.returncode, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="szegedcut-mutants-") as tmp:
        work = Path(tmp)
        src = work / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        package = src / "szegedcut"
        originals = {module: (package / module).read_text() for _, module, *_ in MUTANTS}
        for name, module, anchor, _, _ in MUTANTS:
            found = originals[module].count(anchor)
            if found != 1:
                print(f"anchor of mutant {name!r} found {found} times in {module}: restate the mutant")
                return 1
        union = sorted({t for *_, tests in MUTANTS for t in tests})
        code, took = _pytest(src, work, union)
        print(f"unmutated copy: exit {code} in {took:.1f} s on {len(union)} named tests")
        if code != 0:
            print("the named tests must pass on the unmutated copy")
            return 1
        survivors = []
        for name, module, anchor, replacement, tests in MUTANTS:
            (package / module).write_text(originals[module].replace(anchor, replacement))
            try:
                code, took = _pytest(src, work, tests, "-x")
            finally:
                (package / module).write_text(originals[module])
            killed = code == 1  # 1: some test failed; a timeout or usage error kills nothing
            print(f"{'killed' if killed else 'SURVIVED'}: {name} (exit {code} in {took:.1f} s)")
            if not killed:
                survivors.append(name)
        if survivors:
            print(f"{len(survivors)} of {len(MUTANTS)} mutants survived")
            return 1
        print(f"all {len(MUTANTS)} mutants killed")
        return 0


if __name__ == "__main__":
    sys.exit(main())
