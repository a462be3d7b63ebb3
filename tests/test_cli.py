import hashlib
import io
import json
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import szegedcut
from szegedcut import (
    DisconnectedError,
    EdgePartition,
    WeightAssignment,
    build_graph,
    format_edge_list,
    linear_phenylene,
    oracle_suite,
    parse_edge_list,
    quotient_graph,
    theta_star_partition,
)
from szegedcut.cli import _build_parser, main

from conftest import (
    RING_CELLS,
    WIDE_RING_CELLS,
    cycle_graph,
    cyclic_weighted_graphs,
    fullerene_patch,
    path_graph,
    pendant_weighted_graphs,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def ph2_file(tmp_path):
    return _write(tmp_path, "ph2.edges", format_edge_list(linear_phenylene(2).graph))


def test_gen_ph_writes_edge_list_and_sidecar(capsys, tmp_path):
    labels = tmp_path / "ph2.labels"
    code, out, _ = run_cli(capsys, "gen", "ph", "2", "--labels", str(labels))
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 12 and g.m == 14
    lines = labels.read_text().splitlines()
    assert len(lines) == 14
    assert not any(line.startswith("#") for line in lines)
    assert sorted(int(line.split()[0]) for line in lines) == list(range(14))
    assert sum(1 for line in lines if line.split()[1] == "4") == 2


def test_index_direct_json(capsys, ph2_file):
    code, out, _ = run_cli(capsys, "index", ph2_file, "--method", "direct")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "direct"
    assert data["wSz"] == "2124"
    assert data["wPI_v"] == "816"
    assert data["wSz_e"] == "1652"
    assert data["wPI"] == "776"


def test_index_cut_text_format(capsys, ph2_file):
    code, out, _ = run_cli(
        capsys, "index", ph2_file, "--method", "cut", "--format", "text"
    )
    assert code == 0
    assert "wSz: 2124" in out
    assert "method: cut" in out


def test_index_text_report_is_pinned(capsys, ph2_file):
    # the header, the four totals and one line per Theta*-class of PH2
    code, out, _ = run_cli(capsys, "index", ph2_file, "--format", "text")
    assert code == 0
    assert out == (
        "method: cut\n"
        "starred: false\n"
        "wSz: 2124\n"
        "wPI_v: 816\n"
        "wSz_e: 1652\n"
        "wPI: 776\n"
        "class 0: wSz=243 wPI_v=108 wSz_e=180 wPI=108\n"
        "class 1: wSz=243 wPI_v=108 wSz_e=180 wPI=108\n"
        "class 2: wSz=720 wPI_v=240 wSz_e=500 wPI=200\n"
        "class 3: wSz=243 wPI_v=108 wSz_e=180 wPI=108\n"
        "class 4: wSz=243 wPI_v=108 wSz_e=180 wPI=108\n"
        "class 5: wSz=432 wPI_v=144 wSz_e=432 wPI=144\n"
    )


def test_index_compare_ok(capsys, ph2_file):
    code, out, _ = run_cli(capsys, "index", ph2_file, "--method", "compare")
    assert code == 0
    assert json.loads(out)["wSz"] == "2124"


def test_index_starred(capsys, ph2_file):
    code, out, _ = run_cli(
        capsys, "index", ph2_file, "--method", "compare", "--starred"
    )
    assert code == 0
    assert json.loads(out)["starred"] is True


def test_output_is_deterministic(capsys, ph2_file):
    _, out1, _ = run_cli(capsys, "index", ph2_file, "--method", "cut")
    _, out2, _ = run_cli(capsys, "index", ph2_file, "--method", "cut")
    assert out1 == out2


def test_disconnected_input_exit_code(capsys, tmp_path):
    path = _write(tmp_path, "two.edges", "4 2\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, "index", path, "--method", "direct")
    assert code == 3
    assert "disconnected" in err.lower()


def test_malformed_input_exit_code(capsys, tmp_path):
    path = _write(tmp_path, "bad.edges", "not an edge list\n")
    code, _, err = run_cli(capsys, "index", path)
    assert code == 2
    assert "parse error" in err.lower()


@pytest.mark.parametrize("text", ["0 0\n", "-1 0\n"])
def test_empty_graph_header_exit_code(capsys, tmp_path, text):
    path = _write(tmp_path, "empty.edges", text)
    code, _, err = run_cli(capsys, "index", path)
    assert code == 2
    assert "parse error" in err.lower()


def test_missing_file_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "index", "/nonexistent/input.edges")
    assert code == 2
    monkeypatch.setattr(sys, "stdin", None)   # run with stdin closed (<&-)
    code, _, err = run_cli(capsys, "index", "-")
    assert code == 2


def test_partition_file_valid(capsys, tmp_path):
    c6 = cycle_graph(6)
    gpath = _write(tmp_path, "c6.edges", format_edge_list(c6))
    # opposite pairs, written as edge_id class_id
    ppath = _write(
        tmp_path, "c6.part", "0 0\n3 0\n1 1\n4 1\n2 2\n5 2\n"
    )
    code, out, _ = run_cli(
        capsys, "index", gpath, "--method", "cut",
        "--partition-file", ppath,
    )
    assert code == 0
    assert json.loads(out)["wSz"] == "216"


def test_partition_file_splitting_a_class_is_rejected(capsys, tmp_path):
    c6 = cycle_graph(6)
    gpath = _write(tmp_path, "c6.edges", format_edge_list(c6))
    ppath = _write(
        tmp_path, "c6.part", "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n"
    )
    code, _, err = run_cli(
        capsys, "index", gpath, "--method", "cut",
        "--partition-file", ppath,
    )
    assert code == 4
    assert "partition" in err.lower()


@pytest.mark.parametrize("ids", [
    [0, 1, 2, 3, 4, -1],      # -1 indexed unchecked would fill the last slot
    [0, 1, 2, 3, 4, 5, 6],    # edge id m
    [0, 1, 2, 3, 4, 4],       # a repeat, leaving edge 5 out
    [0, 1, 2, 3, 4, 5, 5],    # a repeat of an id already named
])
def test_partition_file_with_bad_edge_ids_exits_2(capsys, tmp_path, ids):
    # one class is a c-partition, so only the ids can make these fail
    gpath = _write(tmp_path, "c6.edges", format_edge_list(cycle_graph(6)))
    ppath = _write(tmp_path, "c6.part", "".join(f"{e} 0\n" for e in ids))
    code, out, err = run_cli(capsys, "index", gpath, "--partition-file", ppath)
    assert code == 2
    assert out == ""
    assert "parse error" in err


def _bogus_c6_sidecar(tmp_path):
    # one edge against the other five: not a union of Theta*-classes
    gpath = _write(tmp_path, "c6.edges", format_edge_list(cycle_graph(6)))
    return gpath, _write(tmp_path, "c6.labels", "0 0\n1 1\n2 1\n3 1\n4 1\n5 1\n")


def test_compare_mismatch_with_bogus_labels(capsys, tmp_path):
    # every partition file is validated, so compare never sees this one
    gpath, lpath = _bogus_c6_sidecar(tmp_path)
    code, out, err = run_cli(
        capsys, "index", gpath, "--method", "compare", "--partition-file", lpath
    )
    assert code == 4
    assert out == ""
    assert "invalid partition" in err


def test_bogus_sidecar_is_validated_and_rejected(capsys, tmp_path):
    # trusted as it stood, this sidecar gave wSz 112 instead of 216
    gpath, lpath = _bogus_c6_sidecar(tmp_path)
    code, out, err = run_cli(
        capsys, "index", gpath, "--method", "cut", "--partition-file", lpath
    )
    assert code == 4
    assert out == ""
    assert "invalid partition" in err


def test_compare_mismatch_exits_1(capsys, monkeypatch, ph2_file):
    # an oracle that disagrees stands in for a cut route gone wrong
    monkeypatch.setattr(
        "szegedcut.cli.oracle_suite",
        lambda g, starred=False: oracle_suite(cycle_graph(6), starred=starred),
    )
    code, out, err = run_cli(capsys, "index", ph2_file, "--method", "compare")
    assert code == 1
    assert out == ""          # no report on mismatch
    assert "mismatch" in err


def _gen_ph_with_labels(capsys, tmp_path, n):
    labels = tmp_path / f"ph{n}.labels"
    code, out, _ = run_cli(capsys, "gen", "ph", str(n), "--labels", str(labels))
    assert code == 0
    return _write(tmp_path, f"ph{n}.edges", out), labels


def _spy_on_validation(monkeypatch):
    calls = []
    real = szegedcut.theta._clean_cuts

    def spy(g, p):
        calls.append(g.m)
        return real(g, p)

    monkeypatch.setattr("szegedcut.theta._clean_cuts", spy)
    return calls


# a split of C6 behind the `# sha256` line of its own n, edges and classes
_FORGED_C6 = (
    "# sha256 6ac13ef968f120e5a828e1fb51cd5b77a3d3d703613402892e9698f093c57bf4\n"
    "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n"
)


@pytest.mark.parametrize("command", ["index", "quotient"])
def test_forged_digest_line_is_validated_and_rejected(capsys, tmp_path, command):
    # trusted for its first line, this file gave (72, 96, 72, 96) instead
    # of (216, 144, 96, 96)
    gpath = _write(tmp_path, "c6.edges", format_edge_list(cycle_graph(6)))
    ppath = _write(tmp_path, "c6.forged", _FORGED_C6)
    code, out, err = run_cli(capsys, command, gpath, "--partition-file", ppath)
    assert code == 4
    assert out == ""
    assert "invalid partition" in err


def _sha256_line(g, labels):
    """A `# sha256` comment over n, the edges and the classes numbered by
    first appearance, packed as little-endian int64, as old sidecars began."""
    ids = {}
    class_of = [ids.setdefault(c, len(ids)) for c in labels]
    values = (g.n, *(v for e in g.edges for v in e), *class_of)
    packed = struct.pack(f"<{len(values)}q", *values)
    return f"# sha256 {hashlib.sha256(packed).hexdigest()}"


def test_relabelled_sidecar_with_recomputed_sha256_line_is_rejected(capsys, tmp_path):
    # trusted for its first line, this file gave (6469, 1815, 6848, 1974)
    # instead of (7560, 2016, 7360, 2112)
    gpath, labels = _gen_ph_with_labels(capsys, tmp_path, 3)
    g = parse_edge_list(Path(gpath).read_text())
    lines = [line for line in labels.read_text().splitlines() if not line.startswith("#")]
    eid, label = lines[0].split()
    lines[0] = f"{eid} {1 + int(label) % 3}"   # another hexagon direction
    header = _sha256_line(g, [int(line.split()[1]) for line in lines])
    labels.write_text("\n".join([header, *lines]) + "\n")
    code, out, err = run_cli(capsys, "index", gpath, "--partition-file", str(labels))
    assert code == 4
    assert out == ""
    assert "invalid partition" in err


def test_direct_method_rejects_a_partition_file(capsys, tmp_path):
    # the direct route reads no partition, so the option is refused before
    # any file is read: a missing path and a valid sidecar both exit 2
    gpath, labels = _gen_ph_with_labels(capsys, tmp_path, 3)
    for path in (str(tmp_path / "missing.labels"), str(labels)):
        code, out, err = run_cli(
            capsys, "index", gpath, "--method", "direct", "--partition-file", path
        )
        assert code == 2
        assert out == ""
        assert "--method cut" in err and "compare" in err


def test_edited_sidecar_is_validated_and_rejected(capsys, monkeypatch, tmp_path):
    gpath, labels = _gen_ph_with_labels(capsys, tmp_path, 3)
    first, *rest = labels.read_text().splitlines()
    eid, label = first.split()
    assert eid == "0"
    flipped = f"{eid} {1 + int(label) % 3}"   # another hexagon direction
    labels.write_text("\n".join([flipped, *rest]) + "\n")
    calls = _spy_on_validation(monkeypatch)
    code, out, err = run_cli(capsys, "index", gpath, "--partition-file", str(labels))
    assert code == 4
    assert out == ""
    assert "invalid partition" in err
    assert calls == [parse_edge_list(Path(gpath).read_text()).m]


def test_quotient_validates_a_file_without_digest_once(capsys, monkeypatch, tmp_path):
    gpath = _write(tmp_path, "c6.edges", format_edge_list(cycle_graph(6)))
    # the Theta*-classes of C6, opposite pairs, then a split of all three
    classes = _write(tmp_path, "c6.theta", "0 0\n1 1\n2 2\n3 0\n4 1\n5 2\n")
    split = _write(tmp_path, "c6.part", "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
    calls = _spy_on_validation(monkeypatch)
    code, out, _ = run_cli(capsys, "quotient", gpath, "--partition-file", classes)
    assert code == 0
    assert calls == [6]
    assert out.count("# class") == 3
    code, out, err = run_cli(capsys, "quotient", gpath, "--partition-file", split)
    assert code == 4
    assert out == ""
    assert err.startswith("invalid partition:")
    assert calls == [6, 6]


def _suite(out):
    data = json.loads(out)
    return tuple(int(data[k]) for k in ("wSz", "wPI_v", "wSz_e", "wPI"))


def _printed_suite(out, fmt):
    if fmt == "json":
        return _suite(out)
    values = dict(line.split(": ") for line in out.splitlines() if line.startswith("w"))
    return tuple(int(values[k]) for k in ("wSz", "wPI_v", "wSz_e", "wPI"))


def test_every_sidecar_is_validated_once_per_command(capsys, monkeypatch, tmp_path):
    gpath, labels = _gen_ph_with_labels(capsys, tmp_path, 4)
    g = parse_edge_list(Path(gpath).read_text())
    m = g.m
    calls = _spy_on_validation(monkeypatch)
    code, out, _ = run_cli(capsys, "index", gpath, "--partition-file", str(labels))
    assert code == 0
    assert calls == [m]
    assert _suite(out) == oracle_suite(g).as_tuple()
    code, out, _ = run_cli(capsys, "quotient", gpath, "--partition-file", str(labels))
    assert code == 0
    assert calls == [m, m]
    assert out.count("# class") == 4
    # the same edges listed backwards, with the sidecar renumbered to match
    rpath = _write(tmp_path, "reversed.edges", format_edge_list(
        build_graph(g.n, reversed(g.edges))
    ))
    lines = labels.read_text().splitlines()
    renumbered = [f"{m - 1 - int(e)} {label}" for e, label in map(str.split, lines)]
    labels.write_text("\n".join(renumbered) + "\n")
    code, out, _ = run_cli(capsys, "index", rpath, "--partition-file", str(labels))
    assert code == 0
    assert calls == [m, m, m]
    assert _suite(out) == oracle_suite(g).as_tuple()


def _gen_with_labels(capsys, tmp_path, cells):
    spec = _write(tmp_path, "region.hex", "".join(f"{q} {r}\n" for q, r in sorted(cells)))
    labels = str(tmp_path / "region.labels")
    code, out, _ = run_cli(capsys, "gen", "benzenoid", spec, "--labels", labels)
    assert code == 0
    return _write(tmp_path, "region.edges", out), labels


@pytest.mark.parametrize("cells, holed", [
    (frozenset([(0, 0), (1, 0)]), False),
    (RING_CELLS, True),
    (WIDE_RING_CELLS, True),
], ids=["pair", "ring", "wide-ring"])
def test_holed_region_is_marked_in_the_edge_list(capsys, tmp_path, cells, holed):
    gpath, labels = _gen_with_labels(capsys, tmp_path, cells)
    marked = "# nonstandard_region: cell set encloses holes\n"
    assert (marked in Path(gpath).read_text()) == holed
    assert not any(line.startswith("#") for line in Path(labels).read_text().splitlines())


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_generated_output_is_pinned(capsys, tmp_path):
    # sidecar labels name edges by id, so the edge order must not move silently
    gpath, labels = _gen_ph_with_labels(capsys, tmp_path, 50)
    assert _sha256(gpath) == "fcb6ae61e263a4932426e3807b6ae20364db2a5c8fa2ebfd34b5aef6540d22bc"
    assert _sha256(labels) == "9bd1bb132751816bbe6421f9d256efc856518209b2c464b7e3a5cafe4b9f6b1f"
    gpath, labels = _gen_with_labels(capsys, tmp_path, frozenset([(0, 0), (1, 0), (0, 1)]))
    assert _sha256(gpath) == "eaf68d4445b5ed50fe3c349adee4efa018255287fd2cfd3b054cab9e990da642"
    assert _sha256(labels) == "bf072f93c9802a73f90f8b827b15d81456e6db58634878f477573e7431b2f2e7"


@pytest.mark.parametrize("command", ["index", "quotient"])
def test_wide_ring_labels_are_validated_and_rejected(capsys, tmp_path, command):
    # the direction labels of this holed region split a Theta*-class
    gpath, labels = _gen_with_labels(capsys, tmp_path, WIDE_RING_CELLS)
    code, out, err = run_cli(
        capsys, command, gpath, "--partition-file", labels
    )
    assert code == 4
    assert out == ""
    assert "invalid partition" in err


def test_ring_labels_are_validated_and_match_the_oracle(capsys, tmp_path):
    gpath, labels = _gen_with_labels(capsys, tmp_path, RING_CELLS)
    code, out, _ = run_cli(capsys, "index", gpath, "--partition-file", labels)
    assert code == 0
    expected = oracle_suite(parse_edge_list(Path(gpath).read_text())).as_tuple()
    assert _suite(out) == expected


def test_threads_option_is_gone(capsys, ph2_file):
    with pytest.raises(SystemExit) as info:
        main(["index", ph2_file, "--threads", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("option", [["--partition", "labels"], ["--labels-file", "x"]])
def test_partition_mode_options_are_gone(capsys, ph2_file, option):
    with pytest.raises(SystemExit) as info:
        main(["index", ph2_file, *option])
    assert info.value.code == 2


def test_theta_output(capsys, tmp_path):
    gpath = _write(tmp_path, "c6.edges", format_edge_list(cycle_graph(6)))
    code, out, _ = run_cli(capsys, "theta", gpath)
    assert code == 0
    assert out.splitlines() == ["0-1 3-4", "1-2 4-5", "2-3 5-0"]


def test_quotient_output(capsys, tmp_path):
    gpath = _write(tmp_path, "c6.edges", format_edge_list(cycle_graph(6)))
    code, out, _ = run_cli(capsys, "quotient", gpath)
    assert code == 0
    blocks = [line for line in out.splitlines() if line.startswith("# class")]
    assert len(blocks) == 3
    # each opposite-pair quotient is a K2 with weights 3/2 and edge 2/8
    assert out.count("3 2") == 6
    assert out.count("0 1 2 8") == 3


def _quotient_blocks(g, p, starred):
    """The lines `quotient` prints for the classes of p, from one
    `quotient_graph` per class."""
    wa = WeightAssignment.degree_weighted(g, starred=starred)
    lines = []
    for idx, members in enumerate(p.classes):
        q = quotient_graph(g, wa, members)
        lines.append(f"# class {idx}: {q.graph.n} components, {q.graph.m} quotient edges")
        lines.append(f"{q.graph.n} {q.graph.m}")
        lines += [f"{w} {lam}" for w, lam in zip(q.w, q.lam)]
        lines += [f"{a} {b} {lp} {wp}" for (a, b), lp, wp in zip(q.graph.edges, q.lambda_prime, q.w_prime)]
    return lines


QUOTIENT_GRAPHS = {
    "C6": lambda: cycle_graph(6),
    "PH3": lambda: linear_phenylene(3).graph,
    # the triangle builds its quotient, the two bridges are clean cuts
    "triangle with a tail": lambda: build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),
    # vertex 0 is a leaf, and the tree edges are listed out of BFS order
    "small tree": lambda: build_graph(7, [(5, 6), (3, 1), (1, 4), (0, 3), (4, 2), (3, 5)]),
}


@pytest.mark.parametrize("starred", [False, True], ids=["plain", "starred"])
@pytest.mark.parametrize("name", QUOTIENT_GRAPHS)
def test_quotient_prints_two_sided_classes_as_their_quotient_graphs(capsys, tmp_path, name, starred):
    # a class that Theta* flags as two-sided is read from one pass over G,
    # and its block must be the one its `quotient_graph` gives
    g = QUOTIENT_GRAPHS[name]()
    star = theta_star_partition(g)
    assert any(star.two_sided)
    gpath = _write(tmp_path, "g.edges", format_edge_list(g))
    code, out, _ = run_cli(capsys, "quotient", gpath, *["--starred"] * starred)
    assert code == 0
    assert out.splitlines() == _quotient_blocks(g, star, starred)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.booleans().flatmap(cyclic_weighted_graphs), pendant_weighted_graphs()),
    st.integers(0, 2**32),
)
@example((QUOTIENT_GRAPHS["triangle with a tail"](), None), 7)  # the far bridge joins the triangle
def test_quotient_prints_coarsened_classes_as_their_quotient_graphs(tmp_path_factory, graph_and_weights, seed):
    # a file that deals the Theta*-classes into random groups makes classes
    # that hold clean cuts and a rest: only a class that is one clean cut is
    # printed from the pass over G, any other from its whole quotient
    g, _ = graph_and_weights
    star = theta_star_partition(g)
    rng = random.Random(seed)
    k = rng.randint(1, len(star))
    group = [rng.randrange(k) for _ in star.classes]
    p = EdgePartition.from_labels(group[c] for c in star.class_of)
    tmp = tmp_path_factory.getbasetemp() / "cli-coarsening"
    tmp.mkdir(exist_ok=True)
    gpath, ppath = tmp / "g.edges", tmp / "p.part"
    gpath.write_text(format_edge_list(g))
    ppath.write_text("".join(f"{e} {c}\n" for e, c in enumerate(p.class_of)))
    for starred in (False, True):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["quotient", str(gpath), "--partition-file", str(ppath), *["--starred"] * starred])
        assert code == 0
        assert out.getvalue().splitlines() == _quotient_blocks(g, p, starred)


def test_quotient_on_a_path_builds_no_quotient(capsys, monkeypatch, tmp_path):
    # every edge of a tree is a two-sided class of its own, so the Theta*
    # route prints all of them from one pass over G, in linear time
    g = path_graph(200)
    expected = _quotient_blocks(g, theta_star_partition(g), False)
    gpath = _write(tmp_path, "path.edges", format_edge_list(g))

    def refuse(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr("szegedcut.cli.quotient_graph", refuse)
    code, out, _ = run_cli(capsys, "quotient", gpath)
    assert code == 0
    assert out.splitlines() == expected
    assert out.count("# class") == 199


@pytest.mark.parametrize("command", ["quotient", "index"])
def test_a_file_of_bridges_builds_no_quotient(capsys, monkeypatch, tmp_path, command):
    # a validated file once had every class build its quotient: a file of
    # P3000's bridges took 3.1 s against 0.16 s with no file (2-core VM)
    g = path_graph(300)
    gpath = _write(tmp_path, "path.edges", format_edge_list(g))
    bridges = _write(tmp_path, "path.bridges", "".join(f"{e} {e}\n" for e in range(g.m)))
    code, expected, _ = run_cli(capsys, command, gpath)
    assert code == 0

    def refuse(*args):
        raise AssertionError("quotient built")

    monkeypatch.setattr("szegedcut.cli.quotient_graph", refuse)
    monkeypatch.setattr("szegedcut.indices.quotient_graph", refuse)
    code, out, _ = run_cli(capsys, command, gpath, "--partition-file", bridges)
    assert code == 0
    assert out == expected


def test_gen_benzenoid_from_spec_with_hole_tag(capsys, tmp_path):
    spec = _write(
        tmp_path, "ring.hex", "1 0\n0 1\n-1 1\n-1 0\n0 -1\n1 -1\n"
    )
    code, out, _ = run_cli(capsys, "gen", "benzenoid", spec)
    assert code == 0
    assert "nonstandard_region" in out
    g = parse_edge_list(out)
    assert g.n == 24   # six hexagons around a hole share twelve corners


def test_gen_phenylene_from_spec(capsys, tmp_path):
    spec = _write(tmp_path, "chain.hex", "0 0\n1 0\n2 0\n")
    code, out, _ = run_cli(capsys, "gen", "phenylene", spec)
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, g.m) == (18, 22)


def test_gen_rejects_bad_spec(capsys, tmp_path):
    spec = _write(tmp_path, "tri.hex", "0 0\n1 0\n0 1\n")
    code, _, err = run_cli(capsys, "gen", "phenylene", spec)
    assert code == 5
    assert "corner" in err


def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "2,3", "--reps", "1", "--direct-max", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,cells,vertices,edges,method,seconds"
    assert len(lines) == 5   # 2 sizes x (cut + direct)
    assert lines[1].startswith("ph,2,12,14,cut,")


def test_bench_times_no_adjacency_build(capsys, monkeypatch):
    # the adjacency is built on first read; bench builds it before the
    # timed reps, so the first rep of a route does not pay for it
    built = []

    def spy(route):
        def timed_route(g, *args):
            built.append(g._adj is not None)
            return route(g, *args)
        return timed_route

    for name in ("weighted_suite_cut", "weighted_suite_direct"):
        monkeypatch.setattr(f"szegedcut.cli.{name}", spy(getattr(szegedcut, name)))
    code, _, _ = run_cli(capsys, "bench", "--sizes", "2,3", "--reps", "2")
    assert code == 0
    assert built == [True] * 8


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_bench_rejects_reps_below_one(capsys, reps):
    code, out, err = run_cli(capsys, "bench", "--sizes", "2", "--reps", reps)
    assert code == 2
    assert out == ""
    assert "--reps" in err


@pytest.mark.parametrize("size", ["1", "-3"])
def test_bench_rejects_phenylenes_below_two_cells(capsys, size):
    # same exit code as `gen ph 1`
    code, _, err = run_cli(capsys, "bench", "--sizes", size, "--reps", "1")
    assert code == 5
    assert "n >= 2" in err
    assert run_cli(capsys, "gen", "ph", size)[0] == 5


def test_direct_route_is_the_library_engine(capsys, monkeypatch, ph2_file):
    # the oracle stays behind --method compare only
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr("szegedcut.cli.oracle_suite", no_oracle)
    code, out, _ = run_cli(capsys, "index", ph2_file, "--method", "direct")
    assert code == 0
    assert json.loads(out)["wSz"] == str(oracle_suite(linear_phenylene(2).graph).w_sz)
    code, out, _ = run_cli(capsys, "bench", "--sizes", "2", "--reps", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("ph,2,12,14,direct,")


def test_full_pipeline_on_patch(capsys, tmp_path):
    gpath = _write(tmp_path, "patch.edges", format_edge_list(fullerene_patch()))
    code, out, _ = run_cli(capsys, "index", gpath, "--method", "compare")
    assert code == 0
    data = json.loads(out)
    assert data["wSz"] == "9200" and data["wPI"] == "2760"


def test_non_utf8_file_exit_code(capsys, tmp_path):
    path = tmp_path / "latin1.edges"
    path.write_bytes(b"2 1\n0 1  # caf\xe9\n")
    code, out, err = run_cli(capsys, "index", str(path))
    assert code == 2
    assert out == ""
    assert "parse error" in err.lower()


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_stdin_is_decoded_like_a_file(capsys, monkeypatch, ph2_file, errors):
    # a UTF-8 locale reads stdin strictly, Python's UTF-8 mode with
    # surrogateescape; either way a bad byte is a parse error, as in a file
    def feed(data: bytes):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)

    feed(b"# \xff\n2 1\n0 1\n")
    code, out, err = run_cli(capsys, "index", "-", "--method", "direct")
    assert code == 2
    assert out == ""
    assert "parse error" in err.lower()
    feed(Path(ph2_file).read_bytes())
    from_stdin = run_cli(capsys, "index", "-", "--method", "direct")
    assert from_stdin == run_cli(capsys, "index", ph2_file, "--method", "direct")
    assert from_stdin[0] == 0


def test_unwritable_labels_path_exit_code(capsys, tmp_path):
    labels = tmp_path / "no-such-dir" / "ph3.labels"
    code, out, err = run_cli(capsys, "gen", "ph", "3", "--labels", str(labels))
    assert code == 2
    assert out == ""          # the edge list is not printed either
    assert "no-such-dir" in err


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # a star with 2000 edges has 2000 per-class rows, far more output than
    # a pipe buffer holds, so the CLI meets the closed pipe while writing
    star = build_graph(2001, [(0, v) for v in range(1, 2001)])
    gpath = _write(tmp_path, "star.edges", format_edge_list(star))
    src = str(Path(szegedcut.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.Popen(
        [sys.executable, "-m", "szegedcut.cli", "index", gpath],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"   # like `| head -1`
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# ---------------------------------------------------------------------------
# bounded parse memory and the exit-code contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["index", "theta", "quotient"])
def test_header_with_too_few_edges_exits_3_in_small_memory(capsys, tmp_path, command):
    # 2000000 vertices and one edge cannot be connected; the check runs
    # before a graph of that size is allocated
    path = _write(tmp_path, "huge.edges", "2000000 1\n0 1\n")
    tracemalloc.start()
    try:
        code = main([command, path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, err = capsys.readouterr()
    assert code == 3
    assert "disconnected" in err.lower()
    assert peak < 1_000_000, f"peak {peak} bytes"


def test_parse_edge_list_connected_check():
    # a connected graph has at least n - 1 edges, so no graph is built
    with pytest.raises(DisconnectedError):
        parse_edge_list("5 2\n0 1\n1 2\n")
    assert parse_edge_list("3 2\n0 1\n1 2\n").m == 2
    assert parse_edge_list("1 0\n").n == 1


# a line that breaks the format: free text, or two tokens that are not
# both plain integers in range
_TOKEN = st.sampled_from(["x", "1.5", "0x1", "-1", "99999", "\u0663"])
_BENT_LINE = st.one_of(
    st.text(max_size=6), *[st.tuples(_TOKEN, _TOKEN).map(" ".join)] * 2
)


def _rarely(draw) -> bool:
    return draw(st.booleans()) and draw(st.booleans())


@st.composite
def _edge_list_text(draw):
    """A small edge list and its edge count. Either an even cycle, whose
    Theta*-classes are its opposite pairs, so most partitions of it are no
    c-partition, or a spanning tree, missing an edge now and then, plus a
    few more edges, rarely a repeat. Now and then bent by a wrong header
    or a stray line."""
    # hypothesis draws the first choice of `sampled_from` most often, so the
    # choices that reach the partition checks come first here and below
    if draw(st.sampled_from(["cycle", "tree"])) == "cycle":
        n = draw(st.sampled_from([4, 6, 8]))
        edges = [(v, (v + 1) % n) for v in range(n)]
    else:
        n = draw(st.integers(1, 6))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        if edges and draw(st.booleans()):
            edges.pop(draw(st.integers(0, len(edges) - 1)))
        seen = set(edges)
        for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
            u, d = draw(st.integers(0, n - 1)), draw(st.integers(1, n - 1))
            e = min(u, (u + d) % n), max(u, (u + d) % n)
            if e not in seen or _rarely(draw):
                seen.add(e)
                edges.append(e)
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    if _rarely(draw):
        if draw(st.booleans()):
            lines[0] = f"{draw(st.integers(-1, 9))} {draw(st.integers(-1, 9))}"
        else:
            lines.insert(draw(st.integers(0, len(lines))), draw(_BENT_LINE))
    return "\n".join(lines).encode("utf-8", "surrogatepass"), len(edges)


@st.composite
def _cli_files(draw):
    """Bytes of an edge-list file and of a partition file: each either
    arbitrary or close to its format, the partition mostly over the edge
    ids of the graph, sometimes behind a `# sha256` comment line, which
    the reader skips like any other comment."""
    if _rarely(draw):
        graph, m = draw(st.binary(max_size=200)), draw(st.integers(0, 9))
    else:
        graph, m = draw(_edge_list_text())
    if _rarely(draw):
        return graph, draw(st.binary(max_size=200))
    hexes = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
    lines = [f"# sha256 {draw(hexes)}"] if draw(st.booleans()) else []
    form = draw(st.sampled_from(["exact", "loose", "bent"]))
    if form == "loose":   # ids may repeat, miss or overshoot
        ids = draw(st.lists(st.integers(-1, 9), max_size=10))
    else:                 # each edge id once
        ids = draw(st.permutations(range(m)))
    # the halves split every Theta*-class of an even cycle
    halves = draw(st.sampled_from([True, False]))
    lines += [f"{e} {int(2 * e >= m) if halves else draw(st.integers(0, 2))}" for e in ids]
    if form == "bent":
        lines.insert(draw(st.integers(0, len(lines))), draw(_BENT_LINE))
    return graph, "\n".join(lines).encode("utf-8", "surrogatepass")


@st.composite
def _cli_args(draw, graph, part, labels):
    """An argument list from the grammar of index, theta, quotient and
    gen ph, with files at the given paths."""
    command = draw(st.sampled_from(["index", "theta", "quotient", "gen"]))
    if command == "gen":
        argv = ["gen", "ph", str(draw(st.integers(-3, 40)))]
        if draw(st.booleans()):
            argv += ["--labels", labels]
        return argv
    argv = [command, graph]
    options = []
    if command == "index":
        options.append(["--method", draw(st.sampled_from(["cut", "direct", "compare"]))])
        options.append(["--format", draw(st.sampled_from(["json", "text"]))])
    if command != "theta":
        options.append(["--starred"])
    chosen = [option for option in options if draw(st.booleans())]
    if command != "theta" and draw(st.sampled_from([True, False])):
        chosen.append(["--partition-file", part])
    for option in draw(st.permutations(chosen)):
        argv += option
    # now and then a token the grammar rejects
    if _rarely(draw) and draw(st.booleans()):
        argv.insert(
            draw(st.integers(1, len(argv))),
            draw(st.sampled_from(["--bogus", "--method", "-", "x", "--partition"])),
        )
    return argv


@settings(max_examples=300, deadline=None)
@given(_cli_files(), st.data())
def test_cli_exit_codes_on_arbitrary_input(tmp_path_factory, files, data):
    graph_bytes, part_bytes = files
    tmp = tmp_path_factory.getbasetemp() / "cli-property"
    tmp.mkdir(exist_ok=True)
    graph, part, labels = (str(tmp / name) for name in ("g.edges", "p.part", "l.labels"))
    Path(graph).write_bytes(graph_bytes)
    Path(part).write_bytes(part_bytes)
    argv = data.draw(_cli_args(graph, part, labels))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    # 1 is a compare mismatch: no partition file may reach one unvalidated
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert "Traceback" not in err.getvalue()
    # and no route, partition file or not, may print other values
    if code == 0 and argv[0] == "index":
        args = _build_parser().parse_args(argv)
        g = parse_edge_list(graph_bytes.decode("utf-8"))
        printed = _printed_suite(out.getvalue(), args.format)
        assert printed == oracle_suite(g, args.starred).as_tuple(), argv
