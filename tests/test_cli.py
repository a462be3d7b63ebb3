import json
from pathlib import Path

import pytest

from szegedcut import (
    HexSpec,
    format_edge_list,
    format_hex_spec,
    linear_phenylene,
    oracle_suite,
    parse_edge_list,
)
from szegedcut.cli import main

from conftest import RING_CELLS, WIDE_RING_CELLS, cycle_graph, fullerene_patch


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


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "index", "/nonexistent/input.edges")
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
        "--partition", "file", "--partition-file", ppath,
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
        "--partition", "file", "--partition-file", ppath,
    )
    assert code == 4
    assert "partition" in err.lower()


def test_compare_mismatch_with_bogus_labels(capsys, tmp_path):
    # labels sidecars are trusted; a non-c-partition must make compare fail
    c6 = cycle_graph(6)
    gpath = _write(tmp_path, "c6.edges", format_edge_list(c6))
    lpath = _write(tmp_path, "c6.labels", "0 0\n1 1\n2 1\n3 1\n4 1\n5 1\n")
    code, out, err = run_cli(
        capsys, "index", gpath, "--method", "compare",
        "--partition", "labels", "--labels-file", lpath,
    )
    assert code == 1
    assert out == ""          # no report on mismatch
    assert "mismatch" in err


def _gen_with_labels(capsys, tmp_path, cells):
    spec = _write(tmp_path, "region.hex", format_hex_spec(HexSpec(cells)))
    labels = str(tmp_path / "region.labels")
    code, out, _ = run_cli(capsys, "gen", "benzenoid", spec, "--labels", labels)
    assert code == 0
    return _write(tmp_path, "region.edges", out), labels


def test_holed_region_sidecar_is_marked(capsys, tmp_path):
    _, labels = _gen_with_labels(capsys, tmp_path, RING_CELLS)
    assert Path(labels).read_text().startswith("# nonstandard_region\n")
    _, labels = _gen_with_labels(capsys, tmp_path, frozenset([(0, 0), (1, 0)]))
    assert not Path(labels).read_text().startswith("#")


@pytest.mark.parametrize("command", ["index", "quotient"])
def test_wide_ring_labels_are_validated_and_rejected(capsys, tmp_path, command):
    # the direction labels of this holed region split a Theta*-class
    gpath, labels = _gen_with_labels(capsys, tmp_path, WIDE_RING_CELLS)
    code, out, err = run_cli(
        capsys, command, gpath, "--partition", "labels", "--labels-file", labels
    )
    assert code == 4
    assert out == ""
    assert "invalid partition" in err


def test_ring_labels_are_validated_and_match_the_oracle(capsys, tmp_path):
    gpath, labels = _gen_with_labels(capsys, tmp_path, RING_CELLS)
    code, out, _ = run_cli(
        capsys, "index", gpath, "--partition", "labels", "--labels-file", labels
    )
    assert code == 0
    data = json.loads(out)
    expected = oracle_suite(parse_edge_list(Path(gpath).read_text())).as_tuple()
    assert tuple(int(data[k]) for k in ("wSz", "wPI_v", "wSz_e", "wPI")) == expected


def test_threads_option_is_gone(capsys, ph2_file):
    with pytest.raises(SystemExit) as info:
        main(["index", ph2_file, "--threads", "1"])
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


def test_full_pipeline_on_patch(capsys, tmp_path):
    gpath = _write(tmp_path, "patch.edges", format_edge_list(fullerene_patch()))
    code, out, _ = run_cli(capsys, "index", gpath, "--method", "compare")
    assert code == 0
    data = json.loads(out)
    assert data["wSz"] == "9200" and data["wPI"] == "2760"
