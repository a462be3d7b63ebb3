"""Self-tests of the benchmark: generators, references, checks and tracing.

Run with `python -m pytest benchmark`. Small instances only; the full
ladders are exercised by `benchmark/run.py` itself.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import szegedcut as sc  # noqa: E402
import bench_workloads as bench  # noqa: E402
import run  # noqa: E402
from bench_trace import PER_LAYER_UNITS, Tracer  # noqa: E402

SMALL = {
    "molecule-cut": [("phenylene", 6, True), ("phenylene", 9, False), ("benzenoid", 12, False)],
    "theta-star": [("phenylene", 5, True, False), ("benzenoid", 10, False, True),
                   ("phenylene", 7, False, True), ("benzenoid", 9, False, False)],
    "weighted-generic": [(14, False), (12, True)],
}


def small_cases(name: str, seed: int = 0) -> list[bench.Case]:
    rng = random.Random(seed)
    make = bench.WORKLOADS[name].make_case
    return [make(rng, *rung) for rung in SMALL[name]]


@pytest.mark.parametrize("kind", ["phenylene", "benzenoid"])
@pytest.mark.parametrize("seed", range(6))
def test_generated_molecules_match_counts_and_oracle(kind, seed):
    rng = random.Random(seed)
    spec = bench.make_molecule(rng, kind, rng.randint(3, 25))
    dlg = (sc.build_phenylene if kind == "phenylene" else sc.build_benzenoid)(spec)
    assert not dlg.nonstandard_region
    g = dlg.graph
    assert bench.molecule_counts(kind, spec) == (g.n, g.m, sc.first_zagreb(g))
    cut = sc.weighted_suite_cut(g, dlg.direction_partition())
    assert cut.as_tuple() == sc.oracle_suite(g).as_tuple()


def test_generic_graphs_are_connected_and_not_bipartite():
    g = bench.random_sparse_graph(random.Random(3), 40)
    assert sc.is_connected(g) and not sc.is_bipartite(g)
    assert g.m == 50


def test_oracle_values_match_oracle_general():
    case = small_cases("weighted-generic")[1]
    g = sc.parse_edge_list(case.payload["text"])
    wa = sc.WeightAssignment(*case.payload["weights"])
    for kind in sc.IndexKind:
        assert case.expected[kind.value] == sc.oracle_general(g, wa, kind)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_jobs_pass_untraced_and_traced(name):
    job = bench.WORKLOADS[name].job
    tracer = Tracer()
    traced = tracer.steps()
    for case in small_cases(name):
        assert bench.check(case, job(bench.plain_steps(), case))
        tracer.job += 1
        tracer.scale.append(1.0)
        with tracer.quotient_seam():
            assert bench.check(case, tracer.wrap("job", job)(traced, case))
    metrics = tracer.layer_metrics(len(SMALL[name]), 1.0, 1.0)
    assert list(metrics) == list(PER_LAYER_UNITS)
    assert metrics["quotient.builds"] > 0
    assert 0.0 < metrics["trace.accounted_ratio"] <= 1.0


def test_quotient_seam_is_restored():
    module = sys.modules["szegedcut.indices"]
    original = module.quotient_graph
    with Tracer().quotient_seam():
        assert module.quotient_graph is not original
    assert module.quotient_graph is original


@pytest.mark.parametrize("name", sorted(SMALL))
def test_corrupted_reference_counts_as_failure(name):
    job = bench.WORKLOADS[name].job
    case = small_cases(name)[0]
    _, out = run.run_job(job, bench.plain_steps(), case)
    assert run.passed(bench, case, out)
    key = next(iter(case.expected))
    case.expected[key] += 1
    assert not run.passed(bench, case, out)


def test_raising_job_counts_as_failure():
    case = small_cases("theta-star")[0]
    case.payload["text"] = "3 1\n0 0\n"
    _, out = run.run_job(bench.theta_star_job, bench.plain_steps(), case)
    assert out is None and not run.passed(bench, case, out)


def test_cases_depend_only_on_seed():
    workload = bench.WORKLOADS["molecule-cut"]
    first = bench.make_cases(workload, 7)
    again = bench.make_cases(workload, 7)
    other = bench.make_cases(workload, 8)
    assert [c.payload["spec"] for c in first] == [c.payload["spec"] for c in again]
    assert [c.payload["spec"] for c in first] != [c.payload["spec"] for c in other]


def test_tail_has_ten_jobs_beyond_or_sits_above_median():
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0, 10)
    assert run.tail(times[:8]) == (5.0, 62.5, 3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
