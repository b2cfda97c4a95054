"""Tests of the benchmark itself: inputs, tracing arithmetic, patching, runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs as gen
import resgeo
import resgeo.cli
import run
import tracing
import workloads
from tracing import Tracer, self_times


def span(name, start, end, parent=-1, failed=False, gn3=0.0):
    return [name, start, end, parent, 0, failed, gn3]


# --- input generation --------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda rng: gen.scwb_adjacency(20, rng, 0.3),
    lambda rng: gen.unbalanced_laplacian(20, rng, 20)[0],
    lambda rng: gen.signed_gram_laplacian(20, rng)[0],
])
def test_generators_are_deterministic_per_seed(make):
    a = make(np.random.default_rng([5, 0]))
    b = make(np.random.default_rng([5, 0]))
    c = make(np.random.default_rng([6, 0]))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_scwb_adjacency_is_balanced_and_dense_enough():
    adjacency = gen.scwb_adjacency(30, np.random.default_rng(1), 0.2)
    assert np.count_nonzero(adjacency) >= int(0.2 * 30 * 29)
    assert np.allclose(adjacency.sum(axis=0), adjacency.sum(axis=1))
    assert resgeo.laplacian_from_edges(
        30, [(s, d, adjacency[s, d]) for s, d in zip(*np.nonzero(adjacency))]
    ).strongly_connected


def test_band_streams_pick_draws_in_the_band_and_of_class_q():
    streams = gen.band_streams(25, 2, (2.5, 3.5), 3, first=1)
    assert len(streams) == 3 and min(streams) >= 1
    assert streams == gen.band_streams(25, 2, (2.5, 3.5), 3, first=1)
    q, gram, info = gen.signed_gram_laplacian(25, np.random.default_rng([2, streams[0]]))
    assert 2.5 <= info["log10_cond"] <= 3.5
    assert np.array_equal(q, q.T)
    lap = resgeo.SignedLaplacianQ(q)
    omega = resgeo.resistance_matrix_q(lap).omega
    assert np.allclose(omega, gen.resistance_from_kernel(gram), rtol=1e-9, atol=1e-9)


def test_written_inputs_are_identical_for_one_seed(tmp_path):
    texts = []
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        workload = small(workloads.CliPipeline, 7, str(workdir))
        workload.prepare()
        workload.setup()
        texts.append([(workdir / name).read_text() for name in
                      ("scwb_edges_0.txt", "signed_laplacian_0.csv")])
    assert texts[0] == texts[1]


# --- self time and metric arithmetic -------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("cli.load_graph", 1.0, 3.0, parent=0),
        span("graph.DirectedLaplacian", 1.5, 2.0, parent=1),
        span("np.svd", 4.0, 6.0, parent=0, gn3=0.5),
        span("np.cond", 5.0, 7.0, parent=0, gn3=0.25),   # overlaps its sibling
        span("np.solve", 9.5, 12.0, parent=0),           # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([10 - 2 - 3 - 0.5, 1.5, 0.5, 2.0, 2.0, 2.5])


def test_layer_metrics_partition_time_and_count_calls():
    spans = [
        span("op.x", 0.0, 10.0),
        span("cli.main", 0.0, 10.0, parent=0),
        span("cli.load_graph", 1.0, 3.0, parent=1),
        span("graph.DirectedLaplacian", 1.5, 2.0, parent=2),
        span("maxvar.solve_maxvar", 4.0, 8.0, parent=1),
        span("np.solve", 4.0, 5.0, parent=4, gn3=1.0),
        span("np.svd", 8.0, 9.0, parent=1, gn3=2.0),
        span("resistance.classify_metric", 9.0, 9.5, parent=1, failed=True),
    ]
    m = tracing.layer_metrics(spans, jobs=2)
    assert m["cli.self_s"] == pytest.approx((10 - 2 - 4 - 1 - 0.5) / 2)
    assert m["cli.load_graph_s"] == pytest.approx(1.5 / 2)
    assert m["graph.construct_s"] == pytest.approx(0.5 / 2)
    assert m["graph.construct_calls"] == pytest.approx(0.5)
    assert m["maxvar.solve_s"] == pytest.approx(3.0 / 2)
    assert m["maxvar.face_solves"] == pytest.approx(0.5)
    assert m["np.kernel_s"] == pytest.approx(1.0)
    assert m["np.factor_gn3"] == pytest.approx(1.5)
    assert m["np.svd_calls"] == m["np.solve_calls"] == pytest.approx(0.5)
    assert m["resistance.classify_failed"] == pytest.approx(0.5)
    layers = tracing.layer_table(spans, jobs=1)
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(10.0)
    table = tracing.function_table(spans, jobs=1)
    assert table["cli.main"]["per_call"] == {"np.solve": 1, "np.svd": 1}


def test_tail_has_ten_jobs_beyond_it():
    latencies = list(range(40, 0, -1))
    value, percentile, above = run.tail(latencies)
    assert (value, above) == (30, 10)
    assert percentile == pytest.approx(75.0)
    with pytest.raises(ValueError):
        run.tail(range(10))


def test_jobs_per_s_is_the_median_over_input_cycles():
    latencies = [1.0, 1.0, 4.0, 4.0, 1.0, 1.0, 1.0, 1.0] * 2   # one slow cycle in four
    assert run.latency_metrics(latencies, 2)[0]["jobs_per_s"] == pytest.approx(1.0)
    assert run.latency_metrics(latencies, 1)[0]["jobs_per_s"] == pytest.approx(1.0)
    latencies = [1.0, 3.0] * 6
    assert run.latency_metrics(latencies, 2)[0]["jobs_per_s"] == pytest.approx(0.5)


# --- patching -------------------------------------------------------------------

def namespaces():
    """Identity of every binding the tracer may touch."""
    modules = tracing.package_modules(resgeo)
    state = {(m.__name__, k): id(v) for m in modules for k, v in vars(m).items()}
    state.update({("np.linalg", k): id(getattr(np.linalg, k)) for k in tracing.NP_KERNELS})
    for cls in (resgeo.DirectedLaplacian, resgeo.SignedLaplacianQ):
        state[(cls.__name__, "__init__")] = id(cls.__init__)
    return state


def test_tracer_wraps_every_binding_and_restores_them():
    before = namespaces()
    tracer = Tracer(resgeo)
    with tracer:
        assert id(np.linalg.svd) != before[("np.linalg", "svd")]
        assert id(resgeo.verify.embed) != before[("resgeo.verify", "embed")]
        assert id(resgeo.cli.load_graph) != before[("resgeo.cli", "load_graph")]
        lap = resgeo.random_scwb_laplacian(8, np.random.default_rng(0))
        resgeo.undirect(lap)
    assert namespaces() == before
    table = tracing.function_table(tracer.spans, jobs=1)
    assert table["curvature.undirect"]["per_call"]["np.svd"] == 2
    assert table["curvature.undirect"]["per_call"]["np.eigh"] == 2
    assert "graph.SignedLaplacianQ" in table


def test_tracer_restores_after_an_error():
    before = namespaces()
    tracer = Tracer(resgeo)
    with pytest.raises(resgeo.ValidationError):
        with tracer:
            resgeo.classify_metric(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert namespaces() == before
    assert [s[tracing.NAME] for s in tracer.spans if s[tracing.FAILED]] == [
        "resistance.classify_metric"]


# --- runs -----------------------------------------------------------------------

def small(cls, seed, workdir):
    """A workload of the given class with tiny inputs."""
    workload = cls(resgeo, seed, workdir)
    workload.n = 24
    workload.signed_cond = (0.0, 99.0)
    workload.cases = 2
    workload.n_max = 5
    return workload


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_tiny_run_of_every_workload(cls, tmp_path):
    workload = small(cls, 3, str(tmp_path))
    job_ops = lambda: workloads.Ops(resgeo.ResgeoError)  # noqa: E731
    workload.prepare()
    assert run.set_up(workload, job_ops) > 0.0
    latencies, ops = run.timed_loop(workload, job_ops, 0.0)
    assert len(latencies) >= run.MIN_JOBS and len(ops) == len(latencies)
    attempted, failed = workload.distinct()
    assert attempted > 0
    assert sum(o.attempted for o in ops) * workload.cycle == attempted * len(latencies)
    assert sum(o.failed for o in ops) * workload.cycle == failed * len(latencies)
    tracer, plain, traced, counts, _ = run.traced_passes(workload, job_ops, resgeo, 0.0)
    assert len(counts) == 2 and counts[0] == counts[1]
    assert len(plain) == len(traced) == 2 * len(workload.trace_jobs())
    metrics = tracing.layer_metrics(tracer.spans, len(traced))
    assert set(tracing.SELF_TIME_METRICS) <= set(metrics)
    assert workload.problems() == []


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    child = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "lib-signed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert child.returncode != 0
    assert child.stdout == ""
