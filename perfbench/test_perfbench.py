"""Tests of the benchmark's own code: span arithmetic, the tracer, and one
small run of each workload with its checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import em2gm
import em2gm.experiments
import em2gm.sample_em
from em2gm.initializers import InitSpec
from perfbench import run, tracing, workloads
from perfbench.tracing import Span, covered, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[1]


def _modules():
    return {name: sys.modules[f"em2gm.{name}"] for name in tracing.LAYERS}


def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
    assert covered([(4.0, 6.0), (1.0, 2.0), (5.0, 5.5)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-2.0, 1.0)], 0.0, 10.0) == pytest.approx(1.0)


def test_self_time_subtracts_the_union_of_overlapping_thread_children():
    spans = [
        Span("experiments.rate_sweep", 0.0, 10.0, None, {"threads": 2}),
        # two sweep threads running side by side under the same parent
        Span("sample_em.iterate_em", 1.0, 7.0, 0),
        Span("sample_em.iterate_em", 2.0, 9.0, 0),
        Span("model.log_likelihood", 7.5, 8.5, 1),  # child past its parent's end
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 8.0)
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(7.0)
    assert selfs[3] == pytest.approx(1.0)

    m = layer_metrics(spans)
    assert m["experiments.busy_s"] == pytest.approx(10.0)
    assert m["experiments.self_s"] == pytest.approx(2.0)
    assert m["experiments.threads"] == 2
    assert m["experiments.busy_ratio"] == pytest.approx((6.0 + 7.0) / (10.0 * 2))
    # busy time sums over threads: 13 thread-seconds inside a 10 s span
    assert m["sample_em.iterate_em.busy_s"] == pytest.approx(13.0)
    assert m["sample_em.iterate_em.calls"] == 2
    assert m["model.log_likelihood.calls"] == 1


def test_layer_busy_counts_nested_calls_of_the_same_layer_once():
    spans = [
        Span("population.population_trajectory", 0.0, 1.0, None),
        Span("population.F_pop", 0.1, 0.4, 0),
        Span("population.G_pop", 0.5, 0.7, 0),
        Span("population.F_pop", 2.0, 2.5, None),
    ]
    m = layer_metrics(spans)
    assert m["population.busy_s"] == pytest.approx(1.5)
    assert m["population.evals"] == 3
    assert set(m) | {"trace.overhead_s"} == {name for name, _, _ in tracing.METRICS}


def test_tracer_patches_every_binding_and_restores_them():
    original = em2gm.sample_em.iterate_em
    assert em2gm.experiments.iterate_em is original
    with tracing.tracing(_modules()):
        wrapped = em2gm.sample_em.iterate_em
        assert wrapped is not original
        assert em2gm.experiments.iterate_em is wrapped
        assert em2gm.iterate_em is wrapped
    assert em2gm.sample_em.iterate_em is original
    assert em2gm.experiments.iterate_em is original
    assert em2gm.iterate_em is original


def test_worker_thread_spans_hang_under_the_sweep_that_started_them(tmp_path):
    config = em2gm.experiments.ExperimentConfig.from_product(
        [1_000], [1], [0.0], replicates=4, init=InitSpec(kind="fixed", fixed_value=(1.0,)),
        master_seed=5, rel_tol=0.0, c_iter=0.25, threads=2)
    with tracing.tracing(_modules()) as tracer:
        em2gm.experiments.rate_sweep(config)
    spans = tracer.spans
    sweep = [i for i, s in enumerate(spans) if s.name == "experiments.rate_sweep"]
    steps = [s for s in spans if s.name == "sample_em.iterate_em"]
    assert len(sweep) == 1 and len(steps) == 4
    assert all(s.parent == sweep[0] for s in steps)
    m = layer_metrics(spans)
    assert m["experiments.threads"] == 2
    assert m["sample_em.iterate_em.steps"] == 4 * 8
    assert m["sample_em.iterate_em.elem_steps"] == 4 * 8 * 1_000


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_clean_and_identical_with_and_without_tracing(name, tmp_path):
    workload = workloads.build(name, 3)
    tally = workloads.Tally()
    workloads.run_once(workload, tmp_path / "plain", tally)
    with tracing.tracing(_modules()) as tracer:
        workloads.run_once(workload, tmp_path / "traced", tally)
    assert tally.attempted == 2 * len(workload.ops)
    # a traced run whose bytes differ from the untraced one counts as failed
    assert tally.failed == 0
    m = layer_metrics(tracer.spans)
    assert m["cli.busy_s"] > 0.0
    if name == "diag-2d":
        assert m["sample_em.iterate_em.busy_s"] == 0
        assert m["population.busy_s"] > 0.0
    else:
        assert m["sample_em.em_map_batch.busy_s"] == 0
        assert m["population.busy_s"] == 0
        assert m["sample_em.iterate_em.steps"] > 0


def test_a_changed_output_counts_as_failed(tmp_path):
    out = tmp_path / "x"
    out.mkdir()
    (out / "a.csv").write_text("t,v\n0,1\n")
    assert workloads.output_problems(out) == []
    first = workloads.digest(out)
    (out / "a.csv").write_text("t,v\n0,nan\n")
    assert workloads.output_problems(out)
    assert workloads.digest(out) != first


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in tracing.METRICS]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "diag-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
