import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from em2gm import experiments, model
from em2gm.experiments import (
    ContractionProbe,
    ExperimentConfig,
    Row,
    figure2_reproduction,
    fit_loglog_slope,
    mle_contraction_probe,
    rate_sweep,
    risk_compare,
    sublinear_rate_probe,
)
from em2gm.initializers import InitSpec, make_init
from em2gm.model import Dataset, ModelSpec, loss, sample_dataset
from em2gm.rng import derive_seed
from em2gm.sample_em import iterate_em
from oracles import blas_threads_or_skip, run_cli


def _config(**kw):
    kw.setdefault("replicates", 3)
    kw.setdefault("init", InitSpec(kind="fixed", fixed_value=(1.0,)))
    kw.setdefault("master_seed", 99)
    return ExperimentConfig.from_product([100, 400], [1], [1.0], **kw)


def test_fit_loglog_slope_recovers_power_law():
    n = np.array([10.0, 100.0, 1000.0, 10000.0])
    slope, stderr = fit_loglog_slope(n, 3.0 * n**-0.37)
    assert slope == pytest.approx(-0.37, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_loglog_slope_drops_nonpositive_points():
    slope, stderr = fit_loglog_slope([1.0, 10.0, 100.0], [1.0, 0.0, 0.01])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert stderr is None  # two usable points leave no residual dof
    assert fit_loglog_slope([1.0, 10.0], [0.0, 0.0]) == (None, None)


def test_fit_loglog_slope_rejects_nonfinite_points():
    # a NaN mean loss marks a broken cell; the y > 0 filter must not hide it
    for x, y in (([1.0, 10.0, 100.0], [1.0, math.nan, 0.01]),
                 ([1.0, 10.0, 100.0], [1.0, math.inf, 0.01]),
                 ([1.0, math.nan, 100.0], [1.0, 0.1, 0.01])):
        with pytest.raises(ValueError, match="non-finite"):
            fit_loglog_slope(x, y)


def test_config_validation():
    init = InitSpec(kind="zero")
    with pytest.raises(ValueError):
        ExperimentConfig(grid=(), replicates=1, init=init, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(grid=((1, 1, 1.0),), replicates=1, init=init, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(grid=((10, 0, 1.0),), replicates=1, init=init, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(grid=((10, 1, -1.0),), replicates=1, init=init, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(grid=((10, 1, 1.0),), replicates=0, init=init, master_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(grid=((10, 1, 1.0),), replicates=1, init=init, master_seed=0,
                         dtype="float16")
    with pytest.raises(ValueError):
        ExperimentConfig(grid=((10, 1, 1.0),), replicates=1, init=init, master_seed=0,
                         threads=0)
    with pytest.raises(ValueError, match="all s must be finite"):
        ExperimentConfig(grid=((10, 1, math.inf),), replicates=1, init=init, master_seed=0)
    # the stop rule of every cell is checked before any cell runs
    with pytest.raises(ValueError, match="c_iter must be finite and positive"):
        ExperimentConfig(grid=((10, 1, 1.0),), replicates=1, init=init, master_seed=0,
                         c_iter=math.inf)
    with pytest.raises(ValueError, match="rel_tol must be nonnegative"):
        ExperimentConfig(grid=((10, 1, 1.0),), replicates=1, init=init, master_seed=0,
                         rel_tol=-1.0)


def test_config_rejects_float32_rel_tol_below_eps():
    kw = dict(grid=((10, 1, 1.0),), replicates=1, init=InitSpec(kind="zero"), master_seed=0,
              dtype="float32")
    for bad in ({"rel_tol": 1e-8}, {"rel_tol": 1e-7}, {"max_iters": 5, "rel_tol": 1e-9}):
        with pytest.raises(ValueError, match="float32 eps"):
            ExperimentConfig(**kw, **bad)
    # 0 (run the full budget) and tolerances at or above eps stay allowed
    for ok in ({"rel_tol": 0.0}, {"rel_tol": 1e-6}, {"max_iters": 5, "rel_tol": 0.0}):
        assert ExperimentConfig(**kw, **ok).dtype == "float32"
    assert ExperimentConfig(**{**kw, "dtype": "float64"}, rel_tol=1e-8).rel_tol == 1e-8


def test_config_grid_ordering_and_stop():
    cfg = ExperimentConfig.from_product([10, 20], [1, 2], [0.5, 1.0], replicates=1,
                                        init=InitSpec(kind="zero"), master_seed=0,
                                        c_iter=2.0, rel_tol=0.0)
    # (d, s)-major: each (d, s) block sweeps all n before moving on
    assert cfg.grid == ((10, 1, 0.5), (20, 1, 0.5), (10, 1, 1.0), (20, 1, 1.0),
                       (10, 2, 0.5), (20, 2, 0.5), (10, 2, 1.0), (20, 2, 1.0))
    # max_iters 0, the default, is the budget ceil(c_iter sqrt(n))
    stop = cfg.stop_for(100)
    assert cfg.max_iters == 0 and stop.max_iters == 20 and stop.rel_tol == 0.0
    assert cfg.stop_for(50).max_iters == math.ceil(2.0 * math.sqrt(50)) == 15
    kw = dict(grid=((10, 1, 1.0),), replicates=1, init=InitSpec(kind="zero"), master_seed=0)
    explicit = ExperimentConfig(**kw, max_iters=7)
    assert explicit.stop_for(10_000).max_iters == 7
    with pytest.raises(ValueError, match="max_iters"):
        ExperimentConfig(**kw, max_iters=-1)
    assert cfg.np_dtype is np.float64


def test_rate_sweep_writes_csv_and_summary(tmp_path):
    cfg = _config()
    result = rate_sweep(cfg)
    result.to_csv(tmp_path / "sweep.csv")
    result.summary_to_json(tmp_path / "sweep.summary.json")
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert csv_lines[0] == "n,d,s,replicate,final_loss,iters,final_loglik"
    assert len(csv_lines) == 1 + 2 * 3
    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    assert len(summary) == 1
    assert summary[0]["n"] == [100, 400]
    assert summary[0]["slope"] == result.summaries[0].slope
    assert len(result.rows) == 6
    for row in result.rows:
        assert row.final_loss >= 0.0
        assert 1 <= row.iters <= cfg.stop_for(row.n).max_iters


def test_rate_sweep_rows_are_reconstructible():
    # the seed layout is part of the contract: data stream (gi, k, 0),
    # init stream (gi, k, 1)
    cfg = _config(init=InitSpec(kind="random_sphere"))
    result = rate_sweep(cfg)
    gi, k = 1, 2
    n, d, s = cfg.grid[gi]
    spec = ModelSpec.along_axis(s, d)
    data = sample_dataset(spec, n, derive_seed(cfg.master_seed, gi, k, 0))
    theta0 = make_init(cfg.init, data, seed=derive_seed(cfg.master_seed, gi, k, 1))
    theta, iters = iterate_em(data.samples, theta0, cfg.stop_for(n))
    row = [r for r in result.rows if (r.n, r.replicate) == (n, k)][0]
    assert row.final_loss == loss(theta, spec.theta_star)
    assert row.iters == iters


def test_rate_sweep_deterministic_across_thread_counts(tmp_path):
    a = rate_sweep(_config(threads=1))
    a.to_csv(tmp_path / "sweep.csv")
    b_path = tmp_path / "b.csv"
    b = rate_sweep(ExperimentConfig.from_product(
        [100, 400], [1], [1.0], replicates=3,
        init=InitSpec(kind="fixed", fixed_value=(1.0,)), master_seed=99, threads=4))
    b.to_csv(b_path)
    assert a.rows == b.rows
    assert (tmp_path / "sweep.csv").read_bytes() == b_path.read_bytes()
    # at d >= 2 every sweep thread calls BLAS at once
    runs = [rate_sweep(ExperimentConfig.from_product(
        [100, 400], [3], [1.0], replicates=3, init=InitSpec(kind="random_sphere"),
        master_seed=99, threads=threads)) for threads in (1, 4)]
    for threads, run in zip((1, 4), runs):
        run.to_csv(tmp_path / f"d3_{threads}.csv")
    assert runs[0].rows == runs[1].rows
    assert (tmp_path / "d3_1.csv").read_bytes() == (tmp_path / "d3_4.csv").read_bytes()


def test_rate_sweep_is_the_em_result_of_risk_compare():
    cfg = _config(init=InitSpec(kind="random_sphere"), threads=2)
    sweep = rate_sweep(cfg)
    em = risk_compare(cfg, ("em",)).results["em"]
    assert sweep.rows == em.rows and sweep.summaries == em.summaries
    # the em rows do not depend on the other estimators scored beside them
    assert risk_compare(cfg).results["em"].rows == em.rows


def test_risk_compare_deterministic_across_thread_counts(tmp_path):
    runs = {}
    for threads in (1, 2):
        cfg = ExperimentConfig.from_product(
            [300, 1000], [3], [0.3, 1.0], replicates=2, init=InitSpec(kind="random_sphere"),
            master_seed=5, threads=threads)
        runs[threads] = risk_compare(cfg)
        for est, result in runs[threads].results.items():
            result.to_csv(tmp_path / f"t{threads}_{est}.csv")
            result.summary_to_json(tmp_path / f"t{threads}_{est}.summary.json")
    for est in ("em", "spectral", "zero"):
        assert runs[1].results[est].rows == runs[2].results[est].rows
        for suffix in (".csv", ".summary.json"):
            want = (tmp_path / f"t1_{est}{suffix}").read_bytes()
            assert (tmp_path / f"t2_{est}{suffix}").read_bytes() == want


def _d3_config(master_seed=3, **kw):
    return ExperimentConfig.from_product([100, 400], [3], [1.0], replicates=2,
                                         init=InitSpec(kind="random_sphere"),
                                         master_seed=master_seed, **kw)


def test_sweep_cells_run_blas_on_one_thread_and_leave_it_so(monkeypatch):
    get, set_ = blas_threads_or_skip()
    em_cell = experiments._em_cell
    seen = []

    def cell(config, gi, k, estimators):
        seen.append(get())
        if config.master_seed == 4 and (gi, k) == (1, 0):
            raise RuntimeError("cell failed")
        return em_cell(config, gi, k, estimators)

    monkeypatch.setattr(experiments, "_em_cell", cell)
    before = get()
    try:
        for threads in (1, 2):
            set_(2)
            rate_sweep(_d3_config(threads=threads))
            assert get() == 1
            set_(2)
            with pytest.raises(RuntimeError, match="cell failed"):
                risk_compare(_d3_config(master_seed=4, threads=threads))
            assert get() == 1
    finally:
        set_(before)
    assert seen and set(seen) == {1}


def test_concurrent_sweeps_leave_blas_on_one_thread(monkeypatch):
    # more sweeping user threads than cores, switching often: the count must
    # read 1 in every cell and after the sweeps, and every sweep give the
    # same rows
    get, set_ = blas_threads_or_skip()
    em_cell = experiments._em_cell
    seen = []
    monkeypatch.setattr(experiments, "_em_cell",
                        lambda *args: seen.append(get()) or em_cell(*args))
    before, interval = get(), sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        rows = []
        for _ in range(10):
            set_(2)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(rate_sweep, _d3_config(threads=2)) for _ in range(16)]
                rows += [f.result(timeout=120).rows for f in futures]
            assert get() == 1
    finally:
        sys.setswitchinterval(interval)
        set_(before)
    assert all(r == rows[0] for r in rows)
    assert len(seen) == 10 * 16 * 4 and set(seen) == {1}


def test_sweep_runs_without_blas_thread_control(monkeypatch):
    expected = rate_sweep(_d3_config(threads=2)).rows
    monkeypatch.setattr(model, "_blas_thread_control", lambda: None)
    assert rate_sweep(_d3_config(threads=2)).rows == expected
    assert rate_sweep(_d3_config(threads=1)).rows == expected


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at d=1, n=1e5 a threaded OpenBLAS splits the kernel's dot over a block
    # of 65536 samples and sums it in another order than one thread does
    blas_threads_or_skip(cores=2)
    runs = {"blas-default": ({}, "1"), "blas-default-2-workers": ({}, "2"),
            "blas-1": ({"OPENBLAS_NUM_THREADS": "1"}, "1")}
    for name, (env, threads) in runs.items():
        run_cli(tmp_path / name, "rate-sweep", "--d", "1", "--s", "1", "--n-grid", "100000",
                "--replicates", "2", "--c-iter", "1", "--init", "random", "--seed", "11",
                "--threads", threads, **env)
    for name in ("rate_sweep.csv", "rate_sweep.summary.json"):
        want = (tmp_path / "blas-default" / name).read_bytes()
        for run in runs:
            assert (tmp_path / run / name).read_bytes() == want, (run, name)


def test_risk_compare_estimators():
    cfg = ExperimentConfig.from_product(
        [500], [3], [1.0], replicates=5, init=InitSpec(kind="random_sphere"),
        master_seed=7)
    comparison = risk_compare(cfg)
    assert list(comparison.results) == ["em", "spectral", "zero"]
    for est in ("em", "spectral", "zero"):
        assert len(comparison.results[est].rows) == 5
    for row in comparison.results["zero"].rows:
        assert row.final_loss == 1.0  # the zero estimator misses by exactly s
        assert row.iters == 0
    for row in comparison.results["spectral"].rows:
        assert row.iters == 0
    assert comparison.mean_loss("zero", 500, 3, 1.0) == 1.0
    em_rows = comparison.results["em"].rows
    assert comparison.mean_loss("em", 500, 3, 1.0) == pytest.approx(
        float(np.mean([r.final_loss for r in em_rows])))


def test_risk_compare_rejects_unknown_estimator(tmp_path):
    cfg = ExperimentConfig.from_product([100], [1], [1.0], replicates=1,
                                        init=InitSpec(kind="zero"), master_seed=0)
    with pytest.raises(ValueError, match=r"unknown estimator 'mystery'; "
                                         r"expected subset of \('em', 'spectral', 'zero'\)"):
        risk_compare(cfg, estimators=("em", "mystery"))
    with pytest.raises(ValueError, match="non-empty"):
        risk_compare(cfg, estimators=())
    with pytest.raises(ValueError, match="duplicate"):
        risk_compare(cfg, estimators=("zero", "zero"))
    with pytest.raises(KeyError):
        risk_compare(cfg, estimators=("zero",)).mean_loss("zero", 999, 1, 1.0)


def test_mle_probe_contracts_at_strong_signal():
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 20_000, 61)
    theta0 = make_init(InitSpec(kind="random_sphere"), data, 62)
    probe = mle_contraction_probe(data, theta0, burn_in=10, extra=10)
    assert probe.ratios.size > 0
    assert probe.max_ratio < 1.0
    assert probe.c_hat > 0.0
    assert probe.geo_mean == pytest.approx(
        float(np.exp(np.mean(np.log(probe.ratios)))), rel=1e-12)


def test_mle_probe_truncates_converged_window():
    # a long burn-in leaves the trajectory already at its limit, so the
    # window comes back empty rather than reporting 0/0 ratios
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 5_000, 63)
    theta0 = make_init(InitSpec(kind="random_sphere"), data, 64)
    probe = mle_contraction_probe(data, theta0, burn_in=400, extra=10)
    assert probe.ratios.size == 0
    assert probe.max_ratio is None and probe.c_hat is None


def _moved_by_ulps(iterates, m):
    # every coordinate moved by m ulps, up at even steps and down at odd ones
    out = iterates.copy()
    for t in range(len(out)):
        for _ in range(m):
            out[t] = np.nextafter(out[t], np.inf if t % 2 == 0 else -np.inf)
    return out


def test_mle_probe_ratios_move_little_when_the_iterates_move_by_ulps(monkeypatch):
    # a few ulps of rounding in the iterates move a ratio r by at most
    # 2 m eps (1 + 1/r) / 1e-10 relative, as the window ends 1e-10 from the limit
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 100_000, 66)
    theta0 = make_init(InitSpec(kind="random_sphere"), data, 67)
    want = mle_contraction_probe(data, theta0, burn_in=20, extra=20).ratios
    iterates, m = experiments._iterates, 6

    def moved_iterates(samples, theta0, stop):
        thetas = np.array([theta for theta, _ in iterates(samples, theta0, stop)])
        return ((theta, None) for theta in _moved_by_ulps(thetas, m))

    monkeypatch.setattr(experiments, "_iterates", moved_iterates)
    got = mle_contraction_probe(data, theta0, burn_in=20, extra=20).ratios
    assert 0 < want.size == got.size
    bound = 1.01 * 2 * m * np.finfo(float).eps * (1 + 1 / want) / 1e-10
    assert np.all(np.abs(got / want - 1) <= bound)


def test_mle_probe_warns_below_contraction_scale():
    spec = ModelSpec.along_axis(0.05, 2)
    data = sample_dataset(spec, 1_000, 65)
    with pytest.warns(UserWarning, match="contraction scale"):
        mle_contraction_probe(data, make_init(InitSpec(kind="random_sphere"), data, 0),
                              burn_in=2, extra=2)


def test_mle_probe_rejects_a_zero_start():
    # 0 is a fixed point of the sample EM map: the window would always be empty
    spec = ModelSpec.along_axis(3.0, 1)
    data = sample_dataset(spec, 2_000, 2)
    for init in (InitSpec(kind="zero"), InitSpec(kind="fixed", fixed_value=(0.0,))):
        with pytest.raises(ValueError, match="fixed point"):
            mle_contraction_probe(data, make_init(init, data, 0), burn_in=60, extra=20)
    with pytest.raises(ValueError, match="fixed point"):
        mle_contraction_probe(data, np.zeros(1), burn_in=60, extra=20)


def test_mle_probe_rejects_a_spectral_start_that_found_no_signal():
    # with no eigenvalue of the second moments above 1 the spectral start is
    # 0, which would leave an empty window
    spec = ModelSpec.along_axis(1.0, 2)
    data = Dataset(samples=0.5 * sample_dataset(spec, 2_000, 3).samples, spec=spec)
    theta0 = make_init(InitSpec(kind="spectral"), data, 0)
    assert not np.any(theta0)
    with pytest.raises(ValueError, match="fixed point"):
        mle_contraction_probe(data, theta0, burn_in=5, extra=5)


def test_mle_probe_csv(tmp_path):
    probe = ContractionProbe(ratios=np.array([0.5, 0.25]), max_ratio=0.5,
                             geo_mean=math.sqrt(0.125), c_hat=1.0)
    path = tmp_path / "probe.csv"
    probe.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,ratio"
    assert lines[1] == "0,0.5"
    # an empty window writes the header alone
    empty = ContractionProbe(ratios=np.array([]), max_ratio=None, geo_mean=None, c_hat=None)
    empty.to_csv(path)
    assert path.read_text() == "t,ratio\n"


def test_figure2_flags(rule):
    result = figure2_reproduction(rule)
    assert result.non_monotone_pass
    assert result.monotone_pass
    assert result.beta_decreasing_after_first
    assert len(result.non_monotone_run) == 61
    assert abs(result.non_monotone_run[-1].alpha - 0.35) < 1e-2
    assert abs(result.monotone_run[-1].alpha - 0.35) < 1e-2


def test_sublinear_probe_short_run(rule):
    probe = sublinear_rate_probe(rule, T=2_000)
    assert probe.thetas.shape == (2_001,)
    assert probe.slope == pytest.approx(-0.5, abs=0.1)
    with pytest.raises(ValueError):
        sublinear_rate_probe(rule, T=100)


def test_row_matches_csv_header():
    assert Row._fields == ("n", "d", "s", "replicate", "final_loss", "iters", "final_loglik")
