"""End-to-end acceptance checks at desk scale.

One test per advertised behavior of the laboratory: population-map facts,
statistical rate fits, likelihood monotonicity, the deviation probes, and
the estimator comparisons. Each test prints a single summary line (shown
under pytest -s) with the measured numbers and enforces its wall-clock
budget where one is stated. Everything is seeded; reruns are bit-identical.
"""

import math
import os
import time

import numpy as np
import pytest

from em2gm.deviation import (default_probe_grid, population_map_ddim,
                             relative_lipschitz_probe, tanh_sup_ratio,
                             w1_squared_empirical)
from em2gm.experiments import (ExperimentConfig, fit_loglog_slope,
                               figure2_reproduction, mle_contraction_probe,
                               rate_sweep, risk_compare, sublinear_rate_probe)
from em2gm.initializers import InitSpec, make_init
from em2gm.model import ModelSpec, log_likelihood, sample_dataset
from em2gm.population import F_pop, G_pop, f_pop, invert_q, q_pop, sandwich_sequences
from em2gm.rng import derive_seed
from em2gm.sample_em import StopRule, em_map, em_map_batch, run_em
from oracles import fg_inequality_violation, tanh_sup_grid_search

# deselect with pytest -m "not acceptance" for a quick run of the rest
pytestmark = pytest.mark.acceptance

# sweep bytes do not depend on the thread count, so the rate criteria use every core
_CORES = os.cpu_count() or 1


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_population_rate_is_sublinear(rule):
    t0 = time.perf_counter()
    probe = sublinear_rate_probe(rule)
    elapsed = time.perf_counter() - t0
    ok = abs(probe.slope + 0.5) <= 0.05 and elapsed < 1.0
    _report(1, "signal-free population decay t^(-1/2)", ok,
            f"slope={probe.slope:.4f} (target -0.5 +/- 0.05) elapsed={elapsed:.2f}s/1s")


def test_criterion_02_worst_case_rate_quarter_power():
    t0 = time.perf_counter()
    config = ExperimentConfig.from_product(
        [1_000, 10_000, 100_000, 1_000_000], [1], [0.0], replicates=100,
        init=InitSpec(kind="fixed", fixed_value=(1.0,)), master_seed=20260819,
        rel_tol=0.0, c_iter=0.25, dtype="float32", threads=_CORES)
    summary = rate_sweep(config).summaries[0]
    elapsed = time.perf_counter() - t0
    ok = abs(summary.slope + 0.25) <= 0.07 and elapsed < 120.0
    _report(2, "null-signal loss rate n^(-1/4)", ok,
            f"slope={summary.slope:.4f} (target -0.25 +/- 0.07) elapsed={elapsed:.1f}s/120s")


def test_criterion_03_pointwise_rate_root_n():
    t0 = time.perf_counter()
    config = ExperimentConfig.from_product(
        [1_000, 10_000, 100_000, 1_000_000], [1], [1.0], replicates=100,
        init=InitSpec(kind="fixed", fixed_value=(1.0,)), master_seed=20260819,
        threads=_CORES)
    summary = rate_sweep(config).summaries[0]
    elapsed = time.perf_counter() - t0
    ok = abs(summary.slope + 0.5) <= 0.07 and elapsed < 120.0
    _report(3, "strong-signal loss rate n^(-1/2)", ok,
            f"slope={summary.slope:.4f} (target -0.5 +/- 0.07) elapsed={elapsed:.1f}s/120s")


def test_criterion_04_high_dim_worst_case_rate():
    t0 = time.perf_counter()
    config = ExperimentConfig.from_product(
        [10_000, 100_000, 1_000_000], [10], [0.0], replicates=50,
        init=InitSpec(kind="random_sphere"), master_seed=20260819,
        rel_tol=1e-6, c_iter=0.25, dtype="float32", threads=_CORES)
    summary = rate_sweep(config).summaries[0]
    elapsed = time.perf_counter() - t0
    final_mean = summary.mean_loss[-1]
    ok = (abs(summary.slope + 0.25) <= 0.08 and final_mean < 0.3
          and elapsed < 600.0)
    _report(4, "d=10 null-signal rate n^(-1/4)", ok,
            f"slope={summary.slope:.4f} (target -0.25 +/- 0.08) "
            f"mean_loss@1e6={final_mean:.4f} (<0.3) elapsed={elapsed:.1f}s/600s")


def test_criterion_05_likelihood_never_decreases():
    worst = 0.0
    for k in range(1000):
        rng = np.random.default_rng(k)
        d = int(rng.integers(1, 6))
        n = int(rng.integers(50, 2001))
        s = float(rng.uniform(0.0, 3.0))
        data = sample_dataset(ModelSpec.along_axis(s, d), n, derive_seed(55, k))
        theta0 = rng.normal(size=d) * rng.uniform(0.1, 3.0)
        traj = run_em(data, theta0, StopRule(max_iters=40, rel_tol=0.0))
        worst = min(worst, float(np.diff(traj.loglik).min()))
    ok = worst >= -1e-12
    _report(5, "log-likelihood monotone along EM", ok,
            f"worst step change={worst:.2e} over 1000 trajectories (>= -1e-12)")


def test_criterion_06_em_step_equals_likelihood_gradient():
    h = 1e-5
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(1000 + k)
        d = int(rng.integers(1, 8))
        n = int(rng.integers(100, 5001))
        s = float(rng.uniform(0.0, 2.0))
        data = sample_dataset(ModelSpec.along_axis(s, d), n, derive_seed(66, k))
        theta = rng.normal(size=d)
        step = em_map(data, theta) - theta
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (log_likelihood(data, theta + e)
                  - log_likelihood(data, theta - e)) / (2.0 * h)
            worst = max(worst, abs(step[j] - fd))
    ok = worst <= 1e-6
    _report(6, "EM step is the likelihood gradient", ok,
            f"worst |step - FD grad|={worst:.2e} per coordinate (<= 1e-6)")


def test_criterion_07_population_map_stays_in_span(rule):
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(700 + k)
        d = int(rng.integers(2, 9))
        s = float(rng.uniform(0.1, 2.0))
        spec = ModelSpec.along_axis(s, d)
        theta = rng.normal(size=d)
        out = population_map_ddim(theta, spec, rule)
        u1 = spec.direction
        resid = out - (out @ u1) * u1
        v2 = theta - (theta @ u1) * u1
        nv2 = float(np.linalg.norm(v2))
        if nv2 > 1e-12:
            u2 = v2 / nv2
            resid = resid - (resid @ u2) * u2
        worst = max(worst, float(np.linalg.norm(resid)))
    ok = worst < 1e-10
    _report(7, "population map confined to span(center, theta)", ok,
            f"worst out-of-span component={worst:.2e} (< 1e-10)")


def test_criterion_08_two_coordinate_map_inequalities(rule, rule160):
    grid = np.linspace(0.0, 3.0, 13)
    worst_eq = 0.0  # F(0,b) and G(a,0) against zero
    worst_ineq = -math.inf  # violations of the inequality suite
    worst_order = 0.0  # order-80 vs order-160 disagreement
    for s in (0.0, 0.35, 1.0):
        for a in grid:
            fa = f_pop(float(a), s, rule)
            for b in grid:
                F = F_pop(float(a), float(b), s, rule)
                G = G_pop(float(a), float(b), s, rule)
                if a == 0.0:
                    worst_eq = max(worst_eq, abs(F))
                if b == 0.0:
                    worst_eq = max(worst_eq, abs(G))
                worst_ineq = max(worst_ineq,
                                 fg_inequality_violation(float(a), float(b), s, fa, F, G))
                worst_order = max(
                    worst_order,
                    abs(F - F_pop(float(a), float(b), s, rule160)),
                    abs(G - G_pop(float(a), float(b), s, rule160)))
    ok = worst_eq <= 1e-6 and worst_ineq <= 1e-6 and worst_order < 1e-10
    _report(8, "two-coordinate map inequality suite", ok,
            f"worst zero-case={worst_eq:.2e} worst violation={worst_ineq:.2e} "
            f"(<= 1e-6) order-80v160={worst_order:.2e} (< 1e-10)")


def test_criterion_09_ratio_map_shape_and_inverse(rule):
    worst = 0.0
    for s in (0.0, 0.5, 1.0, 2.0):
        qs = [q_pop(float(t), s, rule) for t in np.linspace(0.02, 5.0, 80)]
        assert all(x > y for x, y in zip(qs, qs[1:])), f"q not decreasing at s={s}"
        worst = max(worst, abs(q_pop(0.0, s, rule) - (1.0 + s * s)))
        if s > 0.0:
            worst = max(worst, abs(q_pop(s, s, rule) - 1.0))
    for c in (0.9, 0.99, 1.01):
        worst = max(worst, abs(q_pop(invert_q(c, 1.0, rule), 1.0, rule) - c))
    ok = worst <= 1e-8
    _report(9, "ratio map decreasing, endpoints, inverse", ok,
            f"worst endpoint/round-trip error={worst:.2e} (<= 1e-8)")


def test_criterion_10_sandwich_brackets_sample_trajectory(rule):
    spec = ModelSpec.along_axis(1.0, 1)
    stop = StopRule(max_iters=60, rel_tol=0.0)
    worst = 0.0
    for k in range(50):
        data = sample_dataset(spec, 10_000, derive_seed(1010, k))
        w = w1_squared_empirical(data)
        upper, lower = sandwich_sequences(0.5, 1.0, w, 60, rule)
        traj = run_em(data, np.array([0.5]), stop, spec)
        # the run can hit an exact fixed point of the sample map before 60
        # steps; the trajectory is constant from there, so pad it out
        alpha = traj.alpha
        if alpha.size < upper.size:
            alpha = np.concatenate(
                [alpha, np.full(upper.size - alpha.size, alpha[-1])])
        worst = max(worst,
                    float(np.max(alpha - upper)),
                    float(np.max(lower - alpha)))
    ok = worst <= 1e-12
    _report(10, "measured-width sandwich brackets EM", ok,
            f"worst excursion outside envelopes={worst:.2e} over 50 seeds (<= 1e-12)")


def test_criterion_11_w1_scaling_and_pointwise_bound(rule):
    spec = ModelSpec.along_axis(1.0, 1)
    scaled_means = []
    worst = 0.0
    for i, n in enumerate((1_000, 10_000, 100_000)):
        vals = []
        for k in range(50):
            data = sample_dataset(spec, n, derive_seed(1111, i, k))
            w = w1_squared_empirical(data)
            vals.append(w * math.sqrt(n))
            rng = np.random.default_rng(derive_seed(1111, i, k, 7))
            thetas = rng.uniform(-3.0, 3.0, size=100)
            fn = em_map_batch(data.samples, thetas[:, None])[:, 0]
            for theta, fn_t in zip(thetas, fn):
                delta = abs(fn_t - f_pop(float(theta), 1.0, rule))
                worst = max(worst, delta - abs(theta) * w)
        scaled_means.append(float(np.mean(vals)))
    spread = (max(scaled_means) - min(scaled_means)) / min(scaled_means)
    ok = spread < 0.5 and worst <= 1e-10
    _report(11, "W1 scales as n^(-1/2) and bounds the map deviation", ok,
            f"sqrt(n)-scaled mean spread={spread:.3f} (< 0.5) "
            f"worst bound violation={worst:.2e} (<= 1e-10)")


def test_criterion_12_relative_deviation_scales_root_n(rule):
    t0 = time.perf_counter()
    spec = ModelSpec.along_axis(1.0, 2)
    n_grid = (1_000, 10_000, 100_000, 1_000_000)
    means = []
    for i, n in enumerate(n_grid):
        sups = []
        for k in range(20):
            data = sample_dataset(spec, n, derive_seed(777, i, k, 0))
            grid = default_probe_grid(spec, derive_seed(777, i, k, 1),
                                      n_directions=16, n_radii=12)
            sups.append(relative_lipschitz_probe(data, grid, rule).sup_ratio)
        means.append(float(np.mean(sups)))
    slope, _ = fit_loglog_slope(np.array(n_grid, dtype=float), np.array(means))
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 0.5) <= 0.15 and elapsed < 300.0
    _report(12, "relative deviation sup scales n^(-1/2)", ok,
            f"slope={slope:.4f} (target -0.5 +/- 0.15) elapsed={elapsed:.1f}s/300s")


def test_criterion_13_mle_window_contracts():
    spec = ModelSpec.along_axis(1.0, 2)
    max_ratio = 0.0
    c_lo, c_hi = math.inf, -math.inf
    for k in range(20):
        data = sample_dataset(spec, 100_000, derive_seed(1313, k))
        theta0 = make_init(InitSpec(kind="random_sphere"), data, derive_seed(1313, k, 1))
        probe = mle_contraction_probe(data, theta0, 20, 20)
        assert probe.ratios.size > 0, f"empty contraction window at seed {k}"
        max_ratio = max(max_ratio, probe.max_ratio)
        c_lo, c_hi = min(c_lo, probe.c_hat), max(c_hi, probe.c_hat)
    ok = max_ratio < 1.0 and c_lo > 0.0
    _report(13, "distance to MLE contracts geometrically", ok,
            f"max ratio={max_ratio:.4f} (< 1) fitted c in [{c_lo:.3f}, {c_hi:.3f}] (> 0)")


def test_criterion_14_population_figure_reproduction(rule):
    result = figure2_reproduction(rule)
    err_nm = abs(result.non_monotone_run[-1].alpha - 0.35)
    err_m = abs(result.monotone_run[-1].alpha - 0.35)
    ok = (result.non_monotone_pass and result.monotone_pass
          and err_nm < 1e-2 and err_m < 1e-2)
    _report(14, "overshoot and monotone population runs", ok,
            f"flags=({result.non_monotone_pass}, {result.monotone_pass}) "
            f"final alpha errors=({err_nm:.1e}, {err_m:.1e}) (< 1e-2)")


def test_criterion_15_tanh_supremum_closed_form():
    rng = np.random.default_rng(1500)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-5.0, 5.0, size=2)
        worst = max(worst, abs(tanh_sup_grid_search(x, y) - tanh_sup_ratio(x, y)))
    ok = worst <= 1e-3
    _report(15, "grid-searched tanh supremum matches |x^2-y^2|", ok,
            f"worst |grid - closed form|={worst:.2e} over 100 pairs (<= 1e-3)")


def test_criterion_16_spectral_risk_ordering():
    # the spectral estimator alone (the start is unused) on datasets from derive_seed(1616, gi, k, 0)
    config = ExperimentConfig.from_product(
        [100_000], [10], [0.3, 1.0], replicates=100, init=InitSpec(kind="zero"),
        master_seed=1616, threads=_CORES)
    summaries = risk_compare(config, ("spectral",))["spectral"].summaries
    means = {summary.s: summary.mean_loss[0] for summary in summaries}
    ok = means[1.0] < means[0.3] < 0.3
    _report(16, "spectral start risk ordering in signal strength", ok,
            f"mean loss s=1.0: {means[1.0]:.4f} < s=0.3: {means[0.3]:.4f} < 0.3")
