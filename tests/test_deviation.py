import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from em2gm.deviation import (
    DeviationProbe,
    ProbeGrid,
    default_probe_grid,
    population_map_ddim,
    relative_lipschitz_probe,
    tanh_sup_ratio,
    w1_squared_empirical,
)
from em2gm.model import Dataset, ModelSpec, SampleStream, sample_dataset
from em2gm.population import f_pop
from em2gm.rng import derive_seed
from em2gm.sample_em import em_map
from oracles import tanh_sup_grid_search


def _sq_cdf_ref(t, s):
    u = np.sqrt(t)
    return ndtr(u - s) + ndtr(u + s) - 1.0


def _w1_grid_oracle(samples, s, n_grid=2_000_001):
    # brute-force integral of |F_n - F| on a fine uniform grid
    t = np.sort(samples**2)
    hi = t[-1] + 30.0
    grid = np.linspace(0.0, hi, n_grid)
    emp = np.searchsorted(t, grid, side="right") / t.size
    gap = np.abs(emp - _sq_cdf_ref(grid, s))
    inner = float(np.trapezoid(gap, grid))
    # analytic remainder past the grid: integral of 1 - F
    u = math.sqrt(hi)
    tail = ((1.0 + s * s - hi) * (2.0 - ndtr(u - s) - ndtr(u + s))
            + (u + s) * _phi(u - s) + (u - s) * _phi(u + s))
    return inner + tail


def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_probe_grid_layout():
    grid = ProbeGrid(directions=np.eye(2), radii=np.array([1.0, 2.0, 3.0]))
    thetas = grid.thetas()
    assert thetas.shape == (6, 2)
    np.testing.assert_array_equal(thetas[1], [2.0, 0.0])  # direction-major
    np.testing.assert_array_equal(thetas[5], [0.0, 3.0])


def test_probe_grid_leaves_the_callers_arrays_writeable():
    d, r = np.eye(2), np.array([1.0, 2.0])
    grid = ProbeGrid(d, r)
    assert d.flags.writeable and r.flags.writeable
    assert not grid.directions.flags.writeable and not grid.radii.flags.writeable
    d[0, 0] = r[0] = 5.0  # the grid keeps its own copies
    np.testing.assert_array_equal(grid.thetas()[0], [1.0, 0.0])


def test_probe_grid_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        ProbeGrid(directions=np.eye(2), radii=np.array([1.0, 0.0]))


@pytest.mark.parametrize("radii", [[np.nan], [1.0, np.inf]])
def test_probe_grid_rejects_a_nonfinite_radius(radii):
    with pytest.raises(ValueError, match="radii must be finite and positive"):
        ProbeGrid(directions=np.eye(2), radii=np.array(radii))


@pytest.mark.parametrize("direction, case", [
    ([np.inf, 0.0], "infinite"), ([np.nan, 0.0], "nan"), ([0.0, 0.0], "zero"),
    ([0.6, 0.6], "not unit"), ([1.0 + 1e-11, 0.0], "off unit by 1e-11")])
def test_probe_grid_rejects_a_direction_that_is_not_a_finite_unit_vector(direction, case):
    # the probe divides each gap by its radius, which is |theta| only for a unit direction
    with pytest.raises(ValueError, match="finite unit vectors"):
        ProbeGrid(directions=np.array([[1.0, 0.0], direction]), radii=np.array([1.0]))


def test_probe_grid_accepts_directions_within_1e_12_of_unit_norm():
    ProbeGrid(directions=np.array([[1.0 + 5e-13, 0.0]]), radii=np.array([1.0]))


@pytest.mark.parametrize("directions, radii", [
    (np.empty((0, 2)), np.array([1.0])), (np.empty((1, 0)), np.array([1.0])),
    (np.array([1.0, 0.0]), np.array([1.0])), (np.eye(2), np.array([])),
    (np.eye(2), np.array([[1.0]]))])
def test_probe_grid_rejects_a_bad_shape(directions, radii):
    with pytest.raises(ValueError, match=r"grid shapes must be \(k, d\) and \(m,\)"):
        ProbeGrid(directions=directions, radii=radii)


@pytest.mark.parametrize("d", [1, 2, 10, 64])
def test_default_probe_grid_directions_pass_the_unit_norm_check(d):
    for seed in range(50):
        grid = default_probe_grid(ModelSpec.along_axis(1.0, d), seed, n_directions=8, n_radii=2)
        assert np.all(np.abs(np.linalg.norm(grid.directions, axis=1) - 1.0) <= 1e-12)


def test_default_probe_grid_shape_and_ceiling():
    spec = ModelSpec.along_axis(1.0, 2)
    grid = default_probe_grid(spec, seed=1)
    assert grid.directions.shape == (32, 2)
    assert grid.radii.shape == (24,)
    np.testing.assert_allclose(np.linalg.norm(grid.directions, axis=1), 1.0, atol=1e-12)
    assert grid.radii[0] == pytest.approx(1e-3)
    assert grid.radii[-1] == pytest.approx(10.0 * (math.sqrt(2.0) + 1.0))
    assert np.all(np.diff(grid.radii) > 0)


@pytest.mark.parametrize("counts, name", [((0, 5), "n_directions"), ((4, 0), "n_radii"),
                                          ((-1, 5), "n_directions"), ((4, -1), "n_radii")])
def test_default_probe_grid_rejects_an_empty_grid(counts, name):
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        default_probe_grid(ModelSpec.along_axis(1.0, 2), seed=1, n_directions=counts[0],
                           n_radii=counts[1])


def test_population_map_fixes_truth(rule):
    spec = ModelSpec(np.array([0.6, -0.8]))
    out = population_map_ddim(spec.theta_star, spec, rule)
    np.testing.assert_allclose(out, spec.theta_star, atol=1e-8)


def test_population_map_orthogonal_probe_stays_orthogonal(rule):
    spec = ModelSpec.along_axis(1.0, 3)
    theta = np.array([0.0, 1.3, -0.4])
    out = population_map_ddim(theta, spec, rule)
    assert abs(out[0]) < 1e-10
    # and the image is parallel to the probe
    cross = out[1] * theta[2] - out[2] * theta[1]
    assert abs(cross) < 1e-12


def test_population_map_zero_probe(rule):
    spec = ModelSpec.along_axis(1.0, 2)
    np.testing.assert_array_equal(population_map_ddim(np.zeros(2), spec, rule), np.zeros(2))


def test_population_map_collinear_probe_matches_scalar_map(rule):
    spec = ModelSpec(np.array([0.8, 0.6]))
    for c in (-1.5, 0.3, 2.0):
        out = population_map_ddim(c * spec.direction, spec, rule)
        want = f_pop(c, spec.s, rule) * spec.direction
        np.testing.assert_allclose(out, want, atol=1e-12)


def test_population_map_zero_center_is_radial(rule):
    spec = ModelSpec.along_axis(0.0, 3)
    theta = np.array([0.3, -0.2, 0.6])
    out = population_map_ddim(theta, spec, rule)
    r = float(np.linalg.norm(theta))
    want = f_pop(r, 0.0, rule) * theta / r
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_population_map_commutes_with_rotations_fixing_truth(rule):
    spec = ModelSpec.along_axis(1.0, 3)
    c, s = math.cos(0.7), math.sin(0.7)
    Q = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])  # fixes the axis
    rng = np.random.default_rng(12)
    for _ in range(10):
        theta = rng.normal(size=3)
        lhs = population_map_ddim(Q @ theta, spec, rule)
        rhs = Q @ population_map_ddim(theta, spec, rule)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_population_map_monte_carlo_oracle(rule):
    spec = ModelSpec.along_axis(1.0, 2)
    theta = np.array([0.6, -0.4])
    rng = np.random.default_rng(321)
    signs = np.where(rng.random(1_000_000) < 0.5, 1.0, -1.0)
    y = rng.standard_normal((1_000_000, 2))
    y[:, 0] += signs
    mc = (np.tanh(y @ theta)[:, None] * y).mean(axis=0)
    np.testing.assert_allclose(population_map_ddim(theta, spec, rule), mc, atol=5e-3)


def test_relative_probe_single_point_grid(rule):
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 5_000, 40)
    grid = ProbeGrid(directions=spec.direction[None, :], radii=np.array([spec.s]))
    probe = relative_lipschitz_probe(data, grid, rule)
    want = float(np.linalg.norm(em_map(data, spec.theta_star) - spec.theta_star)) / spec.s
    assert probe.sup_ratio == pytest.approx(want, abs=1e-8)
    assert probe.ratios.shape == (1,)


def test_relative_probe_fields_consistent(rule):
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 2_000, 41)
    grid = default_probe_grid(spec, seed=42, n_directions=4, n_radii=5)
    probe = relative_lipschitz_probe(data, grid, rule)
    assert probe.sup_ratio == float(probe.ratios.max())
    assert probe.grid.shape == (20, 2)
    np.testing.assert_array_equal(probe.direction_ids, np.repeat(np.arange(4), 5))
    assert np.all(probe.ratios >= 0.0)


def test_deviation_probe_csv(tmp_path, rule):
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 500, 43)
    grid = default_probe_grid(spec, seed=44, n_directions=2, n_radii=3)
    probe = relative_lipschitz_probe(data, grid, rule)
    path = tmp_path / "probe.csv"
    probe.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "direction_id,radius,ratio"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == probe.radii[0]


def test_w1_matches_brute_force_grid_integral():
    for s, seed in [(0.0, 50), (1.0, 51)]:
        spec = ModelSpec.along_axis(s, 1)
        data = sample_dataset(spec, 1_000, seed)
        exact = w1_squared_empirical(data)
        approx = _w1_grid_oracle(data.samples[:, 0], s)
        assert exact == pytest.approx(approx, abs=1e-6)


def test_w1_quantile_matched_sample_is_near_optimal():
    # empirical measure sitting on the population quantiles gives W1 of
    # order (range of the law) / (2n); the value is pinned against the
    # independent grid oracle above
    n = 1_000
    levels = (np.arange(n) + 0.5) / n
    t = ndtri((1.0 + levels) / 2.0) ** 2  # population quantiles of Y^2 at s=0
    spec = ModelSpec.along_axis(0.0, 1)
    data = Dataset(samples=np.sqrt(t)[:, None], spec=spec)
    w1 = w1_squared_empirical(data)
    assert w1 == pytest.approx(_w1_grid_oracle(data.samples[:, 0], 0.0), abs=1e-6)
    assert w1 < 5e-3


def test_w1_rejects_multivariate_data():
    data = sample_dataset(ModelSpec.along_axis(1.0, 2), 100, 0)
    with pytest.raises(ValueError):
        w1_squared_empirical(data)


def test_w1_bounds_scalar_deviation(rule):
    spec = ModelSpec.along_axis(1.0, 1)
    data = sample_dataset(spec, 2_000, 52)
    w1 = w1_squared_empirical(data)
    rng = np.random.default_rng(52)
    for _ in range(100):
        theta = float(rng.uniform(-3.0, 3.0))
        gap = abs(float(em_map(data, np.array([theta]))[0]) - f_pop(theta, 1.0, rule))
        assert gap <= abs(theta) * w1 + 1e-10


def test_grid_sup_never_exceeds_w1_in_one_dimension(rule):
    spec = ModelSpec.along_axis(1.0, 1)
    data = sample_dataset(spec, 2_000, 53)
    w1 = w1_squared_empirical(data)
    grid = default_probe_grid(spec, seed=54, n_directions=2, n_radii=16)
    probe = relative_lipschitz_probe(data, grid, rule)
    assert probe.sup_ratio <= w1 + 1e-10


def test_tanh_sup_closed_form():
    assert tanh_sup_ratio(1.0, 0.0) == 1.0
    assert tanh_sup_ratio(1.7, 1.7) == 0.0
    assert tanh_sup_ratio(2.0, 1.0) == 3.0
    assert tanh_sup_ratio(-2.0, 1.0) == 3.0
    with pytest.raises(ValueError):
        tanh_sup_ratio(math.inf, 0.0)


def test_tanh_sup_grid_search_brackets_closed_form():
    got = tanh_sup_grid_search(2.0, 1.0)
    assert got <= 3.0 + 1e-6
    assert got >= 3.0 - 1e-3


def test_streamed_probe_holds_no_n_by_d_samples(rule):
    # d=2, n=1e6 and the 16 x 12 grid on two workers: the (2, 1e6) float64
    # samples alone are 15.3 MiB; the stream holds a block of rows per worker,
    # each worker's kernel buffer and the block sums
    spec = ModelSpec.along_axis(1.0, 2)
    grid = default_probe_grid(spec, derive_seed(5, 1), n_directions=16, n_radii=12)
    data = SampleStream(spec, 1_000_000, 5)
    with mock.patch.object(os, "cpu_count", return_value=2):
        relative_lipschitz_probe(SampleStream(spec, 1000, 5), grid, rule)
        tracemalloc.start()
        try:
            probe = relative_lipschitz_probe(data, grid, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert probe.ratios.size == 192
    assert peak <= 6 * 2**20, peak / 2**20
