import math

import numpy as np
import pytest

from em2gm.initializers import InitSpec, make_init, random_sphere_init, spectral_init
from em2gm.model import Dataset, ModelSpec, loss, sample_dataset
from em2gm.rng import derive_seed


def test_init_spec_validation():
    with pytest.raises(ValueError):
        InitSpec(kind="nope")
    with pytest.raises(ValueError):
        InitSpec(kind="fixed")  # fixed requires a value
    with pytest.raises(ValueError):
        InitSpec(kind="zero", fixed_value=(1.0,))
    with pytest.raises(ValueError):
        InitSpec(kind="random_sphere", c0=0.0)
    for c0 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="c0 must be finite and positive"):
            InitSpec(kind="random_sphere", c0=c0)
    with pytest.raises(ValueError, match="fixed_value must be finite"):
        InitSpec(kind="fixed", fixed_value=(1.0, math.nan))


def test_random_sphere_radius_is_exact():
    theta = random_sphere_init(16, 10_000, 1.0, seed=4)
    want = (16 * math.log(10_000) / 10_000) ** 0.25
    assert float(np.linalg.norm(theta)) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.3484, abs=5e-4)


def test_random_sphere_scales_with_c0():
    a = random_sphere_init(4, 1000, 1.0, seed=9)
    b = random_sphere_init(4, 1000, 2.5, seed=9)
    np.testing.assert_allclose(b, 2.5 * a, atol=1e-14)


def test_random_sphere_deterministic():
    np.testing.assert_array_equal(random_sphere_init(8, 500, 1.0, 77),
                                  random_sphere_init(8, 500, 1.0, 77))
    assert np.any(random_sphere_init(8, 500, 1.0, 77)
                  != random_sphere_init(8, 500, 1.0, 78))


def test_random_sphere_direction_is_uniform():
    # the empirical mean of uniform sphere points concentrates at 0
    dirs = np.stack([random_sphere_init(3, 100, 1.0, seed) for seed in range(2000)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert float(np.linalg.norm(dirs.mean(axis=0))) < 0.05


def test_random_sphere_rejects_tiny_n():
    with pytest.raises(ValueError):
        random_sphere_init(3, 1, 1.0, 0)


def test_spectral_zero_data_returns_zero():
    spec = ModelSpec.along_axis(1.0, 3)
    data = Dataset(samples=np.zeros((10, 3)), spec=spec)
    np.testing.assert_array_equal(spectral_init(data), np.zeros(3))


def test_spectral_planted_rank_one():
    v = np.array([1.2, -1.6])  # norm 2, so the top eigenvalue is 4
    rows = np.array([v, -v, v, -v, v, -v])
    spec = ModelSpec(v)
    data = Dataset(samples=rows, spec=spec)
    got = spectral_init(data)
    want = (math.sqrt(3.0) / 2.0) * v
    assert loss(got, want) < 1e-8


def test_spectral_risk_at_moderate_signal():
    spec = ModelSpec.along_axis(1.0, 5)
    hits = 0
    for k in range(100):
        data = sample_dataset(spec, 100_000, derive_seed(31, k))
        if loss(spectral_init(data), spec.theta_star) <= 0.1:
            hits += 1
    assert hits >= 95


def test_spectral_residual_contract():
    for s, d, seed in [(1.0, 5, 1), (0.3, 4, 2), (2.0, 8, 3)]:
        spec = ModelSpec.along_axis(s, d)
        data = sample_dataset(spec, 20_000, seed)
        out = spectral_init(data)
        norm = float(np.linalg.norm(out))
        assert norm > 0.0
        lam = norm * norm + 1.0
        eta = out / norm
        sigma = data.samples.T @ data.samples / data.n
        resid = float(np.linalg.norm(sigma @ eta - lam * eta))
        assert resid <= 2e-8 * lam


def test_spectral_undetectable_signal_clamps_to_zero():
    # pure noise keeps the top sample eigenvalue below 1 for small n/d ratios
    spec = ModelSpec.along_axis(0.0, 2)
    seen_zero = False
    for seed in range(10):
        data = sample_dataset(spec, 50_000, seed)
        out = spectral_init(data)
        seen_zero = seen_zero or not np.any(out)
        assert float(np.linalg.norm(out)) < 0.2
    # not asserting seen_zero: the clamp fires only when lambda <= 1


def test_spectral_is_the_exact_top_eigenpair():
    # weak signal, where power iteration would stall on the near-tied top pair
    for s, seed in ((0.5, 12), (0.1, 13)):
        data = sample_dataset(ModelSpec.along_axis(s, 4), 5_000, seed)
        evals, evecs = np.linalg.eigh(data.samples.T @ data.samples / data.n)
        want = math.sqrt(evals[-1] - 1.0) * evecs[:, -1]
        assert loss(spectral_init(data), want) < 1e-12


def test_make_init_dispatch():
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 1000, 6)
    np.testing.assert_array_equal(make_init(InitSpec(kind="zero"), data, 5), np.zeros(2))
    fixed = make_init(InitSpec(kind="fixed", fixed_value=(0.3, -0.4)), data, 5)
    np.testing.assert_array_equal(fixed, [0.3, -0.4])
    sphere = make_init(InitSpec(kind="random_sphere"), data, 5)
    np.testing.assert_array_equal(sphere, random_sphere_init(2, 1000, 1.0, 5))
    np.testing.assert_array_equal(make_init(InitSpec(kind="spectral"), data, 5),
                                  spectral_init(data))


def test_make_init_fixed_dimension_mismatch():
    spec = ModelSpec.along_axis(1.0, 3)
    data = sample_dataset(spec, 100, 0)
    with pytest.raises(ValueError):
        make_init(InitSpec(kind="fixed", fixed_value=(1.0,)), data, 0)
