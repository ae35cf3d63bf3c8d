import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from em2gm import model
from em2gm.model import (
    Dataset,
    ModelSpec,
    SampleStream,
    log_likelihood,
    logcosh,
    loss,
    sample_dataset,
)
from em2gm.rng import derive_seed, make_generator, open_uniforms
from em2gm.sample_em import em_map
from oracles import chi2_to_standard, grad_log_likelihood, sample_rows_reference


def test_spec_infers_dimension_and_norm():
    spec = ModelSpec(np.array([3.0, 4.0]))
    assert spec.d == 2
    assert spec.s == 5.0
    np.testing.assert_allclose(spec.direction, [0.6, 0.8])


def test_spec_along_axis():
    spec = ModelSpec.along_axis(1.5, 3)
    np.testing.assert_array_equal(spec.theta_star, [1.5, 0.0, 0.0])
    assert spec.s == 1.5


def test_spec_zero_center_has_no_direction():
    assert ModelSpec.along_axis(0.0, 2).direction is None


def test_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        ModelSpec(np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        ModelSpec.along_axis(-0.1, 2)
    with pytest.raises(ValueError):
        ModelSpec.along_axis(1.0, 0)


def test_spec_theta_star_is_read_only():
    spec = ModelSpec.along_axis(1.0, 2)
    with pytest.raises(ValueError):
        spec.theta_star[0] = 2.0


def test_sample_dataset_is_deterministic():
    spec = ModelSpec.along_axis(1.0, 3)
    a = sample_dataset(spec, 500, 42)
    b = sample_dataset(spec, 500, 42)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.any(a.samples != sample_dataset(spec, 500, 43).samples)


def test_sample_dataset_shapes_and_immutability():
    spec = ModelSpec.along_axis(0.5, 2)
    data = sample_dataset(spec, 100, 0)
    assert data.samples.shape == (100, 2)
    assert data.n == 100 and data.d == 2
    with pytest.raises(ValueError):
        data.samples[0, 0] = 0.0


def test_sample_dataset_labels_are_signs():
    spec = ModelSpec.along_axis(2.0, 1)
    data = sample_dataset(spec, 1000, 5)
    # the latent signs, recomputed from the seed the way sample_dataset draws them
    u = open_uniforms(make_generator(5), (1000, 2))
    signs = np.where(u[:, 0] < 0.5, 1.0, -1.0)
    assert set(np.unique(signs)) == {-1.0, 1.0}
    # removing the signed center must leave standard normal residuals
    z = data.samples[:, 0] - signs * 2.0
    assert abs(float(z.mean())) < 0.15
    assert abs(float(z.std()) - 1.0) < 0.1


@pytest.mark.parametrize("s,d", [(0.0, 1), (1.5, 1), (0.0, 3), (1.5, 3)])
def test_sample_dataset_stores_feature_major_block(s, d):
    spec = ModelSpec.along_axis(s, d)
    data = sample_dataset(spec, 700, 13)
    block = data.samples.T
    assert block.shape == (d, 700)
    assert block.flags.c_contiguous and not block.flags.writeable
    # the values are those of the row-major recipe, bit for bit
    u = open_uniforms(make_generator(13), (700, d + 1))
    signs = np.where(u[:, 0] < 0.5, 1.0, -1.0)
    rows = ndtri(u[:, 1:]) + signs[:, None] * spec.theta_star if s else ndtri(u[:, 1:])
    assert data.samples.tobytes() == rows.tobytes()


@pytest.mark.parametrize("theta_star", [[0.0, 1.25, 0.0], [0.7, 0.0, -1.9, 0.3]])
def test_sample_dataset_matches_the_broadcast_recipe(theta_star):
    # an axis center and a general center with a zero coordinate: the bytes
    # of adding theta_star[:, None] * signs[None, :] to every row
    spec = ModelSpec(np.array(theta_star))
    u = open_uniforms(make_generator(14), (3000, spec.d + 1))
    signs = np.where(u[:, 0] < 0.5, 1.0, -1.0)
    want = ndtri(u[:, 1:].T) + spec.theta_star[:, None] * signs[None, :]
    assert sample_dataset(spec, 3000, 14).samples.T.tobytes() == want.tobytes()


@st.composite
def _centers(draw):
    # s = 0, a center on an axis, or a general center with zero coordinates
    d = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["zero", "axis", "general"]))
    if kind == "zero":
        return ModelSpec(np.zeros(d))
    if kind == "axis":
        return ModelSpec.along_axis(draw(st.floats(1e-3, 5.0)), d)
    coords = st.one_of(st.just(0.0), st.floats(-5.0, 5.0, allow_subnormal=False))
    return ModelSpec(np.array(draw(st.lists(coords, min_size=d, max_size=d))))


@settings(max_examples=80, deadline=None)
@given(_centers(), st.integers(1, 8), st.integers(0, 6), st.integers(-1, 1),
       st.integers(0, 2**64 - 1), st.data())
def test_sample_dataset_is_the_one_shot_recipe_across_chunks(spec, rows, chunks, edge, seed,
                                                           data):
    # chunks of ``rows`` rows (plus a few spare bytes), n on either side of a
    # chunk edge: the bytes of drawing and transforming all n rows at once
    nbytes = rows * (spec.d + 1) * 8 + data.draw(st.integers(0, (spec.d + 1) * 8 - 1))
    n = max(1, chunks * rows + edge)
    with mock.patch.object(model, "_DRAW_BYTES", nbytes):
        got = sample_dataset(spec, n, seed)
    assert got.samples.T.tobytes() == sample_rows_reference(spec, n, seed).T.tobytes()


# rows per chunk of _draw_rows: 8192 at d = 1, 1489 at d = 10
@pytest.mark.parametrize("d, chunk", [(1, 8192), (10, 1489)])
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_float32_samples_are_the_float64_ones_rounded(d, chunk, s):
    spec = ModelSpec.along_axis(s, d)
    assert model._DRAW_BYTES // ((d + 1) * 8) == chunk
    for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        got = sample_dataset(spec, n, 31 + n, np.float32)
        assert got.samples.dtype == np.float32 and got.samples.T.flags.c_contiguous
        want = sample_dataset(spec, n, 31 + n).samples.astype(np.float32)
        assert got.samples.tobytes() == want.tobytes(), n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3000), st.sampled_from([0.0, 1.0, 2.5]),
       st.integers(0, 2**64 - 1))
def test_float32_dataset_rounds_each_sample_of_the_float64_one(d, n, s, seed):
    spec = ModelSpec.along_axis(s, d)
    got = sample_dataset(spec, n, seed, np.float32).samples
    assert got.tobytes() == sample_dataset(spec, n, seed).samples.astype(np.float32).tobytes()


@pytest.mark.parametrize("d, s", [(1, 0.0), (2, 1.0), (10, 0.3)])
def test_sample_dataset_peak_memory_is_the_block_and_one_chunk(d, s):
    # the (d, n) block and 4 * _DRAW_BYTES (512 KiB) for one chunk of
    # uniforms and its signs, or for one leaf of Dataset's finite check and
    # row-norm sum: measured 270-322 KiB above the block, against 1.2-2.0 MiB
    # with 1 MiB chunks and leaves; n = 1e5 at d = 10 as in the risk-10d cells
    n, spec = (100_000 if d == 10 else 1_000_000), ModelSpec.along_axis(s, d)
    sample_dataset(spec, 1000, 0)
    tracemalloc.start()
    try:
        sample_dataset(spec, n, 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * d * 8 + 4 * model._DRAW_BYTES, (peak - n * d * 8) / 2**10


def test_float32_log_likelihood_holds_two_blocks_beside_its_samples():
    # d = 1, n = 2e6 float32 samples (7.63 MiB), blocks of 512 KiB: the
    # likelihood pass holds the projections and one scratch block, and the
    # kernel's set-up (block views and reductions, 21 KB measured); sampling
    # peaks below that. Measured 2.04 blocks above the samples, against 4.04
    # when each block's logcosh allocated its own temporaries.
    n, spec = 2_000_000, ModelSpec.along_axis(0.0, 1)
    log_likelihood(sample_dataset(spec, 1000, 0, np.float32), np.ones(1))
    tracemalloc.start()
    try:
        data = sample_dataset(spec, n, 7, np.float32)
        log_likelihood(data, np.ones(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = model._block(1, 1, 4) * 4
    assert peak < n * 4 + 2 * block + 2**15, (peak - n * 4) / block


@pytest.mark.parametrize("theta_star, n, seed, digest", [
    ([0.0], 200_000, 11, "f6e00f5430c88fd81121983ee44b43695192fc20ed56770b7d5bfc16581d27fa"),
    ([0.7, 0.0, -1.9], 50_000, 12,
     "627a691682637c98e409d800487d521c6a8ffbb7f9ef4ea6a86727b08d3c57eb"),
    ([0.3] + [0.0] * 9, 30_000, 13,
     "484bd783a6e5104403d5e0ae7b44800c155f50e82159890971625a59c3cb5dc5"),
])
def test_sample_dataset_golden_bytes(theta_star, n, seed, digest):
    # each case spans several chunks; a change that moves any sampled bit fails here
    data = sample_dataset(ModelSpec(np.array(theta_star)), n, seed)
    assert hashlib.sha256(data.samples.T.tobytes()).hexdigest() == digest


def test_dataset_normalizes_other_layouts_once():
    spec = ModelSpec.along_axis(1.0, 3)
    rows = np.arange(12.0).reshape(4, 3)  # C-ordered and writable
    data = Dataset(samples=rows, spec=spec)
    assert data.samples.T.flags.c_contiguous and not data.samples.T.flags.writeable
    np.testing.assert_array_equal(data.samples, rows)
    rows[0, 0] = 99.0  # the dataset holds its own copy
    assert data.samples[0, 0] == 0.0
    # an already normalized block is taken as it is
    assert Dataset(samples=data.samples, spec=spec).samples is data.samples


@pytest.mark.parametrize("d", [1, 3, 10])
def test_squared_norm_term_is_the_row_major_expression(d):
    # the documented expression over the stored (feature-major) samples; a
    # C-ordered copy would sum each row's squares in another order at d >= 3
    for seed in range(20):
        data = sample_dataset(ModelSpec.along_axis(1.0, d), 2000, seed)
        sq = float(np.mean(np.einsum("ij,ij->i", data.samples, data.samples)))
        assert data.mean_sq_norm == sq, seed
        theta = np.linspace(0.3, 0.7, d)
        want = (-0.5 * sq - 0.5 * d * math.log(2 * math.pi)
                - 0.5 * float(theta @ theta) + float(np.mean(logcosh(data.samples @ theta))))
        assert log_likelihood(data, theta) == pytest.approx(want, rel=1e-15), seed
        if d == 1:
            assert log_likelihood(data, theta) == want, seed


@st.composite
def _layouts(draw):
    # (samples, the leaf bytes to patch in): a sampled (d, n) block, or rows
    # in a layout that Dataset copies, in float64 or float32, over n from 1
    # to several leaves; leaf bytes below 128 rows exercise the 128-row floor
    d = draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    nbytes = draw(st.integers(8, 400 * d * 8))
    n = draw(st.integers(1, 6 * max(128, nbytes // (d * np.dtype(dtype).itemsize))))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["sampled", "c_rows", "f_rows", "strided", "read_only_rows"]))
    if kind == "sampled":
        with mock.patch.object(model, "_DRAW_BYTES", nbytes):
            return sample_dataset(ModelSpec.along_axis(0.8, d), n, seed, dtype).samples, nbytes
    rows = (3.0 * np.random.default_rng(seed).standard_normal((2 * n, d))).astype(dtype)
    if kind == "c_rows":
        rows = rows[:n].copy()
    elif kind == "f_rows":
        rows = np.asfortranarray(rows[:n])
    elif kind == "strided":
        rows = rows[::2]
    else:
        rows = rows[:n].copy()
        rows.setflags(write=False)
    return rows, nbytes


@settings(max_examples=150, deadline=None)
@given(_layouts())
def test_mean_sq_norm_is_the_one_shot_expression_bitwise(layout):
    samples, nbytes = layout
    spec = ModelSpec.along_axis(1.0, samples.shape[1])
    with mock.patch.object(model, "_DRAW_BYTES", nbytes):
        data = Dataset(samples=samples, spec=spec)
    rows = data.samples
    assert rows.dtype == samples.dtype
    assert rows.tobytes() == np.ascontiguousarray(samples).tobytes()
    # float32 rows are squared and summed in float64; for float64 rows the
    # dtype changes no bit (test_squared_norm_term_is_the_row_major_expression)
    want = float(np.mean(np.einsum("ij,ij->i", rows, rows, dtype=np.float64)))
    assert data.mean_sq_norm.hex() == want.hex()


@pytest.mark.parametrize("copied", [False, True])
def test_dataset_finds_nonfinite_samples_in_every_leaf(copied):
    # leaves of 128 rows: n = 5 * 128 + 37 splits into 8 leaves of 80 to 93
    # rows, the last of 93; a NaN or an infinity at any row raises, in a
    # sampled (d, n) block or in writable C-ordered rows that Dataset copies
    d, n = 3, 5 * 128 + 37
    spec = ModelSpec.along_axis(1.0, d)
    rows = sample_dataset(spec, n, 4).samples
    with mock.patch.object(model, "_DRAW_BYTES", 128 * d * 8):
        assert Dataset(samples=rows, spec=spec).samples is rows
        for i in range(n):
            for bad in (math.nan, math.inf, -math.inf):
                yt = rows.T.copy()
                yt[i % d, i] = bad
                if copied:
                    samples = np.ascontiguousarray(yt.T)
                else:
                    yt.setflags(write=False)
                    samples = yt.T
                with pytest.raises(ValueError, match="finite"):
                    Dataset(samples=samples, spec=spec)


def test_dataset_validates_dimension():
    spec = ModelSpec.along_axis(1.0, 2)
    with pytest.raises(ValueError):
        Dataset(samples=np.zeros((5, 3)), spec=spec)


@pytest.mark.parametrize("dtype", [np.float16, np.int64, np.complex128, np.bool_])
def test_dataset_rejects_samples_that_are_not_float32_or_float64(dtype):
    # float16 and complex128 would run the kernel in their own precision and
    # int64 and bool fail inside it; the dtype is named at construction
    spec = ModelSpec.along_axis(1.0, 2)
    rows = np.random.default_rng(3).standard_normal((1000, 2))
    with pytest.raises(ValueError, match=f"float32 or float64, got {np.dtype(dtype)}"):
        Dataset(samples=rows.astype(dtype), spec=spec)
    for ok in (np.float32, np.float64):
        assert Dataset(samples=rows.astype(ok), spec=spec).samples.dtype == ok


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dataset_rejects_nonfinite_samples(bad):
    spec = ModelSpec.along_axis(1.0, 2)
    rows = np.ones((5, 2))
    rows[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset(samples=rows, spec=spec)


class _TopUniformGenerator:
    # random() at its largest value, 1 - 2**-53, which open_uniforms rounds
    # up to 1.0 before its clamp
    def random(self, shape):
        return np.full(shape, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("d", [1, 3])
def test_sample_dataset_is_finite_at_the_top_uniform(d):
    with mock.patch.object(model, "make_generator", lambda seed: _TopUniformGenerator()):
        data = sample_dataset(ModelSpec.along_axis(1.0, d), 1000, 0)
    # every sign is -1 (a uniform above 1/2), every normal ndtri(1 - 2**-53)
    assert np.all(np.isfinite(data.samples))
    assert np.all(data.samples == ndtri(1.0 - 2.0 ** -53) - np.eye(d)[0])


def test_loss_symmetries():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert loss(a, b) == pytest.approx(loss(b, a), abs=1e-12)
        assert loss(a, b) == pytest.approx(loss(-a, b), abs=1e-12)
        assert loss(a, a) == 0.0


def test_loss_triangle_inequality_on_sign_quotient():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b, c = rng.normal(size=(3, 5))
        assert loss(a, c) <= loss(a, b) + loss(b, c) + 1e-12


_coords = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    *(st.lists(_coords, min_size=d, max_size=d).map(np.array) for _ in range(3)))))
def test_loss_is_a_metric_on_the_sign_quotient(vectors):
    a, b, c = vectors
    assert loss(a, b) == loss(b, a)
    assert loss(a, b) == loss(-a, b) == loss(a, -b) == loss(-a, -b)
    assert loss(a, a) == loss(a, -a) == 0.0
    scale = float(np.linalg.norm(a) + np.linalg.norm(b) + np.linalg.norm(c))
    assert loss(a, c) <= loss(a, b) + loss(b, c) + 1e-12 * scale


def test_loss_of_zero_estimator_is_exactly_s():
    spec = ModelSpec(np.array([0.3, -1.2, 0.4]))
    assert loss(np.zeros(3), spec.theta_star) == spec.s


def test_loss_rejects_length_mismatch():
    with pytest.raises(ValueError):
        loss(np.zeros(2), np.zeros(3))


def test_logcosh_matches_naive_formula_in_safe_range():
    x = np.linspace(-20, 20, 401)
    np.testing.assert_allclose(logcosh(x), np.log(np.cosh(x)), atol=1e-12)


def test_logcosh_saturates_without_overflow():
    x = np.array([1e3, 1e6, -1e6])
    got = logcosh(x)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, np.abs(x) - math.log(2.0), rtol=0, atol=1e-12)


def test_log_likelihood_matches_naive_density_sum():
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 50, 11)
    theta = np.array([0.7, -0.3])
    dens = 0.5 * (
        np.exp(-0.5 * np.sum((data.samples - theta) ** 2, axis=1))
        + np.exp(-0.5 * np.sum((data.samples + theta) ** 2, axis=1))
    ) / (2 * math.pi)
    assert log_likelihood(data, theta) == pytest.approx(float(np.mean(np.log(dens))), abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("s", [0.0, 1.0])
def test_float32_log_likelihood_is_the_float64_one_within_rounding(d, s):
    # the same float32 samples held in float64: the logcosh terms differ by a
    # few float32 roundings of |<theta, y>| + log 2 each, so by at most
    # 4 eps32 (1 + |theta| sqrt(mean |y|^2)); the largest difference measured
    # was 1.07 eps32 times that scale, over d in {1, 2, 3, 10}, s in
    # {0, 0.5, 1, 2}, n from 2 to 1e6 and these thetas
    eps = float(np.finfo(np.float32).eps)
    spec = ModelSpec.along_axis(s, d)
    low = sample_dataset(spec, 20_000, 41 + d, np.float32)
    high = Dataset(samples=low.samples.astype(np.float64), spec=spec)
    assert low.mean_sq_norm == high.mean_sq_norm
    for theta in (np.zeros(d), np.full(d, 0.05), spec.theta_star + 0.1,
                  np.linspace(-2.0, 3.0, d), np.full(d, 30.0)):
        bound = 4 * eps * (1 + np.linalg.norm(theta) * math.sqrt(high.mean_sq_norm))
        got, want = log_likelihood(low, theta), log_likelihood(high, theta)
        assert abs(got - want) <= bound, (theta, got - want, bound)


def test_log_likelihood_finite_for_huge_arguments():
    spec = ModelSpec.along_axis(1.0, 2)
    data = sample_dataset(spec, 100, 1)
    theta = np.array([1e5, 1e5])  # |<theta, y>| well above the cosh overflow point
    assert math.isfinite(log_likelihood(data, theta))


def test_gradient_identity_is_bitwise():
    for d in (1, 3):  # d=1 takes the elementwise inner product, d=3 the matmul
        spec = ModelSpec.along_axis(0.8, d)
        data = sample_dataset(spec, 400, 9)
        rng = np.random.default_rng(9)
        for _ in range(10):
            theta = rng.normal(size=d)
            gap = em_map(data, theta) - theta - grad_log_likelihood(data, theta)
            assert np.all(gap == 0.0)


def test_gradient_matches_finite_differences():
    spec = ModelSpec.along_axis(1.2, 3)
    data = sample_dataset(spec, 800, derive_seed(66, 0))
    theta = np.array([0.4, -0.9, 0.2])
    g = grad_log_likelihood(data, theta)
    h = 1e-5
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (log_likelihood(data, theta + e) - log_likelihood(data, theta - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, abs=1e-8)


def test_chi2_closed_form():
    theta = np.array([0.6, 0.8])  # |theta|^2 = 1
    assert chi2_to_standard(theta) == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-14)
    assert chi2_to_standard(np.zeros(4)) == 0.0


def test_chi2_small_theta_no_cancellation():
    # cosh(r) - 1 evaluated naively loses all digits near r = 1e-4; the
    # series value r^2/2 + r^4/24 is exact to working precision there.
    theta = np.array([1e-2])
    r = 1e-4
    assert chi2_to_standard(theta) == pytest.approx(r * r / 2 + r**4 / 24, rel=1e-12)


def test_chi2_depends_on_norm_only():
    a = chi2_to_standard(np.array([1.0, 2.0, 2.0]))
    b = chi2_to_standard(np.array([3.0, 0.0, 0.0]))
    assert a == pytest.approx(b, rel=1e-14)


def test_chi2_overflows_to_infinity():
    assert chi2_to_standard(np.array([30.0])) == math.inf


def test_chi2_monte_carlo_oracle():
    # importance estimate under N(0, I): with r the density ratio of the
    # mixture to the standard normal, chi2 = E[r^2] - 1.
    theta = np.array([0.8, 0.6])
    rng = np.random.default_rng(123)
    y = rng.standard_normal((2_000_000, 2))
    r = np.exp(-0.5 * float(theta @ theta)) * np.cosh(y @ theta)
    est = float(np.mean(r * r)) - 1.0
    assert chi2_to_standard(theta) == pytest.approx(est, abs=0.02)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.sampled_from([0.0, 0.7]), st.integers(0, 400), st.integers(0, 3),
       st.integers(1, 700), st.integers(0, 2**32 - 1))
def test_rows_from_a_positioned_stream_are_that_slice_of_the_dataset(d, s, quads, rest, count,
                                                                      seed):
    # rows [a, b) drawn from row a on, over every row offset mod 4 and chunk
    # edges (chunks of 128 rows here, in the dataset and in the one read of
    # the stream), equal those rows of sample_dataset
    a = 4 * quads + rest
    spec = ModelSpec.along_axis(s, d)
    cols = np.empty((d, count))
    with mock.patch.object(model, "_DRAW_BYTES", 128 * (d + 1) * 8):
        want = sample_dataset(spec, a + count, seed).samples.T[:, a:]
        SampleStream(spec, a + count, seed).reader(a)(cols)
    assert cols.tobytes() == np.ascontiguousarray(want).tobytes()


def test_a_sample_stream_has_the_dataset_shape_and_rejects_no_rows():
    assert SampleStream(ModelSpec.along_axis(1.0, 3), 10, 0).shape == (10, 3)
    with pytest.raises(ValueError, match="n must be >= 1"):
        SampleStream(ModelSpec.along_axis(1.0, 3), 0, 0)


@pytest.mark.parametrize("d", [1, 2, 10])
def test_sampling_draws_at_most_draw_bytes_of_uniforms_at_a_time(monkeypatch, d):
    # a dataset and one read of a large block of a stream, each far over one
    # chunk: every draw of uniforms is at most _DRAW_BYTES and all of them
    # together are the n rows
    uniforms, shapes = model.open_uniforms, []
    monkeypatch.setattr(model, "open_uniforms",
                        lambda rng, shape: shapes.append(shape) or uniforms(rng, shape))
    spec, n = ModelSpec.along_axis(1.0, d), 20 * model._DRAW_BYTES // ((d + 1) * 8) + 3
    sample_dataset(spec, n, 7)
    SampleStream(spec, n, 7).reader(0)(np.empty((d, n)))
    assert sum(rows for rows, _ in shapes) == 2 * n
    assert all(rows * cols * 8 <= model._DRAW_BYTES and cols == d + 1 for rows, cols in shapes)
