import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from em2gm import model, sample_em
from em2gm.model import Dataset, ModelSpec, SampleStream, log_likelihood, sample_dataset
from em2gm.rng import derive_seed
from em2gm.sample_em import (
    StopReason,
    StopRule,
    Trajectory,
    em_jacobian,
    em_map,
    em_map_batch,
    iterate_em,
    run_em,
)
from oracles import blas_threads_or_skip, grad_log_likelihood


def _data(s=1.0, d=2, n=500, seed=0):
    return sample_dataset(ModelSpec.along_axis(s, d), n, seed)


def test_em_map_fixes_origin():
    data = _data()
    np.testing.assert_array_equal(em_map(data, np.zeros(2)), np.zeros(2))


def test_em_map_antisymmetric():
    data = _data(seed=3)
    theta = np.array([0.4, -1.1])
    np.testing.assert_array_equal(em_map(data, -theta), -em_map(data, theta))


def test_em_map_saturated_single_sample():
    spec = ModelSpec.along_axis(1.0, 1)
    data = Dataset(samples=np.array([[2.0]]), spec=spec)
    out = em_map(data, np.array([10.0]))
    assert out[0] == pytest.approx(2.0 * math.tanh(20.0), abs=1e-12)
    assert out[0] == pytest.approx(2.0, abs=1e-8)


def test_em_map_range_bound():
    data = _data(s=2.0, d=3, n=200, seed=7)
    cap = math.sqrt(float(np.mean(np.sum(data.samples**2, axis=1))))
    rng = np.random.default_rng(7)
    for _ in range(25):
        theta = rng.normal(size=3) * rng.uniform(0, 10)
        assert float(np.linalg.norm(em_map(data, theta))) <= cap + 1e-12


def test_em_map_lipschitz_in_sample_covariance_norm():
    data = _data(s=1.0, d=3, n=300, seed=11)
    sig = data.samples.T @ data.samples / data.n
    lip = float(np.linalg.eigvalsh(sig)[-1])
    rng = np.random.default_rng(11)
    for _ in range(50):
        t1, t2 = rng.normal(size=(2, 3)) * 2.0
        gap = float(np.linalg.norm(em_map(data, t1) - em_map(data, t2)))
        assert gap <= lip * float(np.linalg.norm(t1 - t2)) + 1e-9


def test_em_map_batch_matches_single_evaluations():
    data = _data(n=3000, seed=5)
    thetas = np.random.default_rng(5).normal(size=(17, 2))
    with _blocks_of(1000 * 17 * 8):  # blocks of 1000 rows
        batched = em_map_batch(data.samples, thetas)
    single = np.array([em_map(data, t) for t in thetas])
    # blocked accumulation reorders the sum, so roundoff-level agreement only
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d", [1, 3])
def test_em_map_batch_of_no_thetas_is_empty(d):
    got = em_map_batch(_data(d=d, n=500, seed=6).samples, np.empty((0, d)))
    assert got.shape == (0, d) and got.dtype == np.float64


def test_stop_rule_budget_formula():
    assert StopRule.for_n(10_000).max_iters == 1000
    assert StopRule.for_n(10_000, c_iter=0.25).max_iters == 25
    assert StopRule.for_n(50, c_iter=10.0).max_iters == math.ceil(10.0 * math.sqrt(50))
    # a nonzero max_iters replaces the budget
    assert StopRule.for_n(10_000, 0.25, 0.0, max_iters=7) == StopRule(7, 0.0)
    for c_iter in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="c_iter must be finite and positive"):
            StopRule.for_n(10_000, c_iter)


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(max_iters=0)
    with pytest.raises(ValueError):
        StopRule(max_iters=5, rel_tol=-1.0)


def test_run_em_zero_start_is_fixed():
    traj = run_em(_data(), np.zeros(2), StopRule(max_iters=100))
    assert traj.stop_reason is StopReason.REL_CHANGE
    assert len(traj) == 2  # theta_0 and the single confirming step
    np.testing.assert_array_equal(traj.alpha, [0.0, 0.0])


def test_run_em_records_all_fields_same_length():
    traj = run_em(_data(seed=21), np.array([1.0, 0.0]), StopRule(max_iters=30, rel_tol=0.0),
                  keep_iterates=True)
    assert len(traj.alpha) == len(traj.beta) == len(traj.loss) == len(traj.loglik) == 31
    assert traj.iterates.shape == (31, 2)
    assert traj.stop_reason is StopReason.MAX_ITERS


def test_run_em_loglik_monotone_and_norm_decomposition():
    rng = np.random.default_rng(14)
    for k in range(25):
        d = int(rng.integers(1, 5))
        s = float(rng.uniform(0, 2.5))
        data = sample_dataset(ModelSpec.along_axis(s, d), int(rng.integers(80, 800)),
                              derive_seed(14, k))
        theta0 = rng.normal(size=d) * rng.uniform(0.1, 3.0)
        traj = run_em(data, theta0, StopRule(max_iters=30, rel_tol=0.0), keep_iterates=True)
        assert np.all(np.diff(traj.loglik) >= -1e-12)
        norms = np.linalg.norm(traj.iterates, axis=1)
        np.testing.assert_allclose(traj.alpha**2 + traj.beta**2, norms**2, atol=1e-10)


def test_run_em_zero_center_decomposition():
    data = _data(s=0.0, d=3, n=400, seed=2)
    traj = run_em(data, np.array([0.5, 0.5, 0.5]), StopRule(max_iters=20), keep_iterates=True)
    np.testing.assert_array_equal(traj.alpha, np.zeros(len(traj)))
    np.testing.assert_allclose(traj.beta, np.linalg.norm(traj.iterates, axis=1), atol=1e-12)
    np.testing.assert_allclose(traj.loss, traj.beta, atol=1e-12)


def test_run_em_null_signal_keeps_final_iterate_small():
    # with no true center the iterates must shrink toward 0 at the n^{-1/4} scale
    spec = ModelSpec.along_axis(0.0, 1)
    worst = 0.0
    for k in range(50):
        data = sample_dataset(spec, 10_000, derive_seed(44, k))
        traj = run_em(data, np.array([1.0]), StopRule(max_iters=1000))
        worst = max(worst, float(abs(traj.beta[-1])))
    assert worst <= 0.5
    assert worst <= 5.0 * 10_000 ** -0.25


def test_run_em_rejects_wrong_start_dimension():
    with pytest.raises(ValueError):
        run_em(_data(), np.zeros(3), StopRule(max_iters=5))


def test_iterate_em_matches_run_em_in_float64():
    # d=1 takes the elementwise inner product, d=2 the matmul.
    for theta0 in (np.array([0.8]), np.array([0.8, -0.2])):
        data = _data(s=1.0, d=theta0.size, n=1000, seed=33)
        stop = StopRule(max_iters=200, rel_tol=1e-8)
        traj = run_em(data, theta0, stop, keep_iterates=True)
        theta, iters = iterate_em(data.samples, theta0, stop)
        assert traj.stop_reason is StopReason.REL_CHANGE
        np.testing.assert_array_equal(theta, traj.iterates[-1])
        assert iters == len(traj) - 1


def _iterate_em_by_matmul(samples, theta0, stop, dtype):
    # Reference loop that forms the inner products as S @ theta at every d.
    S = np.ascontiguousarray(samples, dtype=dtype)
    theta = np.asarray(theta0, dtype=dtype).copy()
    n = S.shape[0]
    for t in range(1, stop.max_iters + 1):
        z = S @ theta
        np.tanh(z, out=z)
        nxt = (z @ S) / n
        if stop.step_small(float(np.linalg.norm(nxt - theta)), float(np.linalg.norm(theta))):
            return nxt.astype(np.float64), t
        theta = nxt
    return theta.astype(np.float64), stop.max_iters


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_iterate_em_1d_matches_matmul_loop_bitwise(dtype):
    cases = [
        (0.0, 1.0, StopRule(max_iters=80, rel_tol=0.0)),    # criterion 02: full budget
        (1.0, 1.0, StopRule(max_iters=500, rel_tol=1e-8)),  # criterion 03: stops early
        (0.5, 0.0, StopRule(max_iters=10, rel_tol=0.0)),    # origin is a fixed point
    ]
    steps = []
    for s, start, stop in cases:
        data = _data(s=s, d=1, n=5000, seed=41)
        theta0 = np.array([start])
        got, got_iters = iterate_em(data.samples, theta0, stop, dtype=dtype)
        want, want_iters = _iterate_em_by_matmul(data.samples, theta0, stop, dtype)
        assert got.tobytes() == want.tobytes()
        assert got_iters == want_iters
        steps.append(got_iters)
    assert steps[0] == 80
    assert 1 < steps[1] < 500
    assert steps[2] == 1


def test_wrong_length_theta_is_rejected_at_d1():
    data = _data(s=1.0, d=1, n=100, seed=2)
    with pytest.raises(ValueError):
        em_map(data, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        iterate_em(data.samples, np.array([0.5, 0.5]), StopRule(max_iters=3))
    with pytest.raises(ValueError):
        em_map_batch(data.samples, np.ones((3, 2)))
    with pytest.raises(ValueError):
        em_jacobian(data, np.array([0.5, 0.5]))


def _em_jacobian_by_matmul(samples, theta):
    # Reference: the Jacobian with the inner products formed as samples @ theta.
    x = np.abs(samples @ theta)
    e = np.exp(-x)
    w = 2.0 * e / (1.0 + e * e)
    w *= w
    return (samples * w[:, None]).T @ samples / samples.shape[0]


def test_batch_map_and_jacobian_1d_match_matmul_bitwise():
    data = _data(s=1.0, d=1, n=5000, seed=43)
    rows = data.samples.copy(order="C")
    thetas = np.random.default_rng(43).normal(size=(8, 1))
    for nbytes in (1 << 19, 8000 * 8):  # one block, then blocks of 1000 rows
        with _blocks_of(nbytes):
            got = em_map_batch(data.samples, thetas)
        assert got.tobytes() == _batch_by_blocks(data.samples, thetas, nbytes).tobytes()
    for theta in (np.array([0.0]), np.array([0.7]), np.array([-40.0])):
        assert em_jacobian(data, theta).tobytes() == _em_jacobian_by_matmul(rows, theta).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [1, 2, 10])
def test_jacobian_sums_blocks_within_rounding_of_one_product(d, dtype):
    # a sum over the kernel's blocks against the one product over all n
    # stored rows: within one block the same bytes; over several, entry (i, j)
    # within 1e-12 of sqrt(J_ii J_jj). Measured at most 77 eps64 times that
    # over d in {1, 2, 3, 10}, s in {0, 1, 3} and n up to 3e5 rows, and 249
    # eps64 (5.5e-14) at d = 1, n = 2e6 in float32.
    block = model._block(d, 1, 8)
    for n, s in ((block, 1.0), (3 * block + 17, 0.0), (3 * block + 17, 3.0)):
        data = sample_dataset(ModelSpec.along_axis(s, d), n, n + d, dtype)
        rng = np.random.default_rng(n)
        for theta in (np.zeros(d), rng.normal(size=d), 30.0 * rng.normal(size=d)):
            got, want = em_jacobian(data, theta), _em_jacobian_by_matmul(data.samples, theta)
            if n <= block:
                assert got.tobytes() == want.tobytes()
            scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (n, theta)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_jacobian_holds_a_few_blocks_beside_the_samples(dtype):
    # d = 10, n = 2e5 (15.3 MiB of float64 samples): measured 1.30 MiB in
    # float64 and 2.30 MiB in float32 (the blocks cast to float64), against
    # 19.8 and 35.1 MiB for the n x d temporaries of the one product
    data = sample_dataset(ModelSpec.along_axis(1.0, 10), 200_000, 5, dtype)
    em_jacobian(_data(d=10, n=100), np.ones(10))
    tracemalloc.start()
    try:
        em_jacobian(data, np.full(10, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak / 2**20


def test_iterate_em_float32_stays_close():
    data = _data(s=1.0, d=2, n=2000, seed=8)
    theta0 = np.array([1.0, 0.0])
    t64, _ = iterate_em(data.samples, theta0, StopRule(max_iters=60, rel_tol=0.0))
    t32, _ = iterate_em(data.samples, theta0, StopRule(max_iters=60, rel_tol=0.0),
                        dtype=np.float32)
    assert t32.dtype == np.float64  # result promoted for downstream arithmetic
    assert float(np.linalg.norm(t64 - t32)) < 1e-3


def test_trajectory_csv_round_trip(tmp_path):
    traj = run_em(_data(seed=17), np.array([0.5, 0.5]), StopRule(max_iters=10, rel_tol=0.0),
                  keep_iterates=True)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,alpha,beta,loss,loglik,theta_0,theta_1"
    assert len(lines) == len(traj) + 1
    row3 = lines[4].split(",")
    assert int(row3[0]) == 3
    assert float(row3[1]) == traj.alpha[3]  # 17 significant digits round-trip
    assert float(row3[5]) == traj.iterates[3, 0]


def test_trajectory_csv_without_iterates(tmp_path):
    traj = run_em(_data(seed=17), np.array([0.5, 0.5]), StopRule(max_iters=5, rel_tol=0.0))
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    assert path.read_text().splitlines()[0] == "t,alpha,beta,loss,loglik"


def test_jacobian_at_origin_is_second_moment():
    data = _data(s=1.0, d=3, n=400, seed=19)
    np.testing.assert_allclose(em_jacobian(data, np.zeros(3)),
                               data.samples.T @ data.samples / data.n, atol=1e-14)


def test_jacobian_symmetric_psd_and_dominated():
    data = _data(s=1.0, d=3, n=400, seed=23)
    top0 = float(np.linalg.eigvalsh(em_jacobian(data, np.zeros(3)))[-1])
    rng = np.random.default_rng(23)
    for _ in range(10):
        theta = rng.normal(size=3)
        jac = em_jacobian(data, theta)
        np.testing.assert_allclose(jac, jac.T, atol=1e-14)
        evals = np.linalg.eigvalsh(jac)
        assert evals[0] >= -1e-10
        assert evals[-1] <= top0 + 1e-10


def test_jacobian_matches_finite_difference_of_em_map():
    data = _data(s=0.7, d=2, n=300, seed=29)
    theta = np.array([0.3, -0.6])
    jac = em_jacobian(data, theta)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (em_map(data, theta + e) - em_map(data, theta - e)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], fd, atol=1e-6)


def test_gradient_and_em_map_share_kernel():
    for theta in (np.array([0.9]), np.array([0.9, 0.1])):
        data = _data(d=theta.size, seed=31)
        assert np.all(em_map(data, theta) - theta - grad_log_likelihood(data, theta) == 0.0)
    data = _data(seed=31)


def _blocks_of(nbytes):
    # the kernel's column blocks shrunk to nbytes of samples at every d
    return mock.patch.multiple(model, _BLOCK_BYTES_1D=nbytes, _BLOCK_BYTES=nbytes)


def _batch_by_blocks(samples, thetas, nbytes=None, group=None):
    # Reference batch map: the blocked reference kernel on each group of
    # thetas in turn, every group over the first group's blocks, BLAS on one
    # thread
    yt = np.ascontiguousarray(samples.T)
    group = group or sample_em._GROUP
    groups = [thetas[lo:lo + group] for lo in range(0, thetas.shape[0], group)]
    block = _block(yt.shape[0], yt.dtype, groups[0].shape[0], nbytes)
    return np.concatenate(sample_em._map_in_order(
        lambda g: _f_n_by_blocks(yt, g, block=block)[0], groups, 1))


def _batch_on(cores, samples, thetas, group=None):
    with mock.patch.object(os, "cpu_count", return_value=cores), \
            mock.patch.object(sample_em, "_GROUP", group or sample_em._GROUP):
        return em_map_batch(samples, thetas)


_batch_cases = st.tuples(st.integers(1, 4), st.integers(1, 4000), st.integers(1, 24),
                         st.floats(0.0, 3.0), st.floats(1e-3, 20.0), st.integers(0, 2**32 - 1))


def _batch_case(d, n, k, s, scale, seed):
    data = sample_dataset(ModelSpec.along_axis(s, d), n, seed)
    thetas = scale * np.random.default_rng(seed).normal(size=(k, d))
    return data, thetas


def test_tanh_is_odd_bitwise():
    # the batch map is odd bit for bit because tanh is: checked over 1e7
    # values from 1e-300 to 1e3 in magnitude, in blocks of 1e6
    rng = np.random.default_rng(2024)
    for _ in range(10):
        x = np.exp(rng.uniform(math.log(1e-300), math.log(1e3), size=1_000_000))
        assert np.array_equal(np.tanh(-x), -np.tanh(x))


@settings(max_examples=40, deadline=None)
@given(_batch_cases)
def test_em_map_batch_is_odd(case):
    data, thetas = _batch_case(*case)
    with _blocks_of(4096 * 8):
        got = em_map_batch(data.samples, thetas)
        assert np.array_equal(em_map_batch(data.samples, -thetas), -got)


@settings(max_examples=40, deadline=None)
@given(_batch_cases)
def test_em_map_batch_rows_match_em_map(case):
    data, thetas = _batch_case(*case)
    with _blocks_of(4096 * 8):
        got = em_map_batch(data.samples, thetas)
    # either sum of n <= 4000 terms y_ij tanh(.) errs by at most n eps mean|y_j|
    scale = 1e-12 * np.mean(np.abs(data.samples), axis=0)
    for row, theta in zip(got, thetas):
        assert np.all(np.abs(row - em_map(data, theta)) <= scale)


def _without_direct_blas():
    # the kernel as on a numpy without the bundled OpenBLAS: np.matmul reductions
    return mock.patch.object(model, "_gemv", lambda dtype: None)


_cores_cases = (_batch_cases, st.integers(2, 20), st.integers(1, 8))


@settings(max_examples=40, deadline=None)
@given(*_cores_cases)
def test_em_map_batch_bytes_do_not_depend_on_cores(case, blocks, group):
    _check_batch_bytes_on_cores(case, blocks, group)


@settings(max_examples=20, deadline=None)
@given(*_cores_cases)
def test_em_map_batch_bytes_do_not_depend_on_cores_without_direct_blas(case, blocks, group):
    with _without_direct_blas():
        _check_batch_bytes_on_cores(case, blocks, group)


def _check_batch_bytes_on_cores(case, blocks, group):
    data, thetas = _batch_case(*case)
    n, d = data.n, data.d
    # about ``blocks`` blocks of rows in a full group, the last one short
    # unless n divides, over groups of ``group`` thetas
    nbytes = (-(-n // blocks) + 1) * max(d, group) * 8
    with _blocks_of(nbytes):
        want = _batch_by_blocks(data.samples, thetas, nbytes, group).tobytes()
        for cores in (1, 2, 3):
            assert _batch_on(cores, data.samples, thetas, group).tobytes() == want, cores


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3000), st.integers(1, 200), st.sampled_from([0.0, 1.0]),
       st.integers(2, 20), st.integers(1, 48), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_em_map_batch_from_a_stream_is_the_array_bitwise(d, n, k, s, blocks, group, cores, seed):
    # many blocks, a short last block and a short last group of thetas
    spec = ModelSpec.along_axis(s, d)
    thetas = np.random.default_rng(seed).normal(size=(k, d))
    nbytes = (-(-n // blocks) + 1) * max(d, group) * 8
    with _blocks_of(nbytes):
        want = _batch_on(cores, sample_dataset(spec, n, seed).samples, thetas, group)
        got = _batch_on(cores, SampleStream(spec, n, seed), thetas, group)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cores", [1, 2])
def test_em_map_batch_from_a_stream_rejects_a_nonfinite_sample(monkeypatch, cores):
    # a NaN drawn into the fourth of ten blocks of rows
    draw, drawn = model._draw_rows, []

    def nan_in_fourth_block(rng, theta_star, cols):
        draw(rng, theta_star, cols)
        drawn.append(1)
        if len(drawn) == 4:
            cols[0, 7] = np.nan

    monkeypatch.setattr(model, "_draw_rows", nan_in_fourth_block)
    with _blocks_of(100 * 48 * 8), pytest.raises(ValueError, match="finite"):
        _batch_on(cores, SampleStream(ModelSpec.along_axis(1.0, 2), 1000, 3), np.ones((48, 2)))
    assert len(drawn) >= 4


@pytest.mark.parametrize("cores", [2, 3])
def test_em_map_batch_stops_taking_runs_once_a_worker_raises(monkeypatch, cores):
    # 400 blocks of 100 rows, 100 runs: a NaN in the second draw of all ends
    # the walk after at most the runs the other workers are in, far below the
    # n / 4 rows checked here (a worker that ran its whole share of the blocks
    # would draw n / cores)
    draw, drawn = model._draw_rows, []

    def nan_in_second_draw(rng, theta_star, cols):
        draw(rng, theta_star, cols)
        drawn.append(cols.shape[1])
        if len(drawn) == 2:
            cols[0, 7] = np.nan

    monkeypatch.setattr(model, "_draw_rows", nan_in_second_draw)
    n = 40_000
    with _blocks_of(100 * 4 * 8), pytest.raises(ValueError, match="finite"):
        _batch_on(cores, SampleStream(ModelSpec.along_axis(1.0, 2), n, 9), np.ones((4, 2)),
                  group=4)
    assert 2 <= len(drawn) and sum(drawn) <= n // 4


def test_em_map_batch_folds_runs_that_complete_out_of_order():
    # the first run's reader waits until the other worker has drawn every
    # other run, so all later runs complete first and are kept until it is
    # folded; the bytes are those of the array, from which the fold starts at
    # block 0 whatever the order
    spec, n, others, waited = ModelSpec.along_axis(1.0, 2), 3000, [], []
    done = threading.Event()

    class FirstRunLast(SampleStream):
        def reader(self, lo):
            read = super().reader(lo)

            def tracked(cols):
                if lo == 0 and not waited:
                    waited.append(done.wait(timeout=30))
                read(cols)
                if lo:
                    others.append(cols.shape[1])
                    if sum(others) == n - 4 * 100:
                        done.set()
            return tracked

    thetas = np.random.default_rng(66).normal(size=(9, 2))
    with _blocks_of(100 * 4 * 8):  # blocks of 100 rows, runs of 4 blocks
        want = _batch_on(1, sample_dataset(spec, n, 66).samples, thetas, group=4)
        got = _batch_on(2, FirstRunLast(spec, n, 66), thetas, group=4)
    assert sample_em._RUN == 4 and waited == [True]
    assert got.tobytes() == want.tobytes()


def test_em_map_batch_traced_peak_does_not_grow_with_k():
    # d=2, n=1e6 from a stream on two workers: k=768 thetas (16 groups)
    # against k=192 (4 groups), whose blocks are the same; the sums of all
    # 367 blocks kept to the end would take 3.2 MiB more at k=768 than at
    # k=192 (measured 2.79 against 2.68 MiB)
    spec = ModelSpec.along_axis(1.0, 2)
    _batch_on(2, SampleStream(spec, 1000, 5), np.ones((768, 2)))
    peaks = {}
    for k in (192, 768):
        thetas = np.random.default_rng(k).normal(size=(k, 2))
        tracemalloc.start()
        try:
            _batch_on(2, SampleStream(spec, 1_000_000, 5), thetas)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[768] <= peaks[192] + 2**19, {k: p / 2**20 for k, p in peaks.items()}


@pytest.mark.parametrize("k", [1, 3, 4, 5, 9])
def test_em_map_batch_draws_a_stream_once(monkeypatch, k):
    # one walk at any k: a short last group of thetas (k = 5, 9 over groups
    # of 4) runs on the full groups' blocks, so the n rows are drawn once
    draw, drawn = model._draw_rows, []
    map_in_order, walks = sample_em._map_in_order, []
    monkeypatch.setattr(model, "_draw_rows",
                        lambda rng, theta_star, cols: drawn.append(cols.shape[1])
                        or draw(rng, theta_star, cols))
    monkeypatch.setattr(sample_em, "_map_in_order",
                        lambda *args: walks.append(1) or map_in_order(*args))
    thetas = np.random.default_rng(65).normal(size=(k, 2))
    with _blocks_of(300 * 4 * 8):  # blocks of 300 rows for a group of 4
        _batch_on(2, SampleStream(ModelSpec.along_axis(1.0, 2), 3000, 65), thetas, group=4)
    assert sum(drawn) == 3000 and len(walks) == 1


def test_em_map_batch_default_block_is_a_mebibyte(monkeypatch):
    # d=2, k=192 runs as 4 groups of 48 thetas, each over blocks of
    # 1 MiB // (48 * 8) = 2730 rows, the last of n=1e5 1720 rows long
    assert sample_em._GROUP == 48 and _block(2, k=48) == 2730
    data = _data(s=1.0, d=2, n=100_000, seed=61)
    thetas = np.random.default_rng(61).normal(size=(192, 2))
    shapes = []
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda z, **kw: shapes.append(z.shape) or tanh(z, **kw))
    got = em_map_batch(data.samples, thetas)
    assert sorted(shapes) == sorted(4 * ([(2730, 48)] * 36 + [(1720, 48)]))
    monkeypatch.setattr(np, "tanh", tanh)
    assert got.tobytes() == _batch_by_blocks(data.samples, thetas).tobytes()


def test_em_map_batch_many_workers_switching_often():
    # more workers than cores and a short switch interval: each group must
    # keep its own kernel's buffers
    data = _data(s=1.0, d=3, n=20_000, seed=62)
    thetas = np.random.default_rng(62).normal(size=(16, 3))
    with _blocks_of(97 * 3 * 8):  # blocks of 97 rows, as d=3 exceeds 2 thetas a group
        want = _batch_by_blocks(data.samples, thetas, 97 * 3 * 8, group=2).tobytes()
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(5):
                assert _batch_on(8, data.samples, thetas, group=2).tobytes() == want
        finally:
            sys.setswitchinterval(interval)


def test_em_map_batch_runs_blas_on_one_thread_and_leaves_it_so(monkeypatch):
    get, set_ = blas_threads_or_skip()
    seen = []

    def kernel(*args):
        # the BLAS thread count at each pass of the kernel, where BLAS runs
        f_n = model._kernel(*args)
        return lambda *a, **kw: seen.append(get()) or f_n(*a, **kw)

    monkeypatch.setattr(sample_em, "_kernel", kernel)
    data = _data(s=1.0, d=2, n=5000, seed=63)
    before = get()
    try:
        set_(2)
        # groups of 48, 48, 48, 48 and 8, each over two blocks of rows, 2730
        # and 2270
        _batch_on(3, data.samples, np.ones((200, 2)))
        assert get() == 1
    finally:
        set_(before)
    assert len(seen) == 10 and set(seen) == {1}


def test_em_map_batch_error_in_a_block_is_raised():
    data = _data(s=1.0, d=1, n=5000, seed=64)
    with pytest.raises(ValueError):
        _batch_on(3, data.samples, np.ones((3, 2)), group=1)


def _counting_kernel(setups, calls):
    # model._kernel, recording each set-up and each pass of the kernel it returns
    def kernel(*args):
        f_n = model._kernel(*args)
        setups.append(1)
        return lambda *a, **kw: calls.append(1) or f_n(*a, **kw)
    return kernel


def test_run_em_projects_once_per_iterate(monkeypatch):
    # one kernel set-up per run; T passes for iterate_em's T steps and T + 1
    # for run_em's, whose last pass gives the last iterate's log-likelihood,
    # whether max_iters (30) or the relative rule (at step 19) ends the run
    data, theta0 = _data(s=1.0, d=2, n=2000, seed=65), np.array([0.5, 0.5])
    setups, calls = [], []
    monkeypatch.setattr(sample_em, "_kernel", _counting_kernel(setups, calls))
    for rel_tol, steps in ((0.0, 30), (1e-6, 19)):
        stop = StopRule(max_iters=30, rel_tol=rel_tol)
        setups.clear()
        calls.clear()
        assert iterate_em(data.samples, theta0, stop)[1] == steps
        assert len(setups) == 1 and len(calls) == steps
        setups.clear()
        calls.clear()
        traj = run_em(data, theta0, stop, keep_iterates=True)
        assert len(setups) == 1
        assert len(calls) == len(traj) == steps + 1
        assert traj.stop_reason is (StopReason.REL_CHANGE if rel_tol else StopReason.MAX_ITERS)
        # the shared pass gives the same log-likelihood bits as a fresh one
        assert [log_likelihood(data, th) for th in traj.iterates] == traj.loglik.tolist()
    # a rule that fires on the last step max_iters allows still names the rule
    assert run_em(data, theta0, StopRule(19, 1e-6)).stop_reason is StopReason.REL_CHANGE
    assert run_em(data, theta0, StopRule(18, 1e-6)).stop_reason is StopReason.MAX_ITERS


def test_iterates_are_run_ems_without_its_log_likelihoods():
    # bit for bit, up to max_iters, and up to an exact fixed point (the zero
    # start, and a small dataset's run, which reaches its limit exactly)
    cases = ((_data(seed=66, n=3000), np.array([0.3, 0.8]), StopRule(60, 0.0)),
             (_data(seed=66, n=3000), np.zeros(2), StopRule(10, 0.0)),
             (_data(s=1.0, d=1, n=20, seed=67), np.array([0.5]), StopRule(5000, 0.0)))
    for data, theta0, stop in cases:
        traj = run_em(data, theta0, stop, keep_iterates=True)
        pairs = list(sample_em._iterates(data.samples, theta0, stop))
        got = np.array([theta for theta, _ in pairs])
        assert got.tobytes() == traj.iterates.tobytes()
        assert all(logcosh_sum is None for _, logcosh_sum in pairs)
    assert traj.stop_reason is StopReason.REL_CHANGE and len(traj) < 5001


def _block(d, dtype=np.float64, k=1, nbytes=None):
    # columns per kernel block for k thetas: nbytes, by default 512 KiB of
    # samples at d = 1 and 1 MiB at d >= 2, over max(d, k) values a column
    if nbytes is None:
        nbytes = (512 if d == 1 else 1024) * 1024
    return max(1, nbytes // (max(d, k) * np.dtype(dtype).itemsize))


def _many_block_data(d, s=1.0, seed=70):
    # three full column blocks of float64 samples and a ragged fourth
    return _data(s=s, d=d, n=3 * _block(d) + 777, seed=seed)


def test_block_is_half_a_mebibyte_of_samples(monkeypatch):
    # ... at d = 1, and a mebibyte at d >= 2
    assert (model._BLOCK_BYTES_1D, model._BLOCK_BYTES) == (512 * 1024, 1024 * 1024)
    assert (_block(1, np.float32), _block(1), _block(2), _block(10), _block(10, np.float32)) \
        == (131_072, 65_536, 65_536, 13_107, 26_214)
    sizes = []
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda z, **kw: sizes.append(z.size) or tanh(z, **kw))
    for d in (1, 10):
        sizes.clear()
        em_map(_many_block_data(d), np.full(d, 0.5))
        assert sizes == [_block(d)] * 3 + [777]


@pytest.mark.parametrize("d", [1, 2, 10])
def test_many_blocks_keep_the_bitwise_identities(d):
    data = _many_block_data(d)
    theta0 = np.linspace(0.8, -0.2, d)
    stop = StopRule(max_iters=40, rel_tol=1e-9)
    traj = run_em(data, theta0, stop, keep_iterates=True)
    theta, iters = iterate_em(data.samples, theta0, stop)
    assert theta.tobytes() == traj.iterates[-1].tobytes()
    assert iters == len(traj) - 1
    assert [log_likelihood(data, th) for th in traj.iterates] == traj.loglik.tolist()
    for th in traj.iterates[::7]:
        assert np.all(em_map(data, th) - th - grad_log_likelihood(data, th) == 0.0)


def _f_n_by_blocks(yt, theta, nbytes=None, block=None):
    # Reference kernel: the feature-major (d, n) samples in column blocks (of
    # ``block`` columns if given, else the kernel's own), inner products with
    # one theta (d,) or k stacked thetas (k, d) by matmul, block sums added in
    # block order from the first, and the logcosh sum taken block by block.
    d, n = yt.shape
    block = block or _block(d, yt.dtype, 1 if theta.ndim == 1 else theta.shape[0], nbytes)
    sums, logcosh_sum = [], 0.0
    for lo in range(0, n, block):
        cols = yt[:, lo:lo + block]
        z = cols.T @ theta.T
        logcosh_sum += float(np.sum(model.logcosh(z)))
        sums.append(cols @ np.tanh(z))
    return (sum(sums[1:], sums[0]) / n).T, logcosh_sum


def _iterate_em_by_blocks(samples, theta0, stop, dtype):
    # Reference loop: one reference kernel pass per step
    yt = np.ascontiguousarray(samples.T, dtype=dtype)
    theta = np.asarray(theta0, dtype=dtype).copy()
    for t in range(1, stop.max_iters + 1):
        nxt = _f_n_by_blocks(yt, theta)[0]
        if stop.step_small(float(np.linalg.norm(nxt - theta)), float(np.linalg.norm(theta))):
            return nxt.astype(np.float64), t
        theta = nxt
    return theta.astype(np.float64), stop.max_iters


@pytest.mark.parametrize("d, dtype", [(1, np.float32), (1, np.float64), (3, np.float64)])
def test_iterate_em_matches_blocked_reference_loop_bitwise(d, dtype):
    data = _data(s=0.0 if d == 1 else 0.5, d=d, n=3 * _block(d, dtype) + 777, seed=71)
    for theta0, stop in ((np.full(d, 1.0), StopRule(max_iters=12, rel_tol=0.0)),
                         (np.zeros(d), StopRule(max_iters=3, rel_tol=0.0))):
        got = iterate_em(data.samples, theta0, stop, dtype=dtype)
        want = _iterate_em_by_blocks(data.samples, theta0, stop, dtype)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def _f_n(samples, theta, with_logcosh=False):
    # one pass of the kernel, set up for this call alone, its sum divided by n
    total, logcosh_sum = model._kernel(samples, theta)(theta, with_logcosh)
    return total / samples.shape[0], logcosh_sum


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 300_000), st.floats(0.0, 2.0), st.floats(0.0, 5.0),
       st.integers(0, 2**32 - 1))
def test_f_n_matches_one_shot_float64_means(d, n, s, scale, seed):
    data = sample_dataset(ModelSpec.along_axis(s, d), n, seed)
    theta = scale * np.random.default_rng(seed).normal(size=d)
    y = np.array(data.samples, order="C")
    want = np.mean(y * np.tanh(y @ theta)[:, None], axis=0)
    got, logcosh_sum = _f_n(data.samples, theta, with_logcosh=True)
    assert np.all(np.abs(got - want) <= 1e-12 * np.mean(np.abs(y), axis=0))
    # the sum run_em and log_likelihood take from the same pass, all n terms
    terms = model.logcosh(y @ theta)
    assert abs(logcosh_sum / n - np.mean(terms)) <= 1e-12 * np.mean(np.abs(terms))
    assert np.array_equal(_f_n(data.samples, theta)[0], got)


_kernel_cases = (st.integers(1, 12), st.sampled_from([np.float32, np.float64]),
                 st.integers(0, 60), st.integers(0, 3),
                 st.one_of(st.integers(-3, 3), st.integers(4, 3000)), st.floats(0.0, 4.0),
                 st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(*_kernel_cases)
def test_kernel_matches_blocked_reference_bitwise(d, dtype, k, blocks, offset, scale, seed):
    _check_kernel_bitwise(d, dtype, k, blocks, offset, scale, seed)


@settings(max_examples=20, deadline=None)
@given(*_kernel_cases)
def test_kernel_without_direct_blas_matches_blocked_reference_bitwise(d, dtype, k, blocks,
                                                                      offset, scale, seed):
    with _without_direct_blas():
        _check_kernel_bitwise(d, dtype, k, blocks, offset, scale, seed)


def _check_kernel_bitwise(d, dtype, k, blocks, offset, scale, seed):
    # one theta (k = 0) or a stack of k; n at and around block edges, a
    # ragged last block included
    n = max(1, blocks * _block(d, dtype, max(k, 1)) + offset)
    data = sample_dataset(ModelSpec.along_axis(1.0, d), n, seed)
    yt = np.ascontiguousarray(data.samples.T, dtype=dtype)
    shape = (k, d) if k else (d,)
    theta = (scale * np.random.default_rng(seed).normal(size=shape)).astype(dtype)
    want, want_logcosh = _f_n_by_blocks(yt, theta)
    f_n = model._kernel(yt.T, theta)
    got, got_logcosh = f_n(theta, with_logcosh=True)
    got = got / n
    assert got.tobytes() == want.tobytes() and got_logcosh == want_logcosh
    assert f_n.logcosh_sum(theta) == want_logcosh
    # a later step on the same buffers neither changes the first result nor
    # carries anything over from it
    again = f_n(theta[::-1].copy())[0] / n
    assert again.tobytes() == _f_n_by_blocks(yt, theta[::-1].copy())[0].tobytes()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 10])
def test_kernel_logcosh_sums_match_blocked_reference_bitwise(d, dtype):
    # both logcosh passes, the EM step's and log_likelihood's, against the
    # reference's np.sum(logcosh(z)) per block; n on both sides of a block
    # edge, theta = 0, and |<theta, y>| far beyond where exp(|z|) overflows
    # (88.7 in float32, 709.8 in float64); the EM sum keeps its bytes with
    # and without the logcosh sum, and the passes share the kernel's buffers
    # in any order
    block = _block(d, dtype)
    for n in (1, block - 1, block, block + 1, 2 * block + 3):
        yt = np.ascontiguousarray(
            sample_dataset(ModelSpec.along_axis(1.0, d), n, n).samples.T, dtype=dtype)
        f_n = model._kernel(yt.T, np.zeros(d, dtype))
        rng = np.random.default_rng(n)
        for theta in (np.zeros(d), rng.normal(size=d), 2000.0 * rng.normal(size=d)):
            theta = theta.astype(dtype)
            want, want_logcosh = _f_n_by_blocks(yt, theta)
            assert f_n.logcosh_sum(theta) == want_logcosh, (n, theta)
            total, logcosh_sum = f_n(theta, with_logcosh=True)
            assert (total / n).tobytes() == want.tobytes() and logcosh_sum == want_logcosh
            assert f_n(theta)[0].tobytes() == total.tobytes()
            assert f_n.logcosh_sum(theta) == want_logcosh


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 2, 10])
def test_log_likelihood_is_its_formula_on_the_blocked_reference_bitwise(d, dtype):
    # the value log_likelihood took from the EM step's pass, which also ran
    # tanh and the reduction: the same logcosh sum, so the same bits
    data = sample_dataset(ModelSpec.along_axis(1.0, d), 2 * _block(d, dtype) + 5, 3, dtype)
    yt = data.samples.T
    for theta in (np.zeros(d), np.linspace(-1.5, 0.8, d), np.full(d, 300.0)):
        want = model._log_likelihood_from(
            data, theta, _f_n_by_blocks(yt, theta.astype(dtype))[1])
        assert log_likelihood(data, theta) == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d, k", [(1, 0), (1, 3), (2, 0), (2, 1), (10, 0), (10, 4)])
def test_kernel_keeps_numpys_zero_signs_in_a_one_column_block(d, k, dtype):
    # one sample, at a theta so small that its products underflow to zeros
    # of either sign: np.matmul runs its own loop for a block of one column
    # and gives +0 where BLAS keeps -0 (hypothesis found it at d = 10)
    yt = np.ascontiguousarray(sample_dataset(ModelSpec.along_axis(1.0, d), 1, 0).samples.T,
                              dtype=dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    theta = (tiny * np.random.default_rng(0).normal(size=(k, d) if k else d)).astype(dtype)
    for t in (theta, -theta):
        assert _f_n(yt.T, t)[0].tobytes() == _f_n_by_blocks(yt, t)[0].tobytes()


def _counting_gemv(calls):
    # model._gemv whose routine records its calls in calls
    gemv = model._gemv

    def counted(dtype):
        found = gemv(dtype)
        if found is None:
            return None
        routine, integer, real = found
        return lambda *a: calls.append("gemv") or routine(*a), integer, real
    return counted


@pytest.mark.parametrize("direct", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d, k, routine", [(1, 0, "dot"), (1, 1, "dot"), (1, 7, "gemv"),
                                           (2, 0, "gemv"), (2, 1, "gemv"), (2, 7, "gemm"),
                                           (10, 0, "gemv"), (10, 1, "gemv"), (10, 7, "gemm")])
def test_kernel_makes_one_direct_blas_call_per_block(direct, dtype, d, k, routine):
    # routine is the BLAS routine np.matmul calls for these shapes. For one
    # theta (k = 0) each block and pass calls it once without np.matmul:
    # np.dot at d = 1, the ctypes gemv at d >= 2; a stack of thetas, and any
    # block without the direct gemv, goes through np.matmul. The bytes are
    # those of the np.matmul reduction; three blocks of 40 columns and a short
    # tail of 3, at theta and at its negative
    if direct and model._gemv(np.dtype(dtype)) is None:
        pytest.skip("numpy's BLAS routines were not found")
    nbytes = 40 * max(d, k, 1) * np.dtype(dtype).itemsize
    yt = np.ascontiguousarray(_data(s=1.0, d=d, n=123, seed=75).samples.T, dtype=dtype)
    theta = np.random.default_rng(75).normal(size=(k, d) if k else d).astype(dtype)
    calls = []
    gemv = _counting_gemv(calls) if direct else lambda dtype: None
    dot = np.dot
    with _blocks_of(nbytes), mock.patch.object(model, "_gemv", gemv), \
            mock.patch.object(np, "dot", lambda *a, **kw: calls.append("dot") or dot(*a, **kw)):
        f_n = model._kernel(yt.T, theta)
        for th in (theta, -theta):
            assert (f_n(th)[0] / 123).tobytes() == _f_n_by_blocks(yt, th, nbytes)[0].tobytes()
    assert calls == ([routine] * 8 if direct and k == 0 else [])


def test_openblas_routines_are_found_on_scipy_openblas():
    # a renamed symbol would silently drop the direct reductions and the
    # BLAS thread control
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}")
    assert model._blas_thread_control() is not None
    assert model._gemv(np.dtype(np.float32)) is not None
    assert model._gemv(np.dtype(np.float64)) is not None


@pytest.mark.parametrize("d", [1, 10])
def test_iterate_em_on_two_threads_switching_often_matches_serial(d):
    # each run sets up its own kernel: two at once must not share its buffers
    # (the np.dot reduction at d = 1, gemv at d = 10)
    datas = [_data(s=0.5, d=d, n=3 * _block(d) + 777, seed=seed) for seed in (73, 74)]
    theta0, stop = np.full(d, 0.5), StopRule(max_iters=15, rel_tol=0.0)
    want = [iterate_em(data.samples, theta0, stop)[0].tobytes() for data in datas]
    got = [None, None]

    def run(k):
        got[k] = iterate_em(datas[k].samples, theta0, stop)[0].tobytes()

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            got[:] = None, None
            threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert got == want
    finally:
        sys.setswitchinterval(interval)


# d, n (up to several kernel blocks), s, scale of theta, seed
_em_cases = st.tuples(st.integers(1, 6), st.integers(1, 100_000), st.floats(0.0, 3.0),
                      st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))


def _em_case(d, n, s, scale, seed):
    data = sample_dataset(ModelSpec.along_axis(s, d), n, seed)
    return data, scale * np.random.default_rng(seed).normal(size=d)


@settings(max_examples=30, deadline=None)
@given(_em_cases)
def test_em_map_is_odd_bitwise(case):
    data, theta = _em_case(*case)
    assert em_map(data, -theta).tobytes() == (-em_map(data, theta)).tobytes()


@settings(max_examples=30, deadline=None)
@given(_em_cases)
def test_em_map_is_bounded_by_mean_absolute_sample(case):
    # |f_n(theta)_j| <= (1/n) sum_i |y_ij| since |tanh| <= 1; either side's
    # sum of n terms errs by at most n eps of the sum of magnitudes
    data, theta = _em_case(*case)
    bound = np.mean(np.abs(data.samples), axis=0) * (1.0 + data.n * np.finfo(float).eps)
    assert np.all(np.abs(em_map(data, theta)) <= bound)


@settings(max_examples=30, deadline=None)
@given(_em_cases)
def test_run_em_never_decreases_the_log_likelihood(case):
    # up to the rounding of a sum of n logcosh terms, at 1e-12 of its size
    data, theta0 = _em_case(*case)
    loglik = run_em(data, theta0, StopRule(max_iters=25, rel_tol=0.0)).loglik
    assert np.all(np.diff(loglik) >= -1e-12 * np.maximum(1.0, np.abs(loglik[1:])))


def test_empty_samples_are_rejected_by_name():
    with pytest.raises(ValueError, match="samples"):
        iterate_em(np.empty((0, 2)), np.ones(2), StopRule(max_iters=3))
    with pytest.raises(ValueError, match="samples"):
        em_map_batch(np.empty((0, 2)), np.ones((3, 2)))


def test_iterate_em_names_the_first_nonfinite_step():
    samples = np.array([[1.0], [-2.0], [np.inf]])
    with pytest.raises(ValueError, match="step 1"):
        iterate_em(samples, np.array([0.5]), StopRule(max_iters=10, rel_tol=0.0))
    with pytest.raises(ValueError, match="step 1"):
        iterate_em(samples[:2], np.array([np.nan]), StopRule(max_iters=10, rel_tol=0.0))
    # run_em too, on finite samples whose EM sum overflows: 1e308 + 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="step 1"):
        data = Dataset(samples=np.full((2, 1), 1e308), spec=ModelSpec.along_axis(1.0, 1))
        run_em(data, np.array([1.0]), StopRule(max_iters=10, rel_tol=0.0))
