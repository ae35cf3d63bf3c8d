"""Finite-sample EM iteration and its bookkeeping.

One EM step for the symmetric mixture collapses to the closed-form map

    f_n(theta) = (1/n) sum_i y_i tanh(<theta, y_i>),

which equals theta + grad of the average log-likelihood (same kernel as
model.grad_log_likelihood, so the identity is bitwise). run_em records the
full diagnostic trajectory: the signal/orthogonal decomposition of each
iterate against the true direction, the loss, and the log-likelihood, which
EM never decreases. iterate_em is the stripped loop for large Monte Carlo
sweeps; it records nothing and can run in float32, where tanh and the two
matrix products dominate and the narrower dtype roughly doubles throughput.

em_map, run_em and iterate_em evaluate f_n through model._kernel, which run_em
and iterate_em set up once per run. A step is one pass over column blocks of
the feature-major samples (512 KiB at d = 1, 1 MiB at d >= 2), each projected,
put through tanh and reduced while in L2, each of the three calls free of the
GIL, so sweep threads overlap; run_em takes each iterate's log-likelihood from
the same pass. A dataset within one block gives the bytes of the unblocked
sum; larger ones move in their last bits.

em_map_batch, behind the deviation probe, runs the same kernel on groups of
thetas, one group per core at a time with BLAS on one thread (_map_one_blas,
which runs the sweeps' cells too), so its bytes depend only on the inputs.
The thread count is set through model._openblas, the lookup of the bundled
OpenBLAS that the kernel's reductions use too.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelSpec, _kernel, _log_likelihood_from, _openblas, loss
from .svg import write_table

__all__ = [
    "StopReason",
    "StopRule",
    "Trajectory",
    "em_map",
    "em_map_batch",
    "run_em",
    "iterate_em",
    "em_jacobian",
]


class StopReason(str, enum.Enum):
    MAX_ITERS = "max_iters"
    REL_CHANGE = "rel_change"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class StopRule:
    """Stop at max_iters, or earlier once the step is relatively small.

    The relative test is |theta_{t+1} - theta_t| <= rel_tol * max(|theta_t|,
    1e-30); the floor keeps the rule meaningful at the zero fixed point.
    """

    max_iters: int
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.rel_tol >= 0.0):
            raise ValueError("rel_tol must be nonnegative")

    @classmethod
    def for_n(cls, n: int, c_iter: float = 10.0, rel_tol: float = 1e-8) -> "StopRule":
        """Iteration budget ceil(c_iter * sqrt(n)): the sample EM map needs
        order sqrt(n) steps in the worst case, c_iter adds the safety factor."""
        return cls(max_iters=math.ceil(c_iter * math.sqrt(n)), rel_tol=rel_tol)

    def step_small(self, delta_norm: float, theta_norm: float) -> bool:
        return delta_norm <= self.rel_tol * max(theta_norm, 1e-30)


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of one EM run, all arrays of length T+1 including t=0.

    When the true center is zero there is no signal direction: alpha is
    recorded as 0, beta as |theta_t|, and the loss reduces to |theta_t|.
    """

    alpha: np.ndarray
    beta: np.ndarray
    loss: np.ndarray
    loglik: np.ndarray
    stop_reason: StopReason
    iterates: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.alpha)

    def to_csv(self, path) -> None:
        """Columns t, alpha, beta, loss, loglik, plus theta_* when stored."""
        thetas = () if self.iterates is None else tuple(self.iterates.T)
        write_table(path, ["t", "alpha", "beta", "loss", "loglik"]
                    + [f"theta_{j}" for j in range(len(thetas))],
                    range(len(self)), self.alpha, self.beta, self.loss, self.loglik, *thetas)


def em_map(data: Dataset, theta) -> np.ndarray:
    """One EM step: f_n(theta) = (1/n) sum_i y_i tanh(<theta, y_i>)."""
    theta = np.asarray(theta, dtype=np.float64)
    return _kernel(data.samples, theta)(theta)[0]


@functools.cache
def _blas_thread_control():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None.

    With no such routines (another BLAS) the thread count is left alone.
    """
    found = _openblas("openblas_get_num_threads", "openblas_set_num_threads")
    if found is None:
        return None
    (get, set_), _ = found
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


# The BLAS thread count is process-wide: when several user threads run sweeps
# or batch maps at once, only the outermost sets it and restores it.
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 1


def _map_one_blas(fn, items, threads: int) -> list:
    """[fn(item) for item in items] on ``threads`` threads, BLAS on one thread.

    Results come in item order, whatever the schedule; one thread runs the
    items in the calling thread. Worker threads on top of BLAS threads would
    oversubscribe the cores, and a threaded BLAS sums in an order that depends
    on its thread count. The previous count is restored afterwards.
    """
    global _blas_users, _blas_saved
    with _blas_lock:
        control = _blas_thread_control()
        if control is not None and _blas_users == 0:
            _blas_saved = control[0]()
            control[1](1)
        _blas_users += 1
    try:
        if threads == 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    finally:
        with _blas_lock:
            _blas_users -= 1
            if control is not None and _blas_users == 0:
                control[1](_blas_saved)


# Thetas per kernel pass of em_map_batch. On a 2-core Xeon, medians of 3 x 5
# calls: at d=1, n=1e6, k=100 groups of 48 took 0.21 s, of 24, 32 and 64
# 0.26-0.27 s and of 96 0.39 s (100 thetas split unevenly over two cores);
# at d=2, n=1e6, k=192 groups of 32 to 96 were within noise (0.33-0.43 s).
_GROUP = 48


def em_map_batch(samples: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """f_n evaluated at many points at once; thetas is (k, d), result (k, d).

    k may be 0, which gives an empty (0, d) result.

    Each group of _GROUP thetas is one pass of model._kernel over the samples
    in column blocks; the groups run on os.cpu_count() threads with BLAS on
    one thread, so the bytes depend only on the inputs.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    groups = [thetas[lo:lo + _GROUP] for lo in range(0, thetas.shape[0], _GROUP)]
    return np.concatenate([np.empty((0, thetas.shape[1]), samples.dtype), *_map_one_blas(
        lambda g: _kernel(samples, g)(g)[0], groups, os.cpu_count() or 1)])


def run_em(data: Dataset, theta0, stop: StopRule, spec: ModelSpec | None = None,
           keep_iterates: bool = False) -> Trajectory:
    """Iterate the EM map from theta0, recording the full diagnostic record.

    ``spec`` supplies the ground truth for the decomposition and the loss;
    it defaults to the spec the dataset was generated from. Non-finite
    iterates stop the run with stop_reason=diverged (unreachable for finite
    data; it would signal a bug, not a modeling failure).
    """
    if spec is None:
        spec = data.spec
    theta = np.asarray(theta0, dtype=np.float64).copy()
    if theta.shape != (data.d,):
        raise ValueError("theta0 must have length d")
    eta = spec.direction

    alphas, betas, losses, logliks = [], [], [], []
    iterates = [] if keep_iterates else None

    def record(th, logcosh_sum):
        if eta is None:
            a, b = 0.0, float(np.linalg.norm(th))
        else:
            a = float(th @ eta)
            b = float(np.linalg.norm(th - a * eta))
        alphas.append(a)
        betas.append(b)
        losses.append(loss(th, spec.theta_star))
        logliks.append(_log_likelihood_from(data, th, logcosh_sum))
        if iterates is not None:
            iterates.append(th.copy())

    # one pass over the samples per iterate gives its log-likelihood and its EM step
    f_n = _kernel(data.samples, theta)
    nxt, logcosh_sum = f_n(theta, with_logcosh=True)
    record(theta, logcosh_sum)
    reason = StopReason.MAX_ITERS
    for _ in range(stop.max_iters):
        if not np.all(np.isfinite(nxt)):
            reason = StopReason.DIVERGED
            break
        following, logcosh_sum = f_n(nxt, with_logcosh=True)
        record(nxt, logcosh_sum)
        if stop.step_small(float(np.linalg.norm(nxt - theta)), float(np.linalg.norm(theta))):
            reason = StopReason.REL_CHANGE
            break
        theta, nxt = nxt, following

    return Trajectory(
        alpha=np.array(alphas),
        beta=np.array(betas),
        loss=np.array(losses),
        loglik=np.array(logliks),
        stop_reason=reason,
        iterates=np.array(iterates) if iterates is not None else None,
    )


def iterate_em(samples: np.ndarray, theta0, stop: StopRule,
               dtype=np.float64) -> tuple[np.ndarray, int]:
    """Bare EM loop for sweeps: returns (final iterate as float64, steps run).

    The step count is the first t at which the relative-change rule fired,
    or max_iters if it never did. float32 halves memory traffic for the
    tanh/matmul inner loop; the returned iterate is cast back to float64.
    The samples are used as the contiguous (d, n) block S.T, which for a
    Dataset's float64 samples is the stored block; others are copied once.
    Each step is a pass of model._kernel, set up once as in run_em, so float64
    iterates agree bitwise; a non-finite one raises ValueError naming its step.
    """
    S = np.ascontiguousarray(samples.T, dtype=dtype).T
    theta = np.asarray(theta0, dtype=dtype).copy()
    f_n = _kernel(S, theta)
    for t in range(1, stop.max_iters + 1):
        nxt = f_n(theta)[0]
        if not np.all(np.isfinite(nxt)):
            raise ValueError(f"EM iterate is not finite at step {t}")
        if stop.step_small(float(np.linalg.norm(nxt - theta)), float(np.linalg.norm(theta))):
            return nxt.astype(np.float64), t
        theta = nxt
    return theta.astype(np.float64), stop.max_iters


def em_jacobian(data: Dataset, theta) -> np.ndarray:
    """Jacobian of the EM map, J_n(theta) = E_n[Y Y^T sech^2(<theta, Y>)].

    Symmetric PSD; at theta = 0 it is exactly the sample second-moment
    matrix. sech^2 is evaluated as (2 e^{-|x|} / (1 + e^{-2|x|}))^2, which
    underflows gracefully instead of overflowing.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (data.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({data.d},)")
    y = data.samples
    # at d = 1 an elementwise product, as in the kernel
    x = np.abs(y[:, 0] * theta[0] if data.d == 1 else y @ theta)
    e = np.exp(-x)
    w = 2.0 * e / (1.0 + e * e)
    w *= w
    return (y * w[:, None]).T @ y / data.n
