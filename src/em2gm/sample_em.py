"""Finite-sample EM iteration and its bookkeeping.

One EM step for the symmetric mixture collapses to the closed-form map

    f_n(theta) = (1/n) sum_i y_i tanh(<theta, y_i>),

which equals theta + grad of the average log-likelihood (bitwise, for a
gradient computed with the same kernel, model._kernel). _iterates is the one
EM loop: it applies the stop rule and raises ValueError naming the first
non-finite iterate. run_em records the full diagnostic trajectory over it:
the signal/orthogonal decomposition of each iterate against the true
direction, the loss, and the log-likelihood, which EM never decreases.
iterate_em is the stripped loop for large Monte Carlo sweeps; it records
nothing and can run in float32, where tanh and the two matrix products
dominate and the narrower dtype roughly doubles throughput.

em_map and _iterates evaluate f_n through model._kernel, which _iterates sets
up once per run. A step is one pass over column blocks of the feature-major
samples (512 KiB at d = 1, 1 MiB at d >= 2), each projected, put through tanh
and reduced while in L2; at d >= 2 the projection of one theta holds the
GIL (see model._kernel), so sweep threads take turns on it. run_em takes each
iterate's log-likelihood from the same pass, one pass more than iterate_em's
T. A dataset within one block gives the bytes of the unblocked sum; larger
ones move in their last bits.

em_map_batch, behind the deviation probe, runs the same kernel on groups of
thetas in one walk over blocks of rows, from an array or drawn from a
model.SampleStream; the cores take runs of a few blocks in turn
(_map_in_order, which runs the sweeps' cells too), and the block sums are
folded in block order as the runs complete, so its bytes depend only on the
inputs and its memory does not grow with the number of thetas. Every pass
computes with BLAS on one thread (model._one_blas_thread, which the kernel's
set-up, em_jacobian and _map_in_order call).
"""

from __future__ import annotations

import enum
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (Dataset, ModelSpec, SampleStream, _block, _kernel, _log_likelihood_from,
                    _one_blas_thread, loss)
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
    def for_n(cls, n: int, c_iter: float = 10.0, rel_tol: float = 1e-8,
              max_iters: int = 0) -> "StopRule":
        """Iteration budget max_iters, or ceil(c_iter * sqrt(n)) when it is 0:
        the sample EM map needs order sqrt(n) steps in the worst case, c_iter
        adds the safety factor."""
        if not max_iters and not (0.0 < c_iter < math.inf):
            raise ValueError(f"c_iter must be finite and positive, got {c_iter}")
        return cls(max_iters=max_iters or math.ceil(c_iter * math.sqrt(n)), rel_tol=rel_tol)

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
    return _kernel(data.samples, theta)(theta)[0] / data.n


def _map_in_order(fn, items, threads: int) -> list:
    """[fn(item) for item in items] on ``threads`` threads, BLAS on one thread.

    Results come in item order, whatever the schedule; one thread runs the
    items in the calling thread. BLAS is set to one thread first
    (model._one_blas_thread), as worker threads on top of BLAS threads would
    oversubscribe the cores.
    """
    _one_blas_thread()
    if threads == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# Thetas per kernel pass of em_map_batch. On a 2-core Xeon, medians of 3 x 5
# calls: at d=1, n=1e6, k=100 groups of 48 took 0.21 s, of 24, 32 and 64
# 0.26-0.27 s and of 96 0.39 s (100 thetas split unevenly over two cores);
# at d=2, n=1e6, k=192 groups of 32 to 96 were within noise (0.33-0.43 s).
_GROUP = 48
# Blocks per run that a worker of em_map_batch takes at a time: few enough
# that the workers finish together and that the sums kept for the fold stay
# small, enough that a stream's generator is positioned once per few blocks.
_RUN = 4


def em_map_batch(samples, thetas) -> np.ndarray:
    """f_n evaluated at many points at once; thetas is (k, d), result (k, d).

    ``samples`` is the (n, d) array of samples or a model.SampleStream, which
    draws them block by block and never holds all n rows. k may be 0, which
    gives an empty (0, d) result.

    The thetas run in groups of _GROUP, each a pass of model._kernel over one
    block of rows. One walk over blocks sized for the first group applies
    every group, a short last one too, to a block while it sits in L2, so a
    stream is drawn once. os.cpu_count() workers, BLAS on one thread, take
    runs of _RUN blocks in turn from a shared counter, and the block sums are
    folded in block order from block 0 as the runs complete; a run's sums are
    kept only until every earlier run is folded. Those are the additions of
    one kernel pass per group over all n rows in those blocks, so the bytes
    are those and depend only on the inputs. Once a worker raises, the others
    take no further runs.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    (n, d), k = samples.shape, thetas.shape[0]
    stream = isinstance(samples, SampleStream)
    dtype = np.dtype(np.float64) if stream else samples.dtype
    if k == 0:
        return np.empty((0, d), dtype)
    if n == 0:
        raise ValueError("samples has no rows")
    # Each worker gets a buffer of one block and a kernel set up on it per
    # group size, and a short last block its own buffer and kernels, as it
    # falls in one run; all are made here in the calling thread, so their
    # memory goes back to the main malloc arena. A group of at most _GROUP
    # thetas gets blocks at least this long from model._block, so each kernel
    # is one block. As in a (d, n) array of several blocks, a buffer's rows
    # are one column longer than its block: numpy projects a contiguous
    # (m, d) block by another path, whose bits can differ (seen for one theta
    # at d >= 4 and m <= 3).
    groups = [(lo, thetas[lo:lo + _GROUP]) for lo in range(0, k, _GROUP)]
    sizes = {g.shape[0]: g for _, g in groups}
    block = min(n, _block(d, min(k, _GROUP), dtype.itemsize))
    count = -(-n // block)

    def setup(m):
        buf = np.empty((d, m + (count > 1)), dtype)[:, :m]
        return buf, {r: _kernel(buf.T, g) for r, g in sizes.items()}

    workers = min(os.cpu_count() or 1, -(-count // _RUN))
    slots = [setup(block) for _ in range(workers)]
    last = n - (count - 1) * block
    short = setup(last) if last < block else None
    lock, runs, kept = threading.Lock(), iter(range(0, count, _RUN)), {}
    total, folded, failed = None, 0, False

    def take():
        with lock:
            return None if failed else next(runs, None)

    def fold(first, sums):
        # left fold of the block sums in block order, from block 0
        nonlocal total, folded
        with lock:
            kept[first] = sums
            while folded in kept:
                for part in kept.pop(folded):
                    total = part if total is None else np.add(total, part, out=total)
                    folded += 1

    def walk(slot, first):
        # the sums of the blocks of the run that starts at block ``first``
        blocks = range(first, min(first + _RUN, count))
        sums = np.empty((len(blocks), k, d), dtype)
        read = samples.reader(first * block) if stream else None
        for i, b in enumerate(blocks):
            cols, kernels = short if short and b == count - 1 else slot
            if read is None:
                np.copyto(cols, samples[b * block:b * block + cols.shape[1]].T)
            else:
                read(cols)
            for lo, g in groups:
                sums[i, lo:lo + g.shape[0]] = kernels[g.shape[0]](g)[0]
        return sums

    def work(slot):
        nonlocal failed
        try:
            while (first := take()) is not None:
                fold(first, walk(slot, first))
        except BaseException:
            failed = True
            raise

    _map_in_order(work, slots, workers)
    return total / n


def run_em(data: Dataset, theta0, stop: StopRule, spec: ModelSpec | None = None,
           keep_iterates: bool = False) -> Trajectory:
    """Iterate the EM map from theta0, recording the full diagnostic record.

    ``spec`` supplies the ground truth for the decomposition and the loss;
    it defaults to the spec the dataset was generated from. The iterates are
    those of _iterates, each with its log-likelihood from the pass that takes
    its EM step (T + 1 passes for T steps); a non-finite one raises
    ValueError naming its step. stop_reason is rel_change when the rule fired
    on the last step, else max_iters.
    """
    if spec is None:
        spec = data.spec
    theta0 = np.asarray(theta0, dtype=np.float64)
    if theta0.shape != (data.d,):
        raise ValueError("theta0 must have length d")
    eta = spec.direction

    alphas, betas, losses, logliks, iterates = [], [], [], [], []
    prev = th = None
    for th_next, logcosh_sum in _iterates(data.samples, theta0, stop, with_logcosh=True):
        prev, th = th, th_next
        if eta is None:
            a, b = 0.0, float(np.linalg.norm(th))
        else:
            a = float(th @ eta)
            b = float(np.linalg.norm(th - a * eta))
        alphas.append(a)
        betas.append(b)
        losses.append(loss(th, spec.theta_star))
        logliks.append(_log_likelihood_from(data, th, logcosh_sum))
        if keep_iterates:
            iterates.append(th)

    fired = prev is not None and stop.step_small(float(np.linalg.norm(th - prev)),
                                                 float(np.linalg.norm(prev)))
    return Trajectory(
        alpha=np.array(alphas),
        beta=np.array(betas),
        loss=np.array(losses),
        loglik=np.array(logliks),
        stop_reason=StopReason.REL_CHANGE if fired else StopReason.MAX_ITERS,
        iterates=np.array(iterates) if keep_iterates else None,
    )


def iterate_em(samples: np.ndarray, theta0, stop: StopRule,
               dtype=np.float64) -> tuple[np.ndarray, int]:
    """Bare EM loop for sweeps: returns (final iterate as float64, steps run).

    The step count is the first t at which the relative-change rule fired,
    or max_iters if it never did. float32 halves memory traffic for the
    tanh/matmul inner loop; the returned iterate is cast back to float64.
    The iterates are those of _iterates, so float64 ones agree bitwise with
    run_em's; a non-finite one raises ValueError naming its step.
    """
    for t, (theta, _) in enumerate(_iterates(samples, theta0, stop, dtype)):
        pass
    return theta.astype(np.float64), t


def _iterates(samples: np.ndarray, theta0, stop: StopRule, dtype=np.float64,
              with_logcosh: bool = False):
    # The one EM loop: (theta_t, sum_i logcosh(<theta_t, y_i>) or None) for
    # t = 0, 1, ... up to the step at which the relative-change rule fires or
    # max_iters; a non-finite iterate raises ValueError naming its step. The
    # samples are used as the contiguous (d, n) block S.T, which for a
    # Dataset's float64 samples is the stored block; others are copied once.
    # model._kernel is set up once, and each pass at theta_t gives its sum and
    # theta_{t+1}: T passes for T steps, or T + 1 with the sums, whose last
    # pass is at the last iterate. The iterates do not depend on with_logcosh.
    S = np.ascontiguousarray(samples.T, dtype=dtype).T
    theta = np.asarray(theta0, dtype=dtype).copy()
    f_n, n = _kernel(S, theta), S.shape[0]
    total, logcosh_sum = f_n(theta, with_logcosh)
    yield theta, logcosh_sum
    for t in range(1, stop.max_iters + 1):
        nxt = total / n
        if not np.all(np.isfinite(nxt)):
            raise ValueError(f"EM iterate is not finite at step {t}")
        done = t == stop.max_iters or stop.step_small(float(np.linalg.norm(nxt - theta)),
                                                      float(np.linalg.norm(theta)))
        if with_logcosh or not done:
            total, logcosh_sum = f_n(nxt, with_logcosh)
        yield nxt, logcosh_sum
        if done:
            return
        theta = nxt


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
    _one_blas_thread()
    # at d = 1 an elementwise product, as in the kernel
    x = np.abs(y[:, 0] * theta[0] if data.d == 1 else y @ theta)
    e = np.exp(-x)
    w = 2.0 * e / (1.0 + e * e)
    w *= w
    return (y * w[:, None]).T @ y / data.n
