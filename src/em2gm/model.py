"""The symmetric two-component Gaussian mixture and its likelihood.

The model is a balanced mixture of N(theta, I_d) and N(-theta, I_d) with a
single unknown center ``theta``. The parameter is identifiable only up to a
global sign flip, so estimation error is always measured by

    loss(a, b) = min(|a - b|, |a + b|)

in the Euclidean norm. This module owns the ground truth (ModelSpec), the
sampler (SampleStream, and Dataset, the samples held), the loss and the
average log-likelihood. A Dataset and a SampleStream each carry the ModelSpec
they are drawn from, so the probes take the data alone and read the truth
from it. The likelihood, the EM map and its batch form share one kernel,
_kernel.

Samples are stored feature-major: ``Dataset.samples`` is the (n, d) transpose
view of a read-only, C-contiguous (d, n) block, which the kernel walks in
column blocks of 512 KiB at d = 1 and 1 MiB at d >= 2 (fewer columns for a
stack of k > d thetas, so that the inner products fit too), set up once per EM
run: each is projected, put through tanh and reduced while it sits in L2. The
row-major (n, d) layout measured about twice as slow at d >= 2. A pass that
also sums logcosh(<theta, y_i>), as run_em's do, holds one scratch block more
than an EM step and allocates nothing per block; log_likelihood's pass sums
logcosh alone, with neither tanh nor reduction. Each block's
reduction has the bits of np.matmul, and for one theta it releases the GIL,
so sweep threads overlap their reductions: at d = 1 it is np.dot of the
block's sample row, at d >= 2 a direct ctypes call of the cblas_?gemv that
np.matmul would call in numpy's bundled OpenBLAS. np.matmul reduces a stack
of thetas, a block of one column, and every block where that library is not
found. The projection of one theta at d >= 2 is a matrix-vector np.matmul,
which holds the GIL for its whole product, so sweep threads take turns on it.
This module owns the one lookup of that library's routines (_openblas) and
the one BLAS rule, _one_blas_thread: every em2gm pass computes with that
library on one thread, set by _kernel's set-up, spectral_init, em_jacobian
and sample_em's ordered thread map and never restored, as a threaded BLAS
sums in an order that depends on its thread count (at d = 1 it splits a long
block's dot) and no em2gm kernel gains from its threads. So once em2gm has
computed, numpy's BLAS stays on one thread in that process.
There is one sampler, _draw_rows: SampleStream draws any range of rows with
it from a generator positioned at its first row and checks them finite, so
the batch map's workers draw their own blocks of one stream and the
deviation probe never holds all n rows. _draw_rows draws at most
_DRAW_BYTES (128 KiB) of uniforms at a time, a working set of its own apart
from the kernel's blocks, so sample_dataset fills the (d, n) block with one
call and a stream's read of a large block is bounded too. It computes each
chunk in float64 and rounds it into a float32 block, so a float32 Dataset,
which a float32 sweep cell samples, holds the float64 samples rounded and no
float64 copy of them. Dataset holds float32 or float64 samples only, checks
the block and sums its squared row norms in float64, one leaf of at most
_DRAW_BYTES of rows at a time (same bits as one pass), so sampling holds the
block and a few times _DRAW_BYTES more at its peak.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .rng import make_generator, open_uniforms

__all__ = [
    "ModelSpec",
    "Dataset",
    "SampleStream",
    "sample_dataset",
    "loss",
    "logcosh",
    "log_likelihood",
]

_LOG_2 = math.log(2.0)
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ModelSpec:
    """Ground truth for one experiment: the center ``theta_star`` in R^d.

    The dimension ``d`` is len(theta_star), ``s`` caches the Euclidean norm
    of ``theta_star`` and ``direction`` the unit vector along it (None when
    the center is zero and no direction is defined). Instances are immutable
    and safe to share across threads.
    """

    theta_star: np.ndarray
    s: float = field(init=False)

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_star, dtype=np.float64)).copy()
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta_star must be a nonempty 1-D vector")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_star must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "s", float(np.linalg.norm(theta)))

    @classmethod
    def along_axis(cls, s: float, d: int) -> "ModelSpec":
        """Center of norm ``s`` on the first coordinate axis."""
        if d < 1:
            raise ValueError("d must be >= 1")
        if not (np.isfinite(s) and s >= 0.0):
            raise ValueError("s must be finite and nonnegative")
        theta = np.zeros(d)
        theta[0] = s
        return cls(theta)

    @property
    def d(self) -> int:
        return self.theta_star.size

    @property
    def direction(self) -> np.ndarray | None:
        """Unit vector theta_star / |theta_star|, or None at the origin."""
        if self.s == 0.0:
            return None
        return self.theta_star / self.s


@dataclass(frozen=True)
class Dataset:
    """n samples of Y = X theta_star + Z, X a fair sign, Z standard normal.

    ``spec`` is the truth the samples were drawn from, which every probe of
    the dataset reads. Immutable; sample_dataset(spec, n, seed) with the same
    arguments is bit-identical.

    ``samples`` has shape (n, d) but is stored feature-major: it is the
    transpose view of a read-only, C-contiguous (d, n) array, so
    ``samples.T`` is what the EM kernel streams (see the module docstring).
    Its dtype is float32 or float64, which the kernel computes in; any other
    raises ValueError. Samples given in any other layout, or writable, are
    copied once into this form. ``mean_sq_norm`` is the constant
    (1/n) sum_i |y_i|^2 of the log-likelihood, computed once here in
    float64; the instance may be shared across sweep threads, and nothing
    about it changes after construction.

    One pass over leaves of rows, each at most _DRAW_BYTES of samples (and
    at least 128 rows), rejects non-finite samples and sums the squared row
    norms, so construction needs O(leaf) memory beyond the samples, not
    O(n d). Ranges of more rows than a leaf split in half, less the half's
    remainder mod 8: that is where numpy's pairwise summation splits, so
    ``mean_sq_norm`` equals ``np.mean(np.einsum("ij,ij->i", samples,
    samples, dtype=np.float64))`` bit for bit (for float64 samples the dtype
    changes no bit), and so does every log-likelihood built on it.
    """

    samples: np.ndarray
    spec: ModelSpec
    mean_sq_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] < 1:
            raise ValueError("samples must be a nonempty n x d matrix")
        if self.samples.shape[1] != self.spec.d:
            raise ValueError("sample dimension does not match spec.d")
        if self.samples.dtype not in (np.float32, np.float64):
            raise ValueError(f"samples must be float32 or float64, got {self.samples.dtype}")
        y = self.samples
        if y.flags.writeable or not y.T.flags.c_contiguous:
            yt = np.array(y.T, order="C")
            yt.setflags(write=False)
            y = yt.T
            object.__setattr__(self, "samples", y)
        # numpy sums runs of up to 128 values in eight lanes, so only longer
        # ranges may split
        leaf = max(128, _DRAW_BYTES // (y.shape[1] * y.itemsize))
        object.__setattr__(self, "mean_sq_norm", float(_sum_sq_norms(y, leaf) / y.shape[0]))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def _sum_sq_norms(rows: np.ndarray, leaf: int):
    # sum_i |y_i|^2 over the (m, d) rows, with the bits of np.add.reduce over
    # all m squared norms (see Dataset); raises on a non-finite sample
    m = rows.shape[0]
    if m > leaf:
        h = m // 2 - m // 2 % 8
        return _sum_sq_norms(rows[:h], leaf) + _sum_sq_norms(rows[h:], leaf)
    if not np.isfinite(rows).all():
        raise ValueError("samples must be finite")
    return np.add.reduce(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))


def sample_dataset(spec: ModelSpec, n: int, seed: int, dtype=np.float64) -> Dataset:
    """Draw n iid samples from the mixture, deterministically in ``seed``.

    The rows are those of SampleStream(spec, n, seed), drawn by the same
    _draw_rows, _DRAW_BYTES of uniforms at a time, straight into their
    columns of the feature-major (d, n) block of ``dtype`` (float64 or
    float32), so peak memory is the block plus one chunk of uniforms.
    float32 samples are the float64 ones rounded, bit for bit. Dataset
    checks them finite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    yt = np.empty((spec.d, n), dtype)
    _draw_rows(make_generator(seed), spec.theta_star, yt)
    yt.setflags(write=False)
    return Dataset(samples=yt.T, spec=spec)


@dataclass(frozen=True)
class SampleStream:
    """The n rows that sample_dataset(spec, n, seed) holds, drawn on demand.

    Row i consumes d+1 uniforms of the seed's stream: one for the sign, d for
    the normal vector. ``reader(lo)`` positions a generator at row lo, so
    workers can each draw their own rows of one stream, and any split into
    row ranges gives the bytes of one draw. ``shape`` is the (n, d) of the
    samples, so the batch map takes a stream where it takes an array.
    """

    spec: ModelSpec
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def shape(self) -> tuple[int, int]:
        return self.n, self.spec.d

    def reader(self, lo: int):
        """read(cols) fills the (d, m) column buffer cols with the next m rows
        from row lo on and raises ValueError if a sample is not finite."""
        rng = make_generator(self.seed, lo * (self.spec.d + 1))

        def read(cols: np.ndarray) -> None:
            _draw_rows(rng, self.spec.theta_star, cols)
            if not np.isfinite(cols).all():
                raise ValueError("samples must be finite")

        return read


# Bytes of uniforms per draw of _draw_rows, the sampler's working set, kept
# apart from the kernel's blocks. On a 2-core Xeon, after five risk-compare
# runs at d=10 (two sweep threads, each sampling (10, 1e5) datasets of
# 7.6 MiB) each thread's malloc arena held 9.9 MiB with 1 MiB chunks and
# 8.1 MiB with 128 KiB ones. A dataset took 28.5 against 27.1 ms to draw
# (medians of 60 alternating draws, one thread); two threads drawing a dataset
# each took 43, 50, 53 and 63 ms at 1 MiB, 128, 64 and 32 KiB (medians of 5).
_DRAW_BYTES = 1 << 17


def _draw_rows(rng: np.random.Generator, theta_star: np.ndarray, cols: np.ndarray) -> None:
    # The next cols.shape[1] rows of the stream into the (d, m) column slice
    # cols, in chunks of at most _DRAW_BYTES of uniforms (one row at least);
    # consecutive draws continue the stream, so any chunking gives the bytes
    # of one draw. Each chunk is computed in float64 and, for float32 cols,
    # rounded into them once complete. Each chunk's uniforms, signs and
    # float64 rows are freed before the next.
    d, m = cols.shape
    chunk = max(1, _DRAW_BYTES // ((d + 1) * 8))
    nonzero = np.flatnonzero(theta_star)  # no normal is -0: skipping zeros keeps the bits
    for lo in range(0, m, chunk):
        part = cols[:, lo:lo + chunk]
        u = open_uniforms(rng, (part.shape[1], d + 1))
        rows = part if part.dtype == np.float64 else np.empty(part.shape)
        ndtri(u[:, 1:].T, out=rows)
        if nonzero.size:
            signs = np.where(u[:, 0] < 0.5, 1.0, -1.0)
            for j in nonzero:
                rows[j] += theta_star[j] * signs
        if rows is not part:
            part[...] = rows


def loss(theta_hat, theta) -> float:
    """Euclidean distance modulo the global sign flip."""
    a = np.asarray(theta_hat, dtype=np.float64)
    b = np.asarray(theta, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def logcosh(x):
    """log(cosh(x)), overflow-safe for any magnitude."""
    # cosh(x) = e^|x| (1 + e^{-2|x|}) / 2; the inner products can exceed 700.
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG_2


# Bytes of samples per column block of the kernel, so that a block and its
# inner products stay in L2 from projection to reduction: 512 KiB ran the d=1
# float32 sweep fastest, 1 MiB the d=10 sweep on two threads. With k thetas a
# block has bytes // (max(d, k) * itemsize) columns, so that its (block, k)
# inner products fit in the same bytes. Sampling has its own _DRAW_BYTES.
_BLOCK_BYTES_1D, _BLOCK_BYTES = 1 << 19, 1 << 20


def _kernel(samples: np.ndarray, theta: np.ndarray):
    # The one kernel, set up once per EM run and used by one thread: the
    # column blocks with what to project, a slice of one buffer and the
    # block's reduction each, the accumulators of the block sums, and the
    # checks of the samples and of theta's shape, (d,) for one theta or (k, d)
    # for a stack of k. f_n(theta, with_logcosh) -> (sum_i y_i tanh(<theta,
    # y_i>) in theta's shape, sum_i logcosh(<theta, y_i>) for one theta, or
    # None) adds the block sums in block order from the first, so n within one
    # block gives the bytes of one product. Callers divide the sum by n;
    # em_map_batch adds the sums of one-block kernels itself. At d >= 2 the inner
    # products are one BLAS product per block; at d = 1 an elementwise
    # multiply, as numpy runs (n, 1) @ (1,) as a per-row loop ten times
    # slower. The bits agree but for the sign of a zero product at theta = 0,
    # which tanh keeps and the sum over rows drops. Per block, tanh, the
    # projection at d = 1 or of a stack of thetas (np.multiply, or a
    # matrix-matrix np.matmul) and the reduction (_reductions) release the
    # GIL. The projection of one theta at d >= 2 is a matrix-vector
    # np.matmul, which holds it for the whole product, so two sweep threads
    # take turns on it.
    # f_n.logcosh_sum(theta) is the same pass with neither tanh nor reduction,
    # the logcosh sum alone, for log_likelihood. A logcosh sum holds one
    # scratch block beside the projections, made at its first pass: |z| goes
    # there before tanh, and once the block is reduced logcosh's remaining
    # operations (_logcosh_of_abs) run in the projection buffer, so each
    # block's sum has the bits of np.sum(logcosh(z)) and no pass allocates.
    n, d = samples.shape
    if n == 0:
        raise ValueError("samples has no rows")
    if theta.ndim not in (1, 2) or theta.shape[-1] != d:
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},) or (k, {d})")
    _one_blas_thread()
    stack = theta.shape[:-1]  # () for one theta, (k,) for k of them
    flat = d == 1 and not stack  # project one column by one number
    block = _block(d, stack[0] if stack else 1, samples.itemsize)
    buf = np.empty((min(n, block), *stack), dtype=samples.dtype)
    acc, part = np.empty((d, *stack), samples.dtype), np.empty((d, *stack), samples.dtype)
    blocks = [(rows[:, 0] if flat else rows, buf[:rows.shape[0]], reduce) for rows, reduce in zip(
        (samples[lo:lo + block] for lo in range(0, n, block)),
        _reductions(samples.T, block, buf, acc, part))]
    project = np.multiply if d == 1 else np.matmul
    scratch = None

    def run(theta: np.ndarray, em: bool, with_logcosh: bool) -> float:
        # one pass: the EM sum into acc if em, and the logcosh sum returned
        nonlocal scratch
        t, lc = theta[0] if flat else theta.T, 0.0
        if with_logcosh and scratch is None:
            scratch = np.empty_like(buf)
        for i, (rows, z, reduce) in enumerate(blocks):
            project(rows, t, out=z)
            if with_logcosh:
                ax = np.abs(z, out=scratch[:z.shape[0]])
            if em:
                np.tanh(z, out=z)
                reduce()
                if i:
                    np.add(acc, part, out=acc)
            if with_logcosh:
                lc += float(np.sum(_logcosh_of_abs(ax, z)))
        return lc

    def f_n(theta: np.ndarray, with_logcosh: bool = False) -> tuple[np.ndarray, float | None]:
        lc = run(theta, True, with_logcosh)
        return acc.T.copy(), lc if with_logcosh else None

    f_n.logcosh_sum = lambda theta: run(theta, False, True)
    return f_n


def _logcosh_of_abs(ax: np.ndarray, out: np.ndarray) -> np.ndarray:
    # logcosh(x) from ax = |x|: the operations of logcosh after its np.abs,
    # in its order and dtype, into out, which may not overlap ax
    np.multiply(-2.0, ax, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    np.add(ax, out, out=out)
    return np.subtract(out, _LOG_2, out=out)


def _block(d: int, k: int, itemsize: int) -> int:
    # columns per kernel block for k thetas at dimension d
    return max(1, (_BLOCK_BYTES_1D if d == 1 else _BLOCK_BYTES) // (max(d, k) * itemsize))


# Manglings of the OpenBLAS bundled with numpy and the width of its integers:
# scipy-openblas64 wheels, openblas64_ builds, an LP64 OpenBLAS.
_OPENBLAS_NAMES = (("scipy_", "64_", ctypes.c_int64), ("", "64_", ctypes.c_int64),
                   ("", "", ctypes.c_int))


@functools.cache
def _openblas_library() -> ctypes.CDLL | None:
    # dlsym on numpy's extension module also searches the libraries it links,
    # which reaches the bundled OpenBLAS
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        return ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None


def _openblas(*names: str):
    """([routine per name], BLAS integer type) of numpy's OpenBLAS, or None.

    The names are looked up under the first mangling that has them all; with
    none (another BLAS) the caller keeps to numpy.
    """
    lib = _openblas_library()
    for prefix, suffix, integer in () if lib is None else _OPENBLAS_NAMES:
        try:
            return [getattr(lib, prefix + name + suffix) for name in names], integer
        except AttributeError:
            continue
    return None


@functools.cache
def _gemv(dtype: np.dtype):
    """(cblas_?gemv, integer, real) of numpy's OpenBLAS for float32 or
    float64, typed for ctypes, or None (another dtype or another BLAS)."""
    letter = {np.dtype(np.float32): "s", np.dtype(np.float64): "d"}.get(np.dtype(dtype))
    found = letter and _openblas(f"cblas_{letter}gemv")
    if not found:
        return None
    (gemv,), i = found
    x, e, p = ctypes.c_float if letter == "s" else ctypes.c_double, ctypes.c_int, ctypes.c_void_p
    gemv.argtypes, gemv.restype = (e, e, i, i, x, p, i, p, i, x, p, i), None
    return gemv, i, x


@functools.cache
def _blas_thread_control():
    """openblas_set_num_threads of numpy's OpenBLAS, typed for ctypes, or
    None (another BLAS, whose thread count is left alone)."""
    found = _openblas("openblas_set_num_threads")
    if found is None:
        return None
    (set_threads,), _ = found
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    return set_threads


def _one_blas_thread() -> None:
    """Set numpy's OpenBLAS to one thread for the rest of the process (see
    the module docstring); a no-op with another BLAS."""
    set_threads = _blas_thread_control()
    if set_threads is not None:
        set_threads(1)


_ROW_MAJOR, _NO_TRANS = ctypes.c_int(101), ctypes.c_int(111)


def _reductions(yt: np.ndarray, block: int, buf: np.ndarray, acc: np.ndarray,
                part: np.ndarray) -> list:
    # A call with no arguments per column block of the (d, n) samples yt that
    # writes cols @ buf[:m] into acc for the first block and into part for
    # the others, cols the block's (d, m) columns, with the bits of np.matmul.
    # For one theta (buf of one axis), with numpy's OpenBLAS found and yt's
    # rows contiguous, it calls the BLAS routine np.matmul would, releasing
    # the GIL: at d = 1 through np.dot of the block's row (?dot), at d >= 2
    # through ctypes (cblas_?gemv, with yt's row stride as the leading
    # dimension), as np.matmul holds the GIL for a matrix-vector product and
    # np.dot copies the strided block. The gemv arguments are settled here,
    # each block's address by offset from the first, as each .ctypes lookup
    # costs microseconds. np.matmul reduces the rest: a stack of thetas (a
    # matrix-matrix product, which releases the GIL), every block without
    # that library, and a block of one column, for which numpy runs its own
    # loop, which sums from +0 and so turns a -0 product into +0 where BLAS
    # keeps the -0.
    (d, n), item = yt.shape, yt.itemsize
    rows_ok = yt.strides[1] == item and (d == 1 or yt.strides[0] >= n * item)
    found = _gemv(yt.dtype) if buf.ndim == 1 and rows_ok else None
    if found is not None and d > 1:
        gemv, i, x = found
        base, b = yt.ctypes.data, ctypes.c_void_p(buf.ctypes.data)
        outs = [ctypes.c_void_p(out.ctypes.data) for out in (acc, part)]
        one, zero, unit, lda = x(1.0), x(0.0), i(1), i(yt.strides[0] // item)
    calls = []
    for lo in range(0, n, block):
        cols, z, out = yt[:, lo:lo + block], buf[:min(block, n - lo)], part if lo else acc
        if found is None or z.size == 1:
            calls.append(functools.partial(np.matmul, cols, z, out=out))
        elif d == 1:
            calls.append(functools.partial(np.dot, cols[0], z, out=out.reshape(())))
        else:
            calls.append(functools.partial(gemv, _ROW_MAJOR, _NO_TRANS, i(d), i(z.size), one,
                                           ctypes.c_void_p(base + lo * item), lda, b, unit,
                                           zero, outs[lo > 0], unit))
    return calls


def _log_likelihood_from(data: Dataset, theta: np.ndarray, logcosh_sum: float) -> float:
    # log_likelihood given the kernel's sum of logcosh(<theta, y_i>)
    base = -0.5 * data.mean_sq_norm - 0.5 * data.d * _LOG_2PI
    return base - 0.5 * float(theta @ theta) + logcosh_sum / data.n


def log_likelihood(data: Dataset, theta) -> float:
    """Average log-likelihood (1/n) sum_i log p_theta(y_i).

    The mixture density factors as phi_d(y) exp(-|theta|^2/2) cosh(<theta,y>),
    with phi_d the standard normal density, so the per-sample term is

        -|y|^2/2 - (d/2) log(2 pi) - |theta|^2/2 + logcosh(<theta, y>).

    The logcosh terms are computed in the samples' dtype, at theta rounded to
    it; |theta|^2 and the sums over the blocks are float64. They come from
    the kernel's logcosh-only pass (no tanh, no reduction), which holds the
    projections and one scratch block, with the bits of run_em's
    log-likelihood at the same theta.
    """
    theta = np.asarray(theta, dtype=np.float64)
    t = theta.astype(data.samples.dtype)
    return _log_likelihood_from(data, theta, _kernel(data.samples, t).logcosh_sum(t))
