"""Brute-force counterparts of closed forms in em2gm, and checks shared by
several test files, used only by the tests."""

import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from em2gm import model, population
from em2gm.rng import make_generator


def grad_log_likelihood(data, theta) -> np.ndarray:
    """Gradient of model.log_likelihood: -theta + E_n[Y tanh<theta, Y>].

    Built on model._kernel, the kernel of the EM map, so em_map = theta +
    grad holds bitwise.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return model._kernel(data.samples, theta)(theta)[0] / data.n - theta


def chi2_to_standard(theta) -> float:
    """Chi-square divergence of the mixture from N(0, I_d): cosh(|theta|^2) - 1.

    Evaluated as (expm1(r) + expm1(-r))/2 with r = |theta|^2, which is exact
    for small centers where cosh(r) - 1 would cancel catastrophically.
    """
    theta = np.asarray(theta, dtype=np.float64)
    r = float(theta @ theta)
    return 0.5 * (math.expm1(r) + math.expm1(-r)) if r < 709.0 else math.inf


def tanh_sup_grid_search(x: float, y: float) -> float:
    """Numeric counterpart of deviation.tanh_sup_ratio over a wide theta grid.

    The grid spans {+/- 10^k : k in [-6, 2]} plus a fine linear refinement,
    so the search sees both the theta -> 0 limit and the saturated regime.
    """
    mags = np.concatenate([
        np.power(10.0, np.linspace(-6.0, 2.0, 161)),
        np.linspace(1e-3, 5.0, 2001)[1:],
    ])
    thetas = np.concatenate([mags, -mags])
    num = np.abs(x * np.tanh(x * thetas) - y * np.tanh(y * thetas))
    return float(np.max(num / np.abs(thetas)))


def fg_inequality_violation(a: float, b: float, s: float, fa: float, F: float,
                            G: float) -> float:
    """Largest violation of criterion 08's suite for the two-coordinate maps.

    F = F(a, b) and G = G(a, b) at signal s, and fa = f(a); with r2 = a^2 +
    b^2 and c = sqrt(2/pi) the suite is G <= b (1 - r2 / (2 + 4 r2)),
    f(a) - (1 + s^2) a b^2 <= F <= f(a), |F| <= s + c and 0 <= G <= c. Each
    is measured as left minus right side, so a value <= 0 means it holds.
    """
    bound = math.sqrt(2.0 / math.pi)
    r2 = a * a + b * b
    return max(G - b * (1.0 - r2 / (2.0 + 4.0 * r2)),
               F - fa,
               (fa - (1.0 + s * s) * a * b * b) - F,
               abs(F) - (s + bound),
               -G,
               G - bound)


def f_pop_com(theta: float, s: float, rule) -> float:
    """population.f_pop by the change of measure E[h(V)] = E[h(Z) cosh(s Z)] e^{-s^2/2}.

    The cosh reweighting overflows for large s and the direct Hermite sum
    behind it loses accuracy once |theta| grows, so this route is certified
    for |theta| <= 1.25 and s <= 3 (absolute error below 1e-8 there).
    """
    if s > 3.0:
        raise ValueError("change-of-measure route is certified only for s <= 3")
    z = rule._z
    vals = z * np.tanh(float(theta) * z) * np.cosh(s * z)
    return math.exp(-0.5 * s * s) * float(rule._wz @ vals)


def fg_pop_separately(alpha: float, beta: float, s: float, rule) -> tuple[float, float]:
    """population.F_pop and G_pop as two separate evaluations, each with its
    own call of population._tanh_kernels and its own zero case."""
    a = float(alpha)
    r = math.hypot(a, beta)
    if r == 0.0:
        F = 0.0
    else:
        t1, tz = population._tanh_kernels(a * s, r, rule)
        F = s * t1 + (a / r) * tz
    b = float(beta)
    if b == 0.0:
        return F, 0.0
    r = math.hypot(alpha, b)
    _, tz = population._tanh_kernels(float(alpha) * s, r, rule)
    return F, (b / r) * tz


def sample_rows_reference(spec, n: int, seed: int) -> np.ndarray:
    """model.sample_dataset's samples by the one-shot recipe, as an (n, d) view.

    The whole (n, d+1) matrix of uniforms is drawn at once from 53-bit
    integers as (k + 0.5) * 2**-53, the full sign vector is taken from its
    first column, ndtri of the rest is written into a (d, n) block, and
    theta_star[j] * signs is added to row j for every nonzero coordinate j.
    """
    k = make_generator(seed).integers(0, 1 << 53, size=(n, spec.d + 1), dtype=np.int64)
    u = (k + 0.5) * 2.0 ** -53
    signs = np.where(u[:, 0] < 0.5, 1.0, -1.0)
    yt = np.empty((spec.d, n))
    ndtri(u[:, 1:].T, out=yt)
    for j in np.flatnonzero(spec.theta_star):
        yt[j] += spec.theta_star[j] * signs
    return yt.T


def blas_threads_or_skip(cores: int = 1):
    """(get, set) of the thread count of numpy's OpenBLAS; skips the test
    with another BLAS, or on fewer than ``cores`` cores."""
    found = model._openblas("openblas_get_num_threads", "openblas_set_num_threads")
    if found is None:
        pytest.skip("no thread control found for numpy's BLAS")
    if (os.cpu_count() or 1) < cores:
        pytest.skip(f"needs {cores} cores")
    (get, set_), _ = found
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


def run_cli(out, *argv: str, **env: str) -> None:
    """``python -m em2gm.cli *argv --out out`` in a fresh process, with no
    BLAS thread variable set (numpy's BLAS at its default thread count, one
    per core) unless ``env`` sets one."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    src = str(Path(model.__file__).parents[1])
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, base.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-m", "em2gm.cli", *argv, "--out", str(out)],
                   env={**base, **env}, check=True, capture_output=True, timeout=300)
