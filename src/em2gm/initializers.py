"""Starting points for the EM iteration.

Four kinds: the scaled random-sphere start c0 (d log n / n)^{1/4} eta with
eta uniform on the unit sphere, the spectral estimator built from the top
eigenpair of the sample second-moment matrix, a user-fixed vector, and the
zero baseline. The spectral estimator is also an estimator in its own right
and is compared against EM in the risk experiments. An InitSpec names the
kind and its parameters; the seed of the random kind is an argument of
make_init, so every caller hands each replicate its own derived stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, _one_blas_thread
from .rng import make_generator, standard_normals

__all__ = [
    "InitSpec",
    "random_sphere_init",
    "spectral_init",
    "make_init",
]

_KINDS = ("random_sphere", "spectral", "fixed", "zero")


@dataclass(frozen=True)
class InitSpec:
    """Which initializer to use and its parameters.

    ``fixed_value`` must be present exactly when kind is "fixed", and
    finite; ``c0`` scales the random-sphere radius and is finite and
    positive.
    """

    kind: str
    c0: float = 1.0
    fixed_value: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}; expected one of {_KINDS}")
        if (self.fixed_value is not None) != (self.kind == "fixed"):
            raise ValueError("fixed_value must be given iff kind='fixed'")
        if not (0.0 < self.c0 < math.inf):
            raise ValueError("c0 must be finite and positive")
        if self.fixed_value is not None:
            value = tuple(float(v) for v in self.fixed_value)
            if not all(map(math.isfinite, value)):
                raise ValueError("fixed_value must be finite")
            object.__setattr__(self, "fixed_value", value)


def random_sphere_init(d: int, n: int, c0: float, seed: int) -> np.ndarray:
    """c0 (d log n / n)^{1/4} times a uniform direction on the unit sphere.

    The radius is the scale at which a random start provably escapes the
    flat region around the origin; its norm is exact by construction.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2 so that log n > 0")
    if not (0.0 < c0 < math.inf):
        raise ValueError("c0 must be finite and positive")
    radius = c0 * (d * math.log(n) / n) ** 0.25
    rng = make_generator(seed)
    z = standard_normals(rng, d)
    norm = np.linalg.norm(z)
    while norm == 0.0:  # probability zero; guard keeps the contract total
        z = standard_normals(rng, d)
        norm = np.linalg.norm(z)
    return radius * (z / norm)


def spectral_init(data: Dataset) -> np.ndarray:
    """Spectral estimator sqrt((lambda - 1)_+) eta from the top eigenpair.

    The pair is the exact symmetric eigendecomposition (``np.linalg.eigh``)
    of Sigma = (1/n) sum y_i y_i^T, a d x d matrix. Power iteration would
    stall when the top of the spectrum is nearly tied, as at weak signal,
    where the gap is only order s^2 and the sampling noise can shrink it
    arbitrarily. The clamp at lambda <= 1 returns the zero vector: the
    mixture adds s^2 to the top eigenvalue of the identity, so nothing above
    1 means no detectable signal. Sign of the output is arbitrary, as is the
    parameter's. The Gram matrix S^T S is formed in the samples' dtype, and
    Sigma and its eigenpair in float64.
    """
    S = data.samples
    _one_blas_thread()
    evals, evecs = np.linalg.eigh(np.asarray(S.T @ S, dtype=np.float64) / data.n)
    lam = float(evals[-1])
    if lam <= 1.0:
        return np.zeros(data.d)
    return math.sqrt(lam - 1.0) * evecs[:, -1]


def make_init(init: InitSpec, data: Dataset, seed: int) -> np.ndarray:
    """Materialize a starting vector for the given dataset.

    ``seed`` feeds the random-sphere kind (the others ignore it), so
    experiment sweeps hand every replicate its own derived stream.
    """
    if init.kind == "zero":
        return np.zeros(data.d)
    if init.kind == "fixed":
        theta0 = np.asarray(init.fixed_value, dtype=np.float64)
        if theta0.shape != (data.d,):
            raise ValueError(f"fixed_value has length {theta0.size}, expected d={data.d}")
        return theta0.copy()
    if init.kind == "random_sphere":
        return random_sphere_init(data.d, data.n, init.c0, seed)
    return spectral_init(data)
