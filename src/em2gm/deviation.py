"""Probes of the gap between the sample EM map and its population limit.

The central object is Delta_n(theta) = f_n(theta) - f(theta). Its natural
scale is relative: the supremum of |Delta_n(theta)| / |theta| over a grid of
directions and radii is the quantity that controls how long the sample
trajectory shadows the population one. In one dimension the gap obeys the
exact bound |Delta_n(theta)| <= |theta| W1(nu, nu_n), where nu is the law of
Y^2 and nu_n its empirical counterpart, so this module also computes that
Wasserstein distance in closed form: the population CDF of Y^2 is

    F(t) = Phi(sqrt(t) - s) + Phi(sqrt(t) + s) - 1,

whose antiderivative is explicit in Phi and phi, so the integral of
|F_n - F| is evaluated exactly between order statistics (the only work is a
vectorized bisection for the pieces where F crosses the empirical level)
plus an analytic tail. No quadrature error enters anywhere.

The grid probe evaluates f_n at every probe point in one walk of the batch
map over the samples. Given a model.SampleStream instead of a Dataset, it
draws them block by block on every core and holds O(block x cores) samples
instead of n x d, with the same bytes. Each probe takes the data alone and
reads the truth, ``data.spec``, from it, so a sample cannot be paired with
another center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import Dataset, ModelSpec, SampleStream
from .population import QuadratureRule, _fg_pop, _phi
from .rng import make_generator, standard_normals
from .sample_em import em_map_batch
from .svg import write_table

__all__ = [
    "ProbeGrid",
    "DeviationProbe",
    "default_probe_grid",
    "population_map_ddim",
    "relative_lipschitz_probe",
    "w1_squared_empirical",
    "tanh_sup_ratio",
]

@dataclass(frozen=True)
class ProbeGrid:
    """Probe set: every direction paired with every radius.

    The probe divides each gap by its radius, which is |theta| only for a
    unit direction, so the directions must be finite with norms within 1e-12
    of 1 and the radii finite and positive, with k, m >= 1. The grid keeps
    read-only copies, so the caller's arrays stay as they were.
    """

    directions: np.ndarray  # (k, d) unit vectors
    radii: np.ndarray       # (m,) positive radii

    def __post_init__(self):
        for name in ("directions", "radii"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shapes = self.directions.shape, self.radii.shape
        if len(shapes[0]) != 2 or len(shapes[1]) != 1 or 0 in shapes[0] + shapes[1]:
            raise ValueError(f"grid shapes must be (k, d) and (m,) with k, d, m >= 1, got {shapes}")
        if not np.all(np.isfinite(self.radii) & (self.radii > 0.0)):
            raise ValueError("all radii must be finite and positive")
        if not np.all(np.abs(np.linalg.norm(self.directions, axis=1) - 1.0) <= 1e-12):
            raise ValueError("directions must be finite unit vectors (norms within 1e-12 of 1)")

    def thetas(self) -> np.ndarray:
        """All probe vectors, direction-major: row i*m + j is dir i, radius j."""
        return (self.directions[:, None, :] * self.radii[None, :, None]).reshape(
            -1, self.directions.shape[1]
        )


def default_probe_grid(spec: ModelSpec, seed: int, n_directions: int = 32,
                       n_radii: int = 24) -> ProbeGrid:
    """Random directions crossed with log-spaced radii in [1e-3, r_max].

    The ceiling r_max = 10 (sqrt(d) + s) is the radius inside which both the
    sample and population maps provably stay, so probing beyond it is moot.
    """
    for name, count in (("n_directions", n_directions), ("n_radii", n_radii)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    r_max = 10.0 * (math.sqrt(spec.d) + spec.s)
    rng = make_generator(seed)
    dirs = standard_normals(rng, (n_directions, spec.d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    while np.any(norms == 0.0):  # probability zero, totality guard
        dirs = standard_normals(rng, (n_directions, spec.d))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return ProbeGrid(directions=dirs / norms,
                     radii=np.logspace(-3.0, math.log10(r_max), n_radii))


@dataclass(frozen=True)
class DeviationProbe:
    """Relative deviation |f_n(theta) - f(theta)| / |theta| over a grid."""

    grid: np.ndarray           # (k*m, d) probe vectors, none of them zero
    direction_ids: np.ndarray  # (k*m,) index of the direction of each probe
    radii: np.ndarray          # (k*m,) radius of each probe
    ratios: np.ndarray         # (k*m,) nonnegative ratios
    sup_ratio: float

    def to_csv(self, path) -> None:
        write_table(path, ("direction_id", "radius", "ratio"),
                    self.direction_ids, self.radii, self.ratios)


def population_map_ddim(theta, spec: ModelSpec, rule: QuadratureRule) -> np.ndarray:
    """The d-dimensional population EM map f(theta) = E[Y tanh(<theta, Y>)].

    The map never leaves the plane spanned by the true direction eta and the
    iterate: decomposing theta = alpha eta + beta xi with xi a unit vector
    orthogonal to eta, the image is F(alpha, beta) eta + G(alpha, beta) xi.
    With a zero center the map is radial, G(0, |theta|) theta / |theta|.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.d,):
        raise ValueError("theta must have length d")
    eta = spec.direction
    if eta is None:
        r = float(np.linalg.norm(theta))
        if r == 0.0:
            return np.zeros(spec.d)
        return _fg_pop(0.0, r, 0.0, rule)[1] * (theta / r)
    alpha = float(theta @ eta)
    resid = theta - alpha * eta
    beta = float(np.linalg.norm(resid))
    F, G = _fg_pop(alpha, beta, spec.s, rule)
    out = F * eta
    if beta > 0.0:
        out += (G / beta) * resid
    return out


def relative_lipschitz_probe(data: Dataset | SampleStream, grid: ProbeGrid,
                             rule: QuadratureRule) -> DeviationProbe:
    """Evaluate |f_n(theta) - f(theta)| / |theta| on the grid, report the sup.

    ``data`` is a Dataset, or the SampleStream of the same (spec, n, seed),
    which gives the same bytes and never holds the n x d samples; f is the
    population map of its ``spec``.
    """
    spec = data.spec
    thetas = grid.thetas()
    k, m = grid.directions.shape[0], grid.radii.shape[0]
    fn = em_map_batch(data if isinstance(data, SampleStream) else data.samples, thetas)
    radii = np.tile(grid.radii, k)
    gaps = [np.linalg.norm(f - population_map_ddim(t, spec, rule)) for f, t in zip(fn, thetas)]
    ratios = np.array(gaps) / radii
    return DeviationProbe(
        grid=thetas,
        direction_ids=np.repeat(np.arange(k), m),
        radii=radii,
        ratios=ratios,
        sup_ratio=float(ratios.max()),
    )


def _sq_cdf(u: np.ndarray, s: float) -> np.ndarray:
    # CDF of Y^2 expressed in u = sqrt(t): P(|Y| <= u).
    return ndtr(u - s) + ndtr(u + s) - 1.0


def _sq_cdf_anti(t: np.ndarray, s: float) -> np.ndarray:
    # Antiderivative of the CDF of Y^2, integrating phi/Phi terms by parts;
    # normalized so that the value at t = 0 is -(1 + s^2).
    u = np.sqrt(t)
    a = u * u - 1.0 - s * s
    return (a * (ndtr(u - s) + ndtr(u + s))
            + (u + s) * _phi(u - s) + (u - s) * _phi(u + s) - t)


def w1_squared_empirical(data: Dataset) -> float:
    """W1 distance between the empirical and population laws of Y^2, d = 1.

    Exact piecewise integration of |F_n - F|, F the law of ``data.spec``:
    on each interval between consecutive order statistics the empirical CDF
    is constant and F has a closed-form antiderivative, so every piece is
    evaluated analytically once the crossing point (if any) is located by
    bisection in sqrt(t). The tail integral past the largest sample is
    analytic as well.
    """
    if data.d != 1:
        raise ValueError("W1 of squared samples is defined for d = 1 only")
    s = data.spec.s
    t = np.sort(np.square(data.samples[:, 0]))
    n = t.size
    anti = _sq_cdf_anti(t, s)
    total = anti[0] + (1.0 + s * s)  # head: F_n = 0 on [0, t_1]

    if n > 1:
        c = np.arange(1, n, dtype=np.float64) / n  # empirical level per piece
        u_lo, u_hi = np.sqrt(t[:-1]), np.sqrt(t[1:])
        f_lo, f_hi = _sq_cdf(u_lo, s), _sq_cdf(u_hi, s)
        d_anti = anti[1:] - anti[:-1]
        d_t = t[1:] - t[:-1]
        above = f_lo >= c          # F above the level on the whole piece
        below = f_hi <= c          # F below the level on the whole piece
        cross = ~(above | below)
        total += float(np.sum(d_anti[above] - c[above] * d_t[above]))
        total += float(np.sum(c[below] * d_t[below] - d_anti[below]))
        if np.any(cross):
            lo, hi = u_lo[cross].copy(), u_hi[cross].copy()
            cc = c[cross]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                high = _sq_cdf(mid, s) >= cc
                hi = np.where(high, mid, hi)
                lo = np.where(high, lo, mid)
            u_star = 0.5 * (lo + hi)
            t_star = u_star * u_star
            anti_star = _sq_cdf_anti(t_star, s)
            left = cc * (t_star - t[:-1][cross]) - (anti_star - anti[:-1][cross])
            right = (anti[1:][cross] - anti_star) - cc * (t[1:][cross] - t_star)
            total += float(np.sum(left + right))

    # Tail: integral of 1 - F from t_n to infinity, via E[Y^2] = 1 + s^2.
    total += 2.0 * (1.0 + s * s) + anti[-1] - t[-1]
    return float(total)


def tanh_sup_ratio(x: float, y: float) -> float:
    """sup over theta of |x tanh(x theta) - y tanh(y theta)| / |theta|.

    The supremum equals |x^2 - y^2| exactly and is attained in the
    theta -> 0 limit; this returns the closed form.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("x and y must be finite")
    return abs(x * x - y * y)

