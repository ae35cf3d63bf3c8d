"""Infinite-sample EM dynamics, evaluated by quadrature.

With V ~ (1/2) N(s, 1) + (1/2) N(-s, 1) and W ~ N(0, 1) independent, the
population EM map restricted to the plane spanned by the true direction and
the current iterate is described by two scalar functions

    F(alpha, beta) = E[V tanh(alpha V + beta W)]
    G(alpha, beta) = E[W tanh(alpha V + beta W)]

and the one-dimensional map is f(theta) = F(theta, 0). Everything here
reduces to the two Gaussian integrals

    T1(m, R) = E[tanh(m + R Z)]      Tz(m, R) = E[Z tanh(m + R Z)]

with Z standard normal: writing R = sqrt(alpha^2 + beta^2) and m = alpha s,

    F = s T1 + (alpha / R) Tz        G = (beta / R) Tz.

Evaluating T1 and Tz naively with Gauss-Hermite nodes fails for moderate R:
tanh has poles at +/- i pi/2, so the Hermite error floor rises to about 1e-3
by R = 10 no matter the order. For R above 0.75 we therefore split off the
sign of the argument exactly,

    T1 = (2 Phi(m/R) - 1) - L1       Tz = 2 phi(m/R) - Lz,

where L1 and Lz integrate the exponentially small layer g(x) = 2/(1+e^{2x})
= 1 - tanh(x) against explicit Gaussian densities over x >= 0. The layer
integrands are smooth at any scale, so composite Gauss-Legendre panels of
width one on [0, 25] resolve them to near machine precision; the direct
Hermite sum is kept for R <= 0.75 where it is already exact. The combined
scheme agrees with adaptive reference quadrature to better than 1e-12 for
|alpha|, |beta|, s up to 10 at the default order 80.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

__all__ = [
    "QuadratureRule",
    "build_rule",
    "PopulationState",
    "f_pop",
    "q_pop",
    "F_pop",
    "G_pop",
    "invert_q",
    "population_trajectory",
    "sandwich_sequences",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Switch from direct Gauss-Hermite to the sign-split layer form. Chosen well
# inside the region where both branches hold full precision at order 80.
_R_SPLIT = 0.75
# The layer g(x) = 2/(1+e^{2x}) is below 4e-22 past x = 25.
_LAYER_CUTOFF = 25


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite rule plus the fixed layer grid for the split evaluation.

    ``nodes`` and ``weights`` are the raw physicists' Gauss-Hermite data
    (weights sum to sqrt(pi)), kept as read-only copies; the derived arrays
    are cached, read-only too, so one rule serves any number of evaluations.
    """

    order: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    # derived, set in __post_init__
    _z: np.ndarray = field(init=False, repr=False)
    _wz: np.ndarray = field(init=False, repr=False)
    _lx: np.ndarray = field(init=False, repr=False)
    _lw: np.ndarray = field(init=False, repr=False)
    _lg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        nodes, weights = (np.array(a, dtype=np.float64) for a in (self.nodes, self.weights))
        # Standard-normal form of the Hermite rule: E[h(Z)] ~ sum wz h(z).
        z = nodes * math.sqrt(2.0)
        wz = weights / math.sqrt(math.pi)
        # Composite Gauss-Legendre panels of width 1 on [0, _LAYER_CUTOFF].
        per_panel = max(16, self.order // 5)
        gx, gw = np.polynomial.legendre.leggauss(per_panel)
        offs = np.arange(_LAYER_CUTOFF, dtype=np.float64)
        lx = (0.5 * (gx + 1.0)[None, :] + offs[:, None]).ravel()
        lw = np.tile(0.5 * gw, _LAYER_CUTOFF)
        lg = 2.0 / (1.0 + np.exp(2.0 * lx))
        for name, arr in (("nodes", nodes), ("weights", weights), ("_z", z), ("_wz", wz),
                          ("_lx", lx), ("_lw", lw), ("_lg", lg)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_rule(order: int = 80) -> QuadratureRule:
    """Quadrature rule of the given Gauss-Hermite order (default 80), built
    once per order and shared: the same order gives the same object."""
    if order < 1:  # before hermgauss, whose own message does not name the order
        raise ValueError(f"order must be >= 1, got {order}")
    return _rule(order)


@functools.cache
def _rule(order: int) -> QuadratureRule:
    return QuadratureRule(order, *np.polynomial.hermite.hermgauss(order))


def _tanh_kernels(m: float, r: float, rule: QuadratureRule) -> tuple[float, float]:
    """T1(m, r) = E[tanh(m + r Z)] and Tz(m, r) = E[Z tanh(m + r Z)], r > 0."""
    if r <= _R_SPLIT:
        t = np.tanh(m + r * rule._z)
        return float(rule._wz @ t), float(rule._wz @ (rule._z * t))
    x = rule._lx
    pa = _phi((x - m) / r)
    pb = _phi((x + m) / r)
    l1 = float(rule._lw @ (rule._lg * (pa - pb))) / r
    lz = float(rule._lw @ (rule._lg * ((x - m) * pa + (x + m) * pb))) / (r * r)
    return 2.0 * float(ndtr(m / r)) - 1.0 - l1, 2.0 * _phi(m / r) - lz


def _fg_pop(alpha: float, beta: float, s: float, rule: QuadratureRule) -> tuple[float, float]:
    # (F, G) at one state from one evaluation of the two Gaussian integrals
    alpha, beta = float(alpha), float(beta)
    r = math.hypot(alpha, beta)
    if r == 0.0:
        return 0.0, 0.0
    t1, tz = _tanh_kernels(alpha * s, r, rule)
    # with no orthogonal coordinate to begin with the map never creates one
    return s * t1 + (alpha / r) * tz, (beta / r) * tz if beta != 0.0 else 0.0


def F_pop(alpha: float, beta: float, s: float, rule: QuadratureRule) -> float:
    """Signal component of the population EM map, E[V tanh(alpha V + beta W)]."""
    return _fg_pop(alpha, beta, s, rule)[0]


def G_pop(alpha: float, beta: float, s: float, rule: QuadratureRule) -> float:
    """Orthogonal component of the population EM map, E[W tanh(alpha V + beta W)]."""
    return _fg_pop(alpha, beta, s, rule)[1]


def f_pop(theta: float, s: float, rule: QuadratureRule) -> float:
    """One-dimensional population EM map f(theta) = E[V tanh(theta V)].

    Identical code path to F_pop(theta, 0, s), so the 2-D dynamics restricted
    to the axis agree with the 1-D iteration bitwise. Odd in theta; accurate
    to well below 1e-10 for |theta|, s <= 10 at order >= 80.
    """
    return F_pop(theta, 0.0, s, rule)


def q_pop(theta: float, s: float, rule: QuadratureRule) -> float:
    """The ratio map q(theta) = f(theta)/theta, with q(0) = 1 + s^2.

    q is strictly decreasing on theta > 0, q(s) = 1, and q -> 0 at infinity;
    the value at 0 is the analytic limit f'(0), not a division.
    """
    theta = float(theta)
    if theta == 0.0:
        return 1.0 + s * s
    return f_pop(theta, s, rule) / theta


def invert_q(c: float, s: float, rule: QuadratureRule) -> float:
    """The unique theta >= 0 with q(theta) = c, for 0 < c <= 1 + s^2.

    Bisection on a bracket grown by doubling from theta = 1; q is strictly
    decreasing so the root is simple. Absolute tolerance 1e-10. Returns 0
    when c >= 1 + s^2 (the supremum of q).
    """
    c = float(c)
    if c <= 0.0:
        raise ValueError("q is positive; c must be > 0")
    if c >= 1.0 + s * s:
        return 0.0
    hi = 1.0
    while q_pop(hi, s, rule) >= c:
        hi *= 2.0
        if hi > 1e12:  # q -> 0 at infinity, so this cannot trigger for c > 0
            raise ArithmeticError("bisection bracket failed to close")
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if q_pop(mid, s, rule) >= c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PopulationState:
    """Coordinates of a population iterate: signal alpha, orthogonal beta >= 0."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("state must be finite")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")


def _check_trajectory(s: float, T: int) -> None:
    """The checks of population_trajectory: s finite and nonnegative (the
    rule of ModelSpec.along_axis; the scalar maps, called per step, do not
    check) and T >= 1."""
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"s must be finite and nonnegative, got {s}")
    if T < 1:
        raise ValueError("T must be >= 1")


def _check_sandwich(theta0: float, s: float, w: float, T: int) -> None:
    """The checks of sandwich_sequences: those of population_trajectory, and
    theta0 finite and positive, w finite and nonnegative (max(0, nan) is 0,
    so a nan would not show in the lower envelope)."""
    _check_trajectory(s, T)
    if not (math.isfinite(theta0) and theta0 > 0.0):
        raise ValueError("theta0 must be finite and positive")
    if not (math.isfinite(w) and w >= 0.0):
        raise ValueError("w must be finite and nonnegative")


def population_trajectory(init: PopulationState, s: float, T: int,
                          rule: QuadratureRule) -> list[PopulationState]:
    """Iterate (alpha, beta) -> (F(alpha, beta), G(alpha, beta)) for T steps.

    Returns all T+1 states including the initial one. G is nonnegative in
    exact arithmetic (Stein's identity gives Tz = R E[sech^2] >= 0); the
    floor below only absorbs quadrature noise at the 1e-17 level. ``s`` must
    be finite and nonnegative.
    """
    _check_trajectory(s, T)
    states = [init]
    for _ in range(T):
        F, G = _fg_pop(states[-1].alpha, states[-1].beta, s, rule)
        states.append(PopulationState(alpha=F, beta=max(0.0, G)))
    return states


def sandwich_sequences(theta0: float, s: float, w: float, T: int,
                       rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed 1-D envelopes bracketing any w-relative deviation of the map.

    upper_{t+1} = f(upper_t) + w upper_t and lower_{t+1} = f(lower_t) -
    w lower_t, both from theta0, the lower sequence floored at 0. Returns
    (upper, lower), each of length T+1. Their limits are the fixed points
    invert_q(1 - w) and invert_q(1 + w). ``s`` and ``w`` must be finite and
    nonnegative, ``theta0`` finite and positive.
    """
    _check_sandwich(theta0, s, w, T)
    upper = np.empty(T + 1)
    lower = np.empty(T + 1)
    upper[0] = lower[0] = theta0
    for t in range(T):
        upper[t + 1] = f_pop(upper[t], s, rule) + w * upper[t]
        lower[t + 1] = max(0.0, f_pop(lower[t], s, rule) - w * lower[t])
    return upper, lower
