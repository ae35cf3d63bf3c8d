"""Brute-force counterparts of closed forms in em2gm, used only by the tests."""

import math

import numpy as np


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
