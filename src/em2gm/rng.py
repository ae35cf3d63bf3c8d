"""Deterministic random number utilities.

Everything stochastic in this package flows through a counter-based Philox
generator and a fixed uniform-to-normal convention, so that every sample is
reproducible bit for bit from its seed. Every output is then bit-identical
on one machine regardless of how the work is scheduled across replicates,
cores or the deviation probe's batch-map workers (each draws its own rows of
one stream from a generator positioned at its first row), and of how many
threads BLAS had: every em2gm pass computes with BLAS on one thread
(model._one_blas_thread), which stays so for the rest of the process.

Conventions (documented once, here):

* Uniforms are ``(k + 0.5) * 2**-53`` with ``k`` a 53-bit integer, clamped
  to at most ``1 - 2**-53``, so they lie strictly inside (0, 1) and the
  inverse normal CDF stays finite. They are drawn as ``rng.random(shape) +
  2**-54`` in place, one array and the same bits: ``Generator.random``
  returns ``(x >> 11) * 2**-53`` for each 64-bit draw x, which is the ``k``
  of ``integers(0, 2**53)`` (Lemire's method with a power-of-two range never
  rejects), and adding ``2**-54`` rounds exactly as ``k + 0.5`` does, scaled
  by a power of two. Both round the half to even once ``k >= 2**52``, so
  ``k = 2**52`` gives 0.5 and ``k = 2**53 - 1`` gives 1.0, each with
  probability 2**-53; the clamp moves only that 1.0 (a normal of +inf) to
  ``1 - 2**-53``, the largest double below 1, which no k gives otherwise.
* Consecutive draws continue the generator's stream in row-major order, so
  drawing an (n, m) array in row chunks gives the bytes of one draw, and a
  generator made with ``make_generator(seed, skip)`` continues the stream
  after its first ``skip`` draws: Philox makes four 64-bit draws per counter
  value, so it advances the counter by ``skip // 4`` and draws and drops the
  remaining ``skip % 4``.
* Normals are produced by the inverse-CDF transform ``ndtri(u)`` of those
  uniforms, not by Box-Muller or ziggurat rejection, so the mapping from seed
  to sample is a pure function with no data-dependent consumption.
* Child seeds for replicate fan-out come from ``numpy.random.SeedSequence``
  spawn keys, which gives independent streams indexed by an integer path.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "make_generator",
    "open_uniforms",
    "standard_normals",
    "derive_seed",
]


def make_generator(seed: int, skip: int = 0) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed, positioned after ``skip`` draws."""
    bits = np.random.Philox(key=np.uint64(seed))
    bits.advance(skip // 4)
    rng = np.random.Generator(bits)
    rng.random(skip % 4)
    return rng


def open_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws ``(k + 0.5) * 2**-53``, k a 53-bit integer, below 1 (see above)."""
    u = rng.random(shape)
    u += 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via the inverse-CDF convention."""
    return ndtri(open_uniforms(rng, shape))


def derive_seed(master_seed: int, *path: int) -> int:
    """Child seed for the stream at an integer path below ``master_seed``.

    Used for replicate fan-out: ``derive_seed(master, grid_index, replicate,
    stream)`` is stable under any execution order, so parallel sweeps are
    reproducible.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
