"""General Gaussian sketch distributions with reproducible counter-based sampling.

Random number generation is frozen to a fixed, platform-independent
construction: a Philox counter-based generator keyed by
``(master_seed, stream_index)`` produces 53-bit uniforms in the open unit
interval, which are mapped to normal variates through the inverse normal CDF
(``scipy.special.ndtri``).  Identical ``(master_seed, stream_index)`` pairs
therefore reproduce identical samples bit for bit.  Distinct indices give
distinct Philox keys, but the callers share one index space: the synthetic
matrix reads indices 0 and 1 (only 1 when built in its left singular basis)
and trial ``t`` of a Monte Carlo run reads index ``offset + t``, so the first
trials reuse the matrix's streams and are not independent of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .linalg import NotPositiveSemidefiniteError, _as_matrix, _symmetrize

__all__ = [
    'GaussianSketch',
    'RsvdSketch',
    'SeededStream',
    'rsvd_distribution',
    'rsvd_sketch',
    'sample',
    'standard_gaussian',
]

_MASK64 = (1 << 64) - 1
_TWO53 = 1 << 53


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random stream identified by a master seed and a stream index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        # outside [0, 2**64) the 64-bit key would alias another seed's stream
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError(f'master_seed must be in [0, 2**64), got {self.master_seed}')
        if not 0 <= self.stream_index <= _MASK64:
            raise ValueError('stream_index must fit in 64 bits')

    def generator(self) -> np.random.Generator:
        key = (self.stream_index << 64) | (self.master_seed & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))


def standard_gaussian(rows, cols, stream: SeededStream):
    """Matrix of i.i.d. standard normals drawn from the given stream."""
    if rows < 1 or cols < 1:
        raise ValueError('rows and cols must be positive')
    gen = stream.generator()
    u = gen.integers(1, _TWO53, size=(rows, cols)) / _TWO53
    return ndtri(u, out=u)


class GaussianSketch:
    """Matrix Gaussian distribution ``Z ~ N(mean, covariance)`` per column.

    ``cov_sqrt`` is the PSD square root of the covariance, ``rank`` its
    numerical rank and ``min_nonzero_eigenvalue`` the smallest retained
    eigenvalue (0.0 for a zero covariance).  The root may be passed as a
    zero-argument callable; it is then formed on first read and cached, so a
    sketch that is never sampled never forms it.
    """

    def __init__(self, mean, covariance, cov_sqrt, rank, min_nonzero_eigenvalue):
        self.mean = mean
        self.covariance = covariance
        self._cov_sqrt = cov_sqrt
        self.rank = rank
        self.min_nonzero_eigenvalue = min_nonzero_eigenvalue

    @property
    def cov_sqrt(self):
        if callable(self._cov_sqrt):
            self._cov_sqrt = self._cov_sqrt()
        return self._cov_sqrt

    @property
    def shape(self):
        return self.mean.shape

    @classmethod
    def from_moments(cls, mean, covariance, eig_rank_tol=1e-12, psd_tol=None):
        """Build a sketch from its mean and covariance, validating PSD-ness."""
        mean = _as_matrix(mean, 'mean')
        covariance = _as_matrix(covariance, 'covariance')
        n = mean.shape[0]
        if covariance.shape != (n, n):
            raise ValueError(f'covariance must be {n}x{n}, got {covariance.shape}')
        covariance = _symmetrize(covariance, 'covariance')
        w, vec = np.linalg.eigh(covariance)
        top = max(abs(w[0]), abs(w[-1]))
        tol = psd_tol if psd_tol is not None else 1e-10 * top
        if w[0] < -tol:
            raise NotPositiveSemidefiniteError(
                f'covariance has eigenvalue {w[0]:.6e} below -{tol:.3e}',
                offending_eigenvalue=float(w[0]),
            )
        w = np.clip(w, 0.0, None)
        retained = w > eig_rank_tol * top if top > 0 else np.zeros_like(w, dtype=bool)
        rank = int(np.sum(retained))
        lam_min = float(np.min(w[retained])) if rank else 0.0

        def cov_sqrt():
            # only sampling reads the root, so its n^3 product waits for it
            root = (vec * np.sqrt(w)) @ vec.T
            return 0.5 * (root + root.T)

        return cls(mean, covariance, cov_sqrt, rank, lam_min)


def sample(sketch: GaussianSketch, stream: SeededStream):
    """Draw ``mean + covariance^{1/2} G`` with G standard normal."""
    n, p = sketch.shape
    return sketch.mean + sketch.cov_sqrt @ standard_gaussian(n, p, stream)


def rsvd_sketch(a, q, p, stream: SeededStream, *, check_finite=True):
    """Randomized-SVD sketch ``Z = (A A^T)^q A G`` with G standard Gaussian.

    ``check_finite=False`` skips the scan of ``A`` for non-finite entries; a
    caller drawing many sketches from one matrix checks it once instead.
    """
    a = _as_matrix(a, 'A', check_finite)
    if q < 0:
        raise ValueError('q must be non-negative')
    z = a @ standard_gaussian(a.shape[1], p, stream)
    for _ in range(q):
        z = a @ (a.T @ z)
    return z


def rsvd_distribution(factors, q, p) -> GaussianSketch:
    """Distribution of the randomized-SVD sketch: zero mean, covariance
    ``U (Sigma Sigma^T)^(2q+1) U^T``.

    The covariance square root is assembled from the factors directly, so no
    eigendecomposition is performed.
    """
    if q < 0:
        raise ValueError('q must be non-negative')
    if p < 1:
        raise ValueError('p must be positive')
    n = factors.rows
    u = factors.left()
    lam = np.zeros(n)
    lam[:factors.sigma.size] = factors.sigma ** (4 * q + 2)
    cov = (u * lam) @ u.T
    root = (u * np.sqrt(lam)) @ u.T
    rank = factors.rank()
    lam_min = float(factors.sigma[rank - 1] ** (4 * q + 2)) if rank else 0.0
    return GaussianSketch(
        mean=np.zeros((n, p)),
        covariance=0.5 * (cov + cov.T),
        cov_sqrt=0.5 * (root + root.T),
        rank=rank,
        min_nonzero_eigenvalue=lam_min,
    )


@dataclass(frozen=True)
class RsvdSketch:
    """Descriptor for drawing randomized-SVD sketches directly from a matrix."""

    q: int
    p: int

    def __post_init__(self):
        if self.q < 0 or self.p < 1:
            raise ValueError('need q >= 0 and p >= 1')

    def draw(self, a, stream: SeededStream, *, check_finite=True):
        return rsvd_sketch(a, self.q, self.p, stream, check_finite=check_finite)

