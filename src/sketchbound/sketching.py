"""General Gaussian sketch distributions with reproducible counter-based sampling.

Random number generation is frozen to a fixed, platform-independent
construction: a Philox counter-based generator keyed by
``(master_seed, stream_index)`` produces 53-bit uniforms in the open unit
interval, which are mapped to normal variates through the inverse normal CDF
(``scipy.special.ndtri``).  Identical ``(master_seed, stream_index)`` pairs
therefore reproduce identical samples bit for bit.  Distinct indices give
distinct Philox keys, and the callers share one index space: the dense
synthetic matrix reads indices 0 and 1 (none when built in both singular
bases); trial ``t`` of the sketches ``(q, p)``, in a sweep or in
``empirical_error``, reads an index that is an injective function of
``(q, p, t)`` with its top bit set.  No two of these share a stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import ndtri

from .linalg import NotPositiveSemidefiniteError, _as_matrix, _check_powers, _symmetric_part, _symmetrize

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
# relative to the largest eigenvalue: the rank counts the eigenvalues above
# _EIG_RANK_TOL, and one below -_PSD_TOL fails the PSD check
_EIG_RANK_TOL = 1e-12
_PSD_TOL = 1e-10


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

    Built from the covariance's eigenpairs ``(w, vec)``, clipped at zero
    (``vec`` may leave out eigenvectors of zero eigenvalues, so it can be
    thin), from which every derived quantity follows by one rule: ``rank`` counts
    the eigenvalues above ``_EIG_RANK_TOL`` (1e-12) times the largest, and
    ``min_nonzero_eigenvalue`` is the smallest of those (0.0 for a zero
    covariance).  ``covariance`` (unless given) and its PSD root ``cov_sqrt``
    are formed from the eigenpairs on first read and cached, so a sketch read
    for its mean and shape alone never pays for an n^3 product.
    """

    def __init__(self, mean, w, vec, covariance=None):
        self.mean = mean
        self._w = w
        self._vec = vec
        if covariance is not None:
            self.covariance = covariance
        retained = w[w > _EIG_RANK_TOL * np.max(w)]
        self.rank = int(retained.size)
        self.min_nonzero_eigenvalue = float(np.min(retained)) if self.rank else 0.0

    covariance = functools.cached_property(lambda self: self._from_eigenpairs(self._w))
    cov_sqrt = functools.cached_property(lambda self: self._from_eigenpairs(np.sqrt(self._w)))

    def _from_eigenpairs(self, w):
        return _symmetric_part((self._vec * w) @ self._vec.T)

    @property
    def shape(self):
        return self.mean.shape

    @classmethod
    def from_moments(cls, mean, covariance):
        """Build a sketch from its mean and covariance, validating PSD-ness.

        The sketch keeps ``mean`` and an exactly symmetric ``covariance`` as given,
        without copies, so the caller must not write to either array afterwards.
        """
        mean = _as_matrix(mean, 'mean')
        covariance = _as_matrix(covariance, 'covariance')
        n = mean.shape[0]
        if covariance.shape != (n, n):
            raise ValueError(f'covariance must be {n}x{n}, got {covariance.shape}')
        covariance = _symmetrize(covariance, 'covariance')
        # the LAPACK dsyevd of np.linalg.eigh, with its bits, without numpy's copy of the eigenvectors
        w, vec = scipy.linalg.eigh(covariance, driver='evd', check_finite=False)
        tol = _PSD_TOL * max(abs(w[0]), abs(w[-1]))
        if w[0] < -tol:
            raise NotPositiveSemidefiniteError(
                f'covariance has eigenvalue {w[0]:.6e} below -{tol:.3e}',
                offending_eigenvalue=float(w[0]),
            )
        return cls(mean, np.clip(w, 0.0, None), vec, covariance)


def sample(sketch: GaussianSketch, stream: SeededStream):
    """Draw ``mean + covariance^{1/2} G`` with G standard normal."""
    n, p = sketch.shape
    return sketch.mean + sketch.cov_sqrt @ standard_gaussian(n, p, stream)


def rsvd_sketch(a, q, p, stream: SeededStream):
    """Randomized-SVD sketch ``Z = (A A^T)^q A G`` with G standard Gaussian.

    ``A`` is dense or a ``scipy.sparse`` array; only its check differs by type
    (a sparse ``A`` must be 2-D with finite stored entries), and both run the
    same ``2q + 1`` products.
    """
    if scipy.sparse.issparse(a):
        if a.ndim != 2 or min(a.shape) < 1:
            raise ValueError(f'A must be 2-D with at least one row and column, got shape {a.shape}')
        if not np.all(np.isfinite(a.data)):
            raise ValueError('A contains non-finite entries')
    else:
        a = _as_matrix(a, 'A')
    _check_powers(q)
    z = a @ standard_gaussian(a.shape[1], p, stream)
    for _ in range(q):
        z = a @ (a.T @ z)
    return z


def rsvd_distribution(factors, q, p) -> GaussianSketch:
    """Distribution of the randomized-SVD sketch: zero mean, covariance
    ``U (Sigma Sigma^T)^(2q+1) U^T``, whose eigenpairs are the factors' own
    thin ones, ``sigma^(4q+2)`` and ``U``, so no eigendecomposition, no
    completion of ``U`` and, until the covariance or its root is read, no
    n x n product is formed; ``OverflowError`` where a power overflows.
    """
    _check_powers(q)
    if p < 1:
        raise ValueError('p must be positive')
    with np.errstate(over='ignore'):
        powers = factors.sigma ** (4 * q + 2)
    if not np.all(np.isfinite(powers)):
        raise OverflowError(f'the RSVD sketch covariance sigma^{4 * q + 2} overflows at q={q}')
    return GaussianSketch(np.zeros((factors.rows, p)), powers, factors.left_head(factors.sigma.size))


@dataclass(frozen=True)
class RsvdSketch:
    """The randomized-SVD sketch ``(A A^T)^q A G`` of ``p`` columns, for trials; its bounds are in :mod:`rsvd`."""

    q: int
    p: int

    def __post_init__(self):
        _check_powers(self.q)
        if self.p < 1:
            raise ValueError('p must be positive')

    def draw(self, a, stream: SeededStream):
        return rsvd_sketch(a, self.q, self.p, stream)

