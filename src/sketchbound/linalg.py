"""Dense linear-algebra kernels: factorizations, norms, and PSD-ordering checks,
plus Matrix Market I/O and the package's one file writer, :func:`_write_atomic`.

It also holds what the bounds and the trials share: the tangent-to-sine map
:func:`phi`, the one rule that decides whether a head block is singular
(:func:`_check_head`; :func:`_check_head_rank` for a sketch's), the norms of a
spectrum, :func:`_operator_norms`, and the package's one rule for each input:
integers (:func:`_check_integers`), power-iteration counts (:func:`_check_powers`),
norm names (:data:`NORMS`, :func:`_check_norm`) and spectra (:func:`_check_spectrum`).

Every kernel is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import operator
import os
import pathlib
import uuid
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse

__all__ = [
    'FactorizationError',
    'NotPositiveSemidefiniteError',
    'PINV_TOL',
    'PsdOrderingReport',
    'RANK_TOL',
    'RankDeficiencyError',
    'SvdFactors',
    'canonical_angle_sines',
    'frobenius_norm',
    'norm',
    'orthonormal_basis',
    'phi',
    'pseudo_inverse',
    'psd_order',
    'read_matrix_market',
    'spectral_norm',
    'svd',
    'write_matrix_market',
]

# Numerical tolerances; the references never state any, so these are pinned
# here.  Only the PSD-ordering and head-block checks take theirs per call.
RANK_TOL = 1e-10
PINV_TOL = 1e-12
SYM_TOL = 1e-12
ORTHO_TOL = 1e-10
NORMS = ('spectral', 'frobenius')


class FactorizationError(RuntimeError):
    """An iterative factorization backend failed to converge."""


class RankDeficiencyError(ValueError):
    """A matrix required to have full numerical rank does not."""

    def __init__(self, message, smallest_singular_value=None, deficient_columns=None):
        super().__init__(message)
        self.smallest_singular_value = smallest_singular_value
        self.deficient_columns = deficient_columns


class NotPositiveSemidefiniteError(ValueError):
    """A matrix required to be PSD has an eigenvalue below tolerance."""

    def __init__(self, message, offending_eigenvalue=None):
        super().__init__(message)
        self.offending_eigenvalue = offending_eigenvalue


def _as_matrix(a, name='matrix'):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f'{name} must be 2-D with at least one row and column, got shape {a.shape}')
    if not np.all(np.isfinite(a)):
        raise ValueError(f'{name} contains non-finite entries')
    return a


def _symmetrize(a, name='matrix'):
    """``0.5 (a + a^T)`` for a square ``a`` whose asymmetry is at most ``SYM_TOL``
    times its largest entry, else ``ValueError``.  An exactly symmetric ``a`` is
    returned itself, not copied: for finite entries ``0.5 (a + a^T)`` is then ``a``
    bit for bit, and nothing overflows above ``DBL_MAX / 2``."""
    if np.array_equal(a, a.T):
        return a
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYM_TOL * float(np.max(np.abs(a))):  # relative at every scale
        raise ValueError(f'{name} is not symmetric: max asymmetry {asym:.3e}')
    return _symmetric_part(a.copy())


def _symmetric_part(b):
    """The one symmetric-part kernel: ``b``, square, overwritten with ``0.5 (b + b^T)``, the copying form's
    bits; numpy buffers the overlapping ``b^T``, so one temporary of ``b``'s size remains."""
    np.add(b, b.T, out=b)
    b *= 0.5
    return b


def _check_spectrum(sigma):
    """The one spectrum rule, of :class:`SvdFactors` and ``rsvd.SpectrumProfile``: ``sigma`` as a float
    array, or ``ValueError`` unless it is a non-empty 1-D vector, finite, non-negative and descending."""
    sigma = np.asarray(sigma, dtype=float)
    if (sigma.ndim != 1 or not sigma.size or not np.all(np.isfinite(sigma) & (sigma >= 0))
            or np.any(np.diff(sigma) > 0)):
        raise ValueError('singular values must be a non-empty 1-D vector, finite, non-negative and descending')
    return sigma


def _check_head(values, scale, what, kind):
    """The one rule for a head block, of a sketch or of a sketch covariance: it is singular, and
    raises :class:`RankDeficiencyError`, if the largest of its singular values or eigenvalues ``values``
    is at most ``RANK_TOL`` times ``scale``, the Frobenius norm of the matrix it was cut from (so a
    head of round-off is refused however well graded), or the smallest at most ``RANK_TOL`` times the largest."""
    smallest, largest = float(np.min(values)), float(np.max(values))
    if largest <= RANK_TOL * scale or smallest <= RANK_TOL * largest:
        raise RankDeficiencyError(f'{what} (smallest {kind} {smallest:.3e}, largest {largest:.3e})',
                                  smallest_singular_value=smallest)


def _check_head_rank(omega_head, w):
    """Raise :class:`RankDeficiencyError` unless ``omega_head``, the head
    block of the sketch ``w``, has full numerical row rank."""
    _check_head(np.linalg.svd(omega_head, compute_uv=False), float(np.linalg.norm(w)),
                'head block of the sketch is row-rank deficient', 'singular value')


def _check_integers(message, *values):
    """The one integer rule: ``values`` as Python ints, or ``ValueError`` with ``message`` and the first value that
    is a ``bool``, an array of one or more dimensions or has no ``__index__`` (which Python and numpy integers have)."""
    for value in values:
        if isinstance(value, bool) or not hasattr(value, '__index__') or getattr(value, 'ndim', 0):
            raise ValueError(f'{message}, got {value!r}')
    return tuple(map(operator.index, values))


def _check_powers(q):
    """A sketch's power-iteration count ``q`` as a Python int; ``ValueError`` unless it is a non-negative integer."""
    (q,) = _check_integers('q must be an integer', q)
    if q < 0:
        raise ValueError(f'q must be non-negative, got q={q}')
    return q


def _check_norm(which):
    """Raise ``ValueError`` unless ``which`` is one of the norm names :data:`NORMS`."""
    if which not in NORMS:
        raise ValueError(f'norm must be one of {NORMS}, got {which!r}')


class SvdFactors:
    """Thin SVD ``A = U diag(sigma) V^T`` with head/tail partition accessors.

    ``V`` is not kept, only ``cols``, the column count of ``A``: bounds and trials
    read ``A`` through ``U^T Z`` or ``Sigma V^T G``, and ``V^T G`` is standard
    Gaussian.  ``u`` is thin or square; the complement needed by the tail accessors
    is appended lazily: the last ``rows - r`` columns of the Householder ``Q`` of the
    thin ``U``, from one QR and one ``ormqr`` (``O(rows^2 r)`` flops and no SVD),
    which refuse a thin ``U`` whose columns are not orthonormal.
    ``u``, ``sigma`` and ``cols`` are checked once, here: ``sigma`` by the one spectrum
    rule, ``cols`` by the integer rule, ``u`` 2-D, with a column for every singular value and no more columns than rows.

    Storage: one slot holds ``U``.  A thin ``rows x r`` factor takes ``rows*r`` floats
    until :meth:`left` replaces it with the full factor, ``rows**2`` floats whose first
    ``r`` columns are the thin ``U`` bit for bit; a square factor is its own completion.
    So every accessor, before or after, reads the same values.
    """

    def __init__(self, u, sigma, cols):
        self._u = np.asarray(u, dtype=float)
        self.sigma = _check_spectrum(sigma)
        (self.cols,) = _check_integers('cols must be an integer', cols)
        if self.sigma.size > min(self.rows, self.cols):
            raise ValueError(f'{self.sigma.size} singular values for a {self.rows}x{self.cols} matrix')
        if self._u.ndim != 2 or not self.sigma.size <= self._u.shape[1] <= self._u.shape[0]:
            raise ValueError(f'U must be 2-D with a column per singular value and no more columns than rows, '
                             f'got shape {self._u.shape} for {self.sigma.size} singular values')

    @property
    def rows(self):
        return self._u.shape[0]

    @staticmethod
    def _complete(q):
        """``[q, Q_c]`` in one new C-ordered ``rows x rows`` buffer, ``q`` bit for bit,
        with ``Q_c`` the last ``rows - r`` columns of the Householder ``Q`` of ``q = Q R``:
        ``scipy.linalg.qr(mode='raw')`` (LAPACK's ``geqrf``) on a Fortran copy of ``q``,
        which it factors in place, then ``ormqr`` applied to ``[0; I]``.
        ``ValueError`` unless ``|R| = I`` within ``ORTHO_TOL``, i.e. unless ``q``'s
        columns are orthonormal."""
        rows, r = q.shape
        (qr, tau), r_abs = scipy.linalg.qr(np.array(q, order='F'), mode='raw', overwrite_a=True, check_finite=False)
        np.abs(r_abs, out=r_abs)
        r_abs.flat[::r + 1] -= 1.0
        dev = float(max(r_abs.max(), -r_abs.min()))
        del r_abs
        if not dev <= ORTHO_TOL:  # NaN too
            raise ValueError(f'U does not have orthonormal columns: |R| of its QR is I up to {dev:.3e}')
        comp = np.zeros((rows, rows - r), order='F')
        comp[np.arange(r, rows), np.arange(rows - r)] = 1.0
        lwork = int(scipy.linalg.lapack.dormqr('L', 'N', qr, tau, comp, -1, overwrite_c=1)[1][0])
        comp = scipy.linalg.lapack.dormqr('L', 'N', qr, tau, comp, lwork, overwrite_c=1)[0]
        del qr  # so the peak holds the complement and the result, not the QR copy too
        full = np.empty((rows, rows))
        full[:, :r] = q
        full[:, r:] = comp
        return full

    def left(self):
        """Full orthogonal left factor, which takes the thin one's slot; read once, so racing first calls agree."""
        u = self._u
        if u.shape[1] < u.shape[0]:
            self._u = u = self._complete(u)
        return u

    def _check_k(self, k):
        _check_integers('k must be an integer', k)
        if not 1 <= k <= self.sigma.size:
            raise ValueError(f'target rank k={k} outside [1, {self.sigma.size}]')

    def left_head(self, k):
        self._check_k(k)
        return self._u[:, :k]

    def left_tail(self, k):
        self._check_k(k)
        return self.left()[:, k:]

    def sigma_head(self, k):
        self._check_k(k)
        return self.sigma[:k]

    def next_sigma(self, k):
        """``sigma[k]`` in 0-based terms, i.e. the (k+1)-th singular value; 0 past the end."""
        self._check_k(k)
        return float(self.sigma[k]) if k < self.sigma.size else 0.0


def svd(a) -> SvdFactors:
    """Thin singular value decomposition of a dense matrix.

    LAPACK's ``dgesdd`` through scipy, as ``np.linalg.svd`` runs it and, at one BLAS
    thread, with its bits, but without numpy's copies of the outputs; ``V^T`` is
    dropped at once.
    ``U`` is returned C-contiguous, the layout numpy gives it, since the bits of the
    products that read it depend on the layout of their operands.

    Raises
    ------
    FactorizationError
        If the LAPACK backend fails to converge.
    """
    a = _as_matrix(a)
    try:
        u, s = scipy.linalg.svd(a, full_matrices=False, check_finite=False, lapack_driver='gesdd')[:2]
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f'SVD did not converge on a {a.shape} input: {exc}') from exc
    return SvdFactors(np.ascontiguousarray(u), s, a.shape[1])


def orthonormal_basis(z):
    """Orthonormal basis Q of range(Z) for a full-column-rank Z.

    Raises
    ------
    RankDeficiencyError
        If the smallest singular value falls below ``RANK_TOL`` times the
        largest; the error reports how many columns are dependent.
    """
    z = _as_matrix(z, 'Z')
    u, s, _ = np.linalg.svd(z, full_matrices=False)
    p = z.shape[1]
    cutoff = RANK_TOL * s[0]
    if s.size < p or s[-1] <= cutoff:
        deficient = p - int(np.sum(s > cutoff))
        raise RankDeficiencyError(
            f'{deficient} of {p} columns are numerically dependent '
            f'(smallest singular value {s[-1] if s.size else 0.0:.3e})',
            smallest_singular_value=float(s[-1]) if s.size else 0.0,
            deficient_columns=deficient,
        )
    return u


def pseudo_inverse(m):
    """Moore-Penrose inverse; singular values below ``PINV_TOL * sigma_max`` are dropped."""
    m = _as_matrix(m, 'M')
    return np.linalg.pinv(m, rcond=PINV_TOL)


def spectral_norm(m) -> float:
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=float)))


def norm(m, which) -> float:
    """Either the spectral or the Frobenius norm, selected by name."""
    _check_norm(which)
    return spectral_norm(m) if which == 'spectral' else frobenius_norm(m)


def _operator_norms(sigma_values, which):
    """Spectral or Frobenius norm of an operator of singular values ``sigma_values``, descending."""
    if which == 'spectral':
        return float(sigma_values[0]) if sigma_values.size else 0.0
    return float(np.sqrt(np.sum(sigma_values**2)))


def phi(x):
    """The tangent-to-sine map ``x -> x / sqrt(1 + x^2)`` for x >= 0; 1.0
    where ``x^2`` overflows (x above about 1.34e154, and x = inf)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError('phi is defined for non-negative arguments')
    with np.errstate(over='ignore', invalid='ignore'):
        sq = x * x
        out = np.where(np.isinf(sq), 1.0, x / np.sqrt(1.0 + sq))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PsdOrderingReport:
    """Result of testing M <= N in the PSD (Loewner) order."""

    min_eigenvalue_of_difference: float
    satisfied: bool
    tolerance: float


def psd_order(m, n, tol=RANK_TOL) -> PsdOrderingReport:
    """Check the PSD ordering M <= N by the smallest eigenvalue of N - M."""
    m = _as_matrix(m, 'M')
    n = _as_matrix(n, 'N')
    if m.shape != n.shape or m.shape[0] != m.shape[1]:
        raise ValueError(f'M and N must be square with equal shapes, got {m.shape} and {n.shape}')
    diff = _symmetrize(n, 'N') - _symmetrize(m, 'M')
    w_min = float(np.linalg.eigvalsh(diff)[0])
    return PsdOrderingReport(w_min, w_min >= -tol, tol)


def canonical_angle_sines(q1, q2):
    """Sines of the canonical angles between two column spans, descending.

    Both inputs must have orthonormal columns; the sines are recovered from
    the singular values of ``Q1^T Q2``.
    """
    q1 = _as_matrix(q1, 'Q1')
    q2 = _as_matrix(q2, 'Q2')
    if q1.shape[0] != q2.shape[0]:
        raise ValueError('Q1 and Q2 must have the same number of rows')
    for name, q in (('Q1', q1), ('Q2', q2)):
        dev = float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))
        if dev > ORTHO_TOL:
            raise ValueError(f'{name} is not orthonormal: max deviation {dev:.3e}')
    cosines = np.clip(scipy.linalg.svdvals(q1.T @ q2), 0.0, 1.0)
    sines = np.sqrt(np.clip(1.0 - cosines**2, 0.0, 1.0))
    return np.sort(sines)[::-1]


def _write_atomic(path, write):
    """Create or replace the file ``path``: ``write`` streams its bytes into a
    binary temporary file in the same directory, made as ``open`` makes files,
    which ``os.replace`` then moves onto ``path``.  A write that fails partway
    leaves an earlier ``path`` as it was and no temporary file behind; an
    ``OSError`` it raises names ``path``, not the temporary file."""
    tmp_path = os.path.join(os.path.dirname(os.path.abspath(path)), f'.tmp-{uuid.uuid4().hex}')
    try:
        with open(tmp_path, 'xb') as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def write_matrix_market(path, m):
    """Write a dense matrix in Matrix Market array format to ``path`` as given, atomically."""
    m = _as_matrix(m)
    _write_atomic(path, lambda handle: scipy.io.mmwrite(handle, m))


def read_matrix_market(path):
    """Read a real Matrix Market file into a dense ndarray; a complex one is refused."""
    if not pathlib.Path(path).is_file():
        raise FileNotFoundError(f'no such Matrix Market file: {path}')
    m = scipy.io.mmread(str(path))
    if np.iscomplexobj(m):
        raise ValueError(f'{path} holds a complex matrix; only real ones are supported')
    if scipy.sparse.issparse(m):
        m = m.toarray()
    return _as_matrix(np.asarray(m, dtype=float), str(path))
