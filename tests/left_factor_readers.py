"""The readers of a tall ``SvdFactors``' left factor, evaluated on factors whose full
``U`` was built first or not.  After :meth:`SvdFactors.left` the full ``U`` takes the
thin one's slot, and the head that ``left_head`` returns is a strided view of it, so
the two orders feed the GEMMs different layouts of the same values; they must give
the same bits.  The readers are the three per-sample reports, ``residual_gap_squared``
alone in both norms (whose ``B = (Q_Z^T U[:, :r]) Sigma`` reads the first ``r``
columns of the full ``U``), the RSVD sketch covariance and the projected covariance.
The factors themselves must
have the bits of ``np.linalg.svd`` at one BLAS thread, and its C-ordered ``U``.
The completion itself must give a square, C-ordered, orthogonal ``U`` whose first
columns are the thin ``U``'s bits.  Imported by ``test_linalg.py``, and run by
``test_kernel_families.py``'s child under each OpenBLAS kernel family.
"""

import numpy as np

from sketchbound import deterministic, expectation, experiments, linalg, sketching


def _bits(value):
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    if isinstance(value, tuple):
        return [_bits(item) for item in value]
    if isinstance(value, (int, str)):
        return value
    return np.asarray(value, dtype=float).tobytes()


def reader_bits(complete_first):
    """The bits of every reader of ``U`` on a 160x120 ``A``, a 160x12 sketch ``Z``
    and a PSD covariance ``C``, at ``k = 5``, each on new factors of ``A`` whose
    full left factor is built first if ``complete_first``."""
    rng = np.random.default_rng(32)
    a, z, g = rng.standard_normal((160, 120)), rng.standard_normal((160, 12)), rng.standard_normal((160, 160))
    c, k = g @ g.T, 5

    def factors():
        f = linalg.svd(a)
        if complete_first:
            f.left()
        return f
    reports = [deterministic.sine_tangent_gap_bound(a, factors(), z, k, which).as_dict()
               for which in ('frobenius', 'spectral')]
    reports.append(deterministic.deflated_spectral_gap_bound(a, factors(), z, k).as_dict())
    reports += [deterministic.residual_gap_squared(a, factors(), z, k, which) for which in linalg.NORMS]
    covariance = sketching.rsvd_distribution(factors(), 1, z.shape[1]).covariance
    projected = expectation.project_covariance(c, factors(), k)
    return [_bits(report) for report in reports] + [_bits(covariance), _bits(vars(projected))]


def svd_inputs():
    """Tall, wide, square and rank-deficient matrices, by name."""
    rng = np.random.default_rng(34)
    return {'tall': rng.standard_normal((200, 150)), 'wide': rng.standard_normal((17, 60)),
            'square': rng.standard_normal((40, 40)),
            'rank-deficient': rng.standard_normal((50, 6)) @ rng.standard_normal((6, 30))}


def svd_mismatches(a):
    """What of ``linalg.svd(a)`` differs from ``np.linalg.svd(a, full_matrices=False)``
    at one BLAS thread: the bits of ``U`` or of ``sigma``, or the C order of ``U``;
    ``[]`` if nothing.  At more threads an SVD's bits move with the thread count, and
    numpy's and scipy's OpenBLAS builds may split the work differently."""
    with experiments._one_blas_thread():
        f = linalg.svd(a)
        u, s, _ = np.linalg.svd(a, full_matrices=False)
    thin = f.left_head(s.size)
    found = [] if thin.flags.c_contiguous else ['U not C-contiguous']
    return found + [name for name, got, want in (('U', thin, u), ('sigma', f.sigma, s))
                    if got.shape != want.shape or got.tobytes() != want.tobytes()]


# the completed U is orthogonal to |U^T U - I| <= ORTHO_C * eps * rows; Householder
# QR is backward stable, and 1.25 was the largest ratio seen from 2 to 300 rows
ORTHO_C = 4.0


def completion_input(rows, width):
    """A C-ordered ``rows x width`` matrix with orthonormal columns."""
    q = np.linalg.qr(np.random.default_rng([35, rows, width]).standard_normal((rows, width)))[0]
    return np.ascontiguousarray(q)


def completion_mismatches(thin, full):
    """What of the completion ``full`` of the thin left factor ``thin`` is wrong: its
    shape, its C order, the bits of its first columns, or its orthogonality; ``[]`` if
    nothing.  These are properties; the complement's own bits may differ by family."""
    rows, width = thin.shape
    if full.shape != (rows, rows):
        return [f'shape {full.shape}, not {(rows, rows)}']
    found = [] if full.flags.c_contiguous else ['not C-contiguous']
    if full[:, :width].tobytes() != thin.tobytes():
        found.append('the thin columns changed')
    deviation = float(np.max(np.abs(full.T @ full - np.eye(rows))))
    if deviation > ORTHO_C * np.finfo(float).eps * rows:
        found.append(f'|U^T U - I| = {deviation:.3e}')
    return found
