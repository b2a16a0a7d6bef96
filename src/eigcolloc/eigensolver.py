"""Dense symmetric-definite generalized eigensolver and M-orthonormalization.

Solves K u = mu M u with symmetric K and SPD M by Cholesky reduction to an
ordinary symmetric problem.  Returned eigenvectors are M-orthonormal with a
deterministic sign convention so that repeated solves are bit-reproducible.
``ReducedFamily`` does the reduction once for a whole affine family, so that
a solve at a parameter point costs an affine sum plus one ``eigh``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import RankDeficiencyError, SolverError
from .families import affine_sum


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and M-orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def k(self) -> int:
        return len(self.values)


def _fix_signs(U: np.ndarray) -> np.ndarray:
    # largest-magnitude entry of each column made positive; ties broken by
    # lowest row index (argmax picks the first maximum)
    cols = np.arange(U.shape[1])
    flip = U[np.argmax(np.abs(U), axis=0), cols] < 0
    U[:, flip] = -U[:, flip]
    return U


def _reduce(L: np.ndarray, K: np.ndarray) -> np.ndarray:
    # the ordinary symmetric matrix inv(L) K inv(L)' of the pencil (K, L L')
    KL = scipy.linalg.solve_triangular(L, K, lower=True)
    A = scipy.linalg.solve_triangular(L, KL.T, lower=True)
    return 0.5 * (A + A.T)


def _cholesky(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise SolverError("mass matrix is not positive definite") from None


def solve_gevp(K, M=None, k: int | None = None) -> SpectralDecomposition:
    """Solve the pencil (K, M) for the k smallest eigenpairs (all if k is None).

    K must be symmetric, M symmetric positive definite.  Eigenvalues come back
    ascending; eigenvectors satisfy U' M U = I to machine precision.  With
    ``M=None`` K is taken as an already reduced standard symmetric problem
    (M = I): no factorisation, no back-transform.  ``ReducedFamily`` supplies
    such K for every point of an affine family.

    Raises
    ------
    SolverError
        If M is not positive definite or the dense solve fails to converge.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if M is not None:
        M = np.asarray(M, dtype=float)
    if K.shape != (n, n) or (M is not None and M.shape != (n, n)):
        raise SolverError("K and M must be square matrices of equal size")
    if k is not None and not 1 <= k <= n:
        raise SolverError(f"requested {k} eigenpairs from a {n}-dim pencil")
    if M is None:
        A = K
    else:
        L = _cholesky(M)
        A = _reduce(L, K)
    subset = None if k is None or k == n else (0, k - 1)
    try:
        vals, vecs = scipy.linalg.eigh(A, subset_by_index=subset, driver="evr")
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"dense eigensolver failed: {exc}") from exc
    if M is None:
        U = vecs
    else:
        # back-transform: columns inv(L') w are M-orthonormal exactly when w
        # is orthonormal, up to the triangular solve roundoff
        U = scipy.linalg.solve_triangular(L.T, vecs, lower=False)
    U = _fix_signs(np.ascontiguousarray(U))
    return SpectralDecomposition(values=np.ascontiguousarray(vals), vectors=U)


class ReducedFamily:
    """An affine pencil (B0 + sum_m y_m B_m, M) reduced once to standard form.

    The constant mass matrix is factored once, M = L L', and every affine
    term once, A_m = inv(L) B_m inv(L)'.  ``at(y)`` is then the standard
    symmetric matrix of the pencil at y, a plain affine sum to hand to
    ``solve_gevp(..., None, k)``, and ``lift`` maps that solve back to
    M-orthonormal eigenvectors of the pencil.  Built per call by the
    many-point solvers and never stored on a family or a basis: the reduced
    terms take as much memory as the family's own.
    """

    def __init__(self, family):
        L = _cholesky(np.asarray(family.mass, dtype=float))
        self.LT = L.T
        self.terms = tuple(_reduce(L, B) for B in (family.B0, *family.B_terms))

    def at(self, y) -> np.ndarray:
        """inv(L) B(y) inv(L)'; missing trailing components of y count as zero."""
        return affine_sum(self.terms[0], self.terms[1:], y)

    def lift(self, decomp: SpectralDecomposition) -> SpectralDecomposition:
        """Eigenvectors of the pencil from those of its reduced matrix."""
        U = scipy.linalg.solve_triangular(self.LT, decomp.vectors, lower=False)
        U = _fix_signs(np.ascontiguousarray(U))
        return SpectralDecomposition(values=decomp.values, vectors=U)


def m_orthonormalize(V, M, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize the columns of V in the M inner product.

    Modified Gram-Schmidt with a second reorthogonalization pass.  Column signs
    follow the first-nonzero-component-positive convention.  A column whose
    norm after projection drops below ``rel_tol`` times its original norm is
    reported as dependent.

    Raises
    ------
    RankDeficiencyError
        If some column is (numerically) in the span of the previous ones.
    """
    V = np.array(V, dtype=float, copy=True)
    M = np.asarray(M, dtype=float)
    if V.ndim != 2:
        raise SolverError("V must be a matrix of column vectors")
    n, s = V.shape
    if M.shape != (n, n):
        raise SolverError("inner-product matrix shape does not match vectors")

    def mnorm(v):
        return float(np.sqrt(max(v @ (M @ v), 0.0)))

    original = [mnorm(V[:, j]) for j in range(s)]
    for j in range(s):
        v = V[:, j]
        for _pass in range(2):
            for i in range(j):
                v = v - (V[:, i] @ (M @ v)) * V[:, i]
        nrm = mnorm(v)
        if original[j] == 0.0 or nrm <= rel_tol * original[j]:
            raise RankDeficiencyError(j)
        v = v / nrm
        nz = np.nonzero(v)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        V[:, j] = v
    return V
