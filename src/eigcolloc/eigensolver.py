"""Dense symmetric-definite generalized eigensolver and M-orthonormalization.

Solves K u = mu M u with symmetric K and SPD M by Cholesky reduction to an
ordinary symmetric problem.  Returned eigenvectors are M-orthonormal with a
deterministic sign convention so that repeated solves are bit-reproducible.
``ReducedFamily`` makes and memoises every point solve of an affine family;
it reduces the family once, so that a solve costs an affine sum and one LAPACK
call, and it lifts the eigenvectors of many points by one triangular solve.
The solves of a batch run on one OpenBLAS thread each, one thread per CPU.
"""
from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack

from .errors import ParameterDimensionError, RankDeficiencyError, SolverError
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
    (M = I): no factorisation, no back-transform; lifted by
    ``ReducedFamily._lift`` it is the reference the reduced point solves are
    tested against.

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


# points per batch of solves: a chunk's reduced eigenvectors are lifted by one
# triangular solve, and the chunk bounds the memory a batch holds at once
CHUNK = 256

# (set, get) thread-count symbols of the OpenBLAS copies numpy and scipy bundle
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@cache
def _openblas_copies() -> tuple:
    """(file name, set, get) of each bundled OpenBLAS copy this process has loaded."""
    copies = []
    for pkg in (np, scipy):
        # the wheels keep the bundled libraries in numpy.libs and scipy.libs
        libs = os.path.dirname(pkg.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:  # not loaded
                continue
            for set_name, get_name in _OPENBLAS_SYMBOLS:
                set_, get = getattr(lib, set_name, None), getattr(lib, get_name, None)
                if set_ is not None and get is not None:
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    get.argtypes, get.restype = [], ctypes.c_int
                    copies.append((os.path.basename(path), set_, get))
                    break
    return tuple(copies)


class _SerialBlas:
    """Every bundled OpenBLAS copy on one thread while a block runs.

    One re-entrant object for the process (``_serial_blas()``): the counts
    are process-global, so the outermost open block, in any thread, sets
    them to 1 and restores the old counts when it closes, also when the
    block raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0  # blocks open in the process
        self._saved = ()  # the thread counts the outermost block restores

    def __enter__(self):
        copies = _openblas_copies()
        with self._lock:
            if not self._depth:
                self._saved = tuple(get() for _, _, get in copies)
                for _, set_, _ in copies:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if not self._depth:
                for (_, set_, _), count in zip(_openblas_copies(), self._saved):
                    set_(count)


_SERIAL_BLAS = _SerialBlas()


def _serial_blas() -> _SerialBlas:
    """The process's one cap of every bundled OpenBLAS copy to one thread."""
    return _SERIAL_BLAS


def _nproc() -> int:
    """The processors this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@cache
def _pool() -> ThreadPoolExecutor:
    # the helpers of the calling thread, made at the first parallel chunk
    return ThreadPoolExecutor(max(1, _nproc() - 1), thread_name_prefix="eigcolloc-solve")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's pool threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _in_slices(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]``, with the sequence ``items`` cut into at
    most ``workers`` contiguous slices that run at once: the calling thread
    takes the first one and the pool the others.  Returns when every slice
    is done, also when one raises."""
    parts = min(workers, len(items))
    if parts < 2:
        return [fn(x) for x in items]
    bounds = [len(items) * i // parts for i in range(parts + 1)]

    def run(lo, hi):
        return [fn(x) for x in items[lo:hi]]

    futures = [_pool().submit(run, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        out = run(0, bounds[1])
    finally:
        wait(futures)
    for future in futures:
        out += future.result()
    return out


@cache
def _lapack(name: str, n_args: int):
    """scipy's own LAPACK routine ``name``, called through ctypes, which
    releases the GIL for the call (scipy's f2py wrappers hold it); every one
    of its ``n_args`` arguments is a pointer."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    cname = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, cname)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


def _address(a: np.ndarray) -> int:
    """The address of a writable array's first element."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _point_environment(family) -> dict:
    """The OpenBLAS copies found, with their thread counts, the count a point
    solve of ``family`` runs with (None if unknown), the threads that share a
    chunk's point solves, and the route of those solves with the bandwidth
    of the pencil."""
    kd = ReducedFamily(family).bandwidth
    banded = kd is not None
    if not banded:
        kd = max(_bandwidth(A, family.dim) for A in (family.mass, family.B0, *family.B_terms))
    copies = _openblas_copies()
    found = [{"file": name, "threads": get()} for name, _, get in copies]
    with _serial_blas():
        point = max((get() for _, _, get in copies), default=None)
    return {
        "openblas": found, "point_solve_threads": point,
        "point_solve_workers": _nproc(),
        "point_solver": {"route": "banded" if banded else "dense", "bandwidth": kd},
    }


def _long_point(y, n_terms: int) -> ParameterDimensionError:
    """The error for a parameter point y with more components than n_terms."""
    return ParameterDimensionError(
        f"parameter point {tuple(map(float, y))} has {len(y)} components, "
        f"family has {n_terms} terms"
    )


# the bandwidth from which a family's point solves take the dense route:
# below it each point off the origin is one banded LAPACK dsbgvx call
# (CHANGES.md has the kd x n table of the two routes that sets it)
BAND_CROSSOVER = 2
# dsbgvx's absolute eigenvalue tolerance: twice the underflow threshold, at
# which the bisection computes the eigenvalues most accurately
_ABSTOL = 2 * np.finfo(float).tiny


def _bandwidth(A: np.ndarray, limit: int) -> int | None:
    """The bandwidth of the square matrix A, the largest |i - j| of a nonzero
    entry, or None if it is above ``limit``; the entries past ``limit`` are
    tested first, so that a wide matrix costs one pass."""
    if np.triu(A, limit + 1).any() or np.tril(A, -limit - 1).any():
        return None
    rows, cols = np.nonzero(A)
    return int(np.abs(rows - cols).max(initial=0))


def _band(A: np.ndarray, kd: int) -> np.ndarray:
    """The symmetric part of A in LAPACK's lower-band storage with kd
    subdiagonals, flat: entry (j, r) of its n x (kd + 1) rows is A[j + r, j],
    zero past the last row."""
    n = A.shape[0]
    ab = np.zeros((n, kd + 1))
    for r in range(kd + 1):
        ab[:n - r, r] = 0.5 * (np.diagonal(A, -r) + np.diagonal(A, r))
    return ab.ravel()


class ReducedFamily:
    """Every eigensolve of an affine pencil (B0 + sum_m y_m B_m, M), memoised.

    ``solve_many(Y, k)`` is the one path of every point solve and the only
    code that knows CHUNK: it yields the solves chunk by chunk, with a
    ``SolverError`` in place of each failed one.  ``solve(y, k)`` is its
    one-point case and raises that error.  The origin is the dense
    ``solve_gevp(B0, M, k)``.  Every other point is one call of
    ``_solve_point``, on the route the family's matrices choose at the first
    point away from the origin (``bandwidth``):

    - banded, when every matrix has fewer than ``BAND_CROSSOVER``
      subdiagonals: B0, the B_m and M are stacked once in LAPACK's band
      storage, and a point costs one product ``[1, y] @ T`` and one
      ``dsbgvx`` call, whose eigenvectors come out M-orthonormal;
    - dense, otherwise: M = L L' is factored, every affine term reduced once,
      A_m = inv(L) B_m inv(L)', and a point costs its affine sum ``at(y)``
      and one ``dsyevr`` call.  The eigenvectors of a chunk are lifted by one
      triangular solve (``_lift``); at the origin that is bit for bit the
      dense solve.  The reduced terms take as much memory as
      the family.

    Either way the eigenvectors of a chunk are sign-fixed together.  Solves
    are keyed by the point padded with zeros and k; with ``carry=False`` only
    the origin's are kept, and a failed solve is never kept.  ``solves``
    counts the eigensolves made, failed ones included, and ``reused`` those
    served again.  The work of each chunk, the set-up of the route and the
    origin's solve included, runs under ``_serial_blas()``, on one OpenBLAS
    thread, at every size and on both routes: the results do not depend on
    the thread settings.  The fresh points of a chunk are solved in
    ``_nproc()`` contiguous slices at once, each on its own thread, with
    results, memo and counts bit for bit those of one thread: LAPACK is
    called through ctypes, which lets the other threads run.
    """

    def __init__(self, family, carry: bool = True):
        self.family = family
        self.carry = carry
        self.solves = 0
        self.reused = 0
        self._memo = {}
        self._local = threading.local()

    @cached_property
    def bandwidth(self) -> int | None:
        """The bandwidth of the pencil, that of its widest matrix, if it is
        below ``BAND_CROSSOVER`` (the banded route), else None (the dense
        route).  The mass matrix is tested first, so that a wide family
        costs one pass over one matrix."""
        kd = 0
        for A in (self.family.mass, self.family.B0, *self.family.B_terms):
            kd_A = _bandwidth(A, BAND_CROSSOVER - 1)
            if kd_A is None:
                return None
            kd = max(kd, kd_A)
        return kd

    @cached_property
    def LT(self) -> np.ndarray:
        return _cholesky(self.family.mass).T

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        L = self.LT.T
        return tuple(_reduce(L, B) for B in (self.family.B0, *self.family.B_terms))

    @cached_property
    def _syevr(self) -> tuple:
        # dsyevr's constant arguments, with the workspace sizes scipy's
        # eigh(driver="evr") passes, so that a reduced solve is the one
        # solve_gevp(at(y)) makes: their addresses, the sizes of the float
        # and the int arrays of a workspace, and the arguments, which keep
        # the addresses valid; read-only, so every thread shares them
        n = self.family.dim
        lwork, liwork, _ = scipy.linalg.lapack.dsyevr_lwork(n, lower=1)
        args = (
            ctypes.c_char(b"V"), ctypes.c_char(b"I"), ctypes.c_char(b"L"), ctypes.c_int(n),
            ctypes.c_double(0.0), ctypes.c_double(1.0), ctypes.c_int(1),
            ctypes.c_int(int(lwork)), ctypes.c_int(liwork),
        )
        sizes = (n, int(lwork)), (liwork, 2 * n)  # w, work; iwork, isuppz
        return tuple(map(ctypes.addressof, args)), sizes, args

    @cached_property
    def _sbgvx(self) -> tuple:
        # the banded route: B0 and the B_m in band storage, one row each, the
        # band of M, and dsbgvx's constant arguments: their addresses, the
        # sizes of the float and the int arrays of a workspace, and the
        # arguments, which keep the addresses valid; read-only, so every
        # thread shares them
        fam, kd = self.family, self.bandwidth
        n = fam.dim
        T = np.stack([_band(A, kd) for A in (fam.B0, *fam.B_terms)])
        args = (
            ctypes.c_char(b"V"), ctypes.c_char(b"I"), ctypes.c_char(b"L"), ctypes.c_int(n),
            ctypes.c_int(kd), ctypes.c_int(kd + 1), ctypes.c_double(0.0), ctypes.c_double(1.0),
            ctypes.c_int(1), ctypes.c_double(_ABSTOL),
        )
        nb = n * (kd + 1)
        sizes = (nb, nb, n * n, n, 7 * n), (5 * n, n)  # AB, BB, Q, w, work; iwork, ifail
        return T, _band(fam.mass, kd), tuple(map(ctypes.addressof, args)), sizes, args

    def _workspace(self, name: str, sizes: tuple) -> tuple:
        # the calling thread's outputs and workspace of the LAPACK routine
        # ``name``, made at its first call and kept for the next: the float
        # and the int arrays of the given sizes, the ints iu, m and info, and
        # the address of each
        ws = getattr(self._local, name, None)
        if ws is None:
            floats, ints = sizes
            arrays = [np.empty(s) for s in floats] + [np.empty(s, np.intc) for s in ints]
            scalars = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
            ws = arrays, scalars, (*map(_address, arrays), *map(ctypes.addressof, scalars))
            setattr(self._local, name, ws)
        return ws

    def at(self, y) -> np.ndarray:
        """inv(L) B(y) inv(L)'; missing trailing components of y count as zero."""
        return affine_sum(self.terms[0], self.terms[1:], y)

    def _solve_point(self, y, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest eigenvalues at y, a finite point off the origin, and
        their eigenvectors: M-orthonormal on the banded route, those of
        ``at(y)`` on the dense route, which ``solve_many`` lifts.

        The one per-point kernel of both routes; it runs on any thread.
        """
        if self.bandwidth is None:
            return self._eigh(self.at(y), k)
        T, mass, addresses, sizes, _ = self._sbgvx
        jobz, range_, uplo, n, kd, ldab, vl, vu, il, abstol = addresses
        (ab, bb, _, w, _, _, _), (iu, _, info), ws = self._workspace("dsbgvx", sizes)
        ab_at, bb_at, q, w_at, work, iwork, ifail, iu_at, m, info_at = ws
        c = np.zeros(len(T))
        c[0] = 1.0
        c[1:1 + len(y)] = y
        np.dot(c, T, out=ab)
        bb[:] = mass
        iu.value = k
        z = np.empty((self.family.dim, k), order="F")
        _lapack("dsbgvx", 25)(
            jobz, range_, uplo, n, kd, kd, ab_at, ldab, bb_at, ldab, q, n, vl, vu, il, iu_at,
            abstol, m, w_at, _address(z.T), n, work, iwork, ifail, info_at,  # z.T: C order
        )
        if info.value:
            raise SolverError(f"banded eigensolver failed: dsbgvx returned info={info.value}")
        return w[:k].copy(), z

    def _eigh(self, A: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest eigenvalues and orthonormal eigenvectors of A.

        A must be exactly symmetric, as ``at(y)`` is; ``dsyevr`` overwrites it.
        """
        addresses, sizes, _ = self._syevr
        jobz, range_, uplo, n, zero, vu, il, lwork, liwork = addresses
        (w, _, _, _), (iu, _, info), ws = self._workspace("dsyevr", sizes)
        w_at, work, iwork, isuppz, iu_at, m, info_at = ws
        iu.value = k
        dim = self.family.dim
        A = np.require(A, np.float64, ("C", "W"))  # its own transpose: no copy
        if A.shape != (dim, dim):
            raise ValueError(f"expected a {dim} x {dim} matrix, got shape {A.shape}")
        z = np.empty((dim, k), order="F")
        _lapack("dsyevr", 21)(
            jobz, range_, uplo, n, _address(A), n, zero, vu, il, iu_at, zero, m, w_at,
            _address(z.T), n, isuppz, work, lwork, iwork, liwork, info_at,  # z.T: C order
        )
        if info.value:
            raise SolverError(f"dense eigensolver failed: dsyevr returned info={info.value}")
        return w[:k].copy(), z

    def _lift(self, W: np.ndarray) -> np.ndarray:
        # inv(L') W in place of W, one triangular solve for every column, then
        # the sign rule
        return _fix_signs(
            scipy.linalg.solve_triangular(self.LT, W, lower=False, overwrite_b=True)
        )

    def solve(self, y, k: int) -> SpectralDecomposition:
        """The k lowest eigenpairs at y: ``solve_many`` of the one point.

        Raises the ``SolverError`` that ``solve_many`` holds for a fault.
        """
        [(_, [decomp])] = self.solve_many([y], k)
        if isinstance(decomp, SolverError):
            raise decomp
        return decomp

    def solve_many(self, Y, k: int):
        """The k lowest eigenpairs at every point of Y, CHUNK points at a time.

        Yields ``(start, decomps)`` per chunk, where ``decomps[i]`` belongs to
        ``Y[start + i]``.  A point that is not finite, or whose solve fails,
        holds a ``SolverError`` naming it where its decomposition would be; a
        fault is counted as a solve and never kept, and the rest of its chunk
        is solved as usual.  A point given twice is solved once.  Each chunk
        is solved on one OpenBLAS thread per worker thread; the old counts
        are back before the chunk is yielded.
        Only the calling thread touches the memo and the counters.  A point
        with more components than the family has terms raises a
        ``ParameterDimensionError`` naming it before any point is solved.
        """
        n_terms = self.family.n_terms
        for y in Y:
            if len(y) > n_terms:
                raise _long_point(y, n_terms)
        for start in range(0, len(Y), CHUNK):
            Yc = Y[start:start + CHUNK]
            keys = [(tuple(y) + (0.0,) * (n_terms - len(y)), k) for y in Yc]
            fresh = {}  # key -> its point, for the keys the memo lacks
            for y, key in zip(Yc, keys):
                if key in self._memo or key in fresh:
                    self.reused += 1
                else:
                    fresh[key] = y
            points = list(fresh.items())
            W = np.empty((self.family.dim, k * len(points)), order="F")

            def solve(i):
                # the origin's decomposition, the values at another point, whose
                # eigenvectors go to the i-th block of W, or the error
                key, y = points[i]
                try:
                    if not all(map(math.isfinite, key[0])):
                        raise SolverError("parameter point is not finite")
                    if not any(key[0]):
                        return solve_gevp(self.family.B0, self.family.mass, k=k)
                    values, z = self._solve_point(y, k)
                    W[:, k * i:k * (i + 1)] = z
                    return values
                except SolverError as exc:
                    err = SolverError(f"{exc} at point {tuple(map(float, y))}")
                    err.__cause__ = exc
                    return err

            off_origin = any(any(key[0]) and all(map(math.isfinite, key[0])) for key in fresh)
            # the route is chosen at the first point off the origin
            banded = off_origin and self.bandwidth is not None
            # the cap closes before the yield, so that a caller that raises or
            # drops the generator never leaves the counts at one
            with _serial_blas():
                workers = _nproc()
                if off_origin:
                    try:
                        # made before the threads start: cached_property takes no lock
                        self._sbgvx if banded else (self.terms, self._syevr)
                    except SolverError:
                        workers = 1  # every point meets the error again, in place
                out = _in_slices(solve, range(len(points)), workers)
                self.solves += len(points)
                solved = [i for i, got in enumerate(out) if isinstance(got, np.ndarray)]
                for p, i in enumerate(solved):
                    if p != i:  # close the blocks of the other points up
                        W[:, k * p:k * (p + 1)] = W[:, k * i:k * (i + 1)]
                if solved:
                    U = W[:, :k * len(solved)]
                    U = _fix_signs(U) if banded else self._lift(U)
                    for p, i in enumerate(solved):
                        out[i] = SpectralDecomposition(out[i], U[:, p * k:(p + 1) * k])
            made = dict(zip(fresh, out))
            for key, decomp in made.items():
                # the origin is the reference of every caller and a grid point as well
                if not isinstance(decomp, SolverError) and (self.carry or not any(key[0])):
                    self._memo[key] = decomp
            yield start, [made[key] if key in made else self._memo[key] for key in keys]


# relative M-norm left after projection at which a column counts as dependent
DEPENDENCE_RTOL = 1e-10


def m_orthonormalize(V, M) -> np.ndarray:
    """Orthonormalize the columns of V in the M inner product.

    CholeskyQR2: twice, factor the M-Gram matrix G = R'R of the columns and
    replace them by V inv(R).  The diagonal of the product of both factors
    holds the M-norm of each column after projection onto the previous ones;
    the first column where it drops to ``DEPENDENCE_RTOL`` times the column's
    own M-norm, or where a factorisation breaks down, is reported as dependent.
    Column signs follow the first-nonzero-component-positive convention.

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
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->j", V, M @ V), 0.0))
    diag = np.ones(s)
    done = s  # leading columns both factorisations reached
    for _ in range(2):
        R, info = scipy.linalg.lapack.dpotrf(V.T @ (M @ V), lower=0, clean=1)
        if info > 0:
            done = info - 1
            R, V = R[:done, :done], V[:, :done]
        diag[:done] *= np.diag(R)
        V = scipy.linalg.solve_triangular(R, V.T, trans="T", lower=False).T
    small = np.flatnonzero(diag[:done] <= DEPENDENCE_RTOL * norms[:done])
    if small.size or done < s:
        raise RankDeficiencyError(int(small[0]) if small.size else done)
    V = np.ascontiguousarray(V)
    flip = V[np.argmax(V != 0.0, axis=0), np.arange(s)] < 0
    V[:, flip] = -V[:, flip]
    return V
