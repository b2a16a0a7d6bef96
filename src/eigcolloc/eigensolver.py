"""Dense symmetric-definite generalized eigensolver and M-orthonormalization.

Solves K u = mu M u with symmetric K and SPD M by Cholesky reduction to an
ordinary symmetric problem (LAPACK ``dsygst``, on the symmetric part of K).
Returned eigenvectors are M-orthonormal with a deterministic sign convention
so that repeated solves are bit-reproducible.
``ReducedFamily`` makes and memoises every point solve of an affine family;
it reduces the family's terms once, into one stacked array, so that a solve
costs one product of the point's weights and that stack and one LAPACK call,
and it lifts the eigenvectors of many points by one triangular solve.
A tridiagonal family is solved in band storage instead, by ``dsbgvx`` and, for
large dimensions, inverse iteration for the eigenvectors.
The solves of a batch run on one OpenBLAS thread each, one thread per CPU.
"""
from __future__ import annotations

import ctypes
import glob
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack

from .errors import ParameterDimensionError, RankDeficiencyError, SolverError
from .families import _parameter_point


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


# rows of a reduced matrix whose lower triangle is mirrored into the upper one
# at a time: the copy goes through a temporary of at most this many rows
_MIRROR_ROWS = 64
_STRICT_UPPER = ~np.tri(_MIRROR_ROWS, dtype=bool)


def _reduce(L: np.ndarray, K: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The ordinary symmetric matrix inv(L) S inv(L)' of the pencil (S, L L'),
    where S = (K + K')/2 is the symmetric part of K, into the C-order array
    ``out`` (a new one if None); L is lower triangular, in C order.

    One LAPACK ``dsygst`` call (itype 1) reduces one triangle in place.
    Read in Fortran order the C-order buffers hold S and the factor U = L'
    of uplo "U", so L is passed as it is.  The triangle it wrote, the lower
    one in C order, is then mirrored into the upper one: the result is
    exactly symmetric.  Allocates nothing n x n when ``out`` is given.
    """
    A = np.add(K, K.T, out=out)
    A *= 0.5
    n = len(A)
    args = ctypes.c_int(1), ctypes.c_char(b"U"), ctypes.c_int(n), ctypes.c_int()
    itype, uplo, dim, info = map(ctypes.addressof, args)
    # dsygst's info is nonzero only for an illegal argument
    _lapack("dsygst", 8)(itype, uplo, dim, _address(A), dim, _address(L), dim, info)
    for i in range(0, n, _MIRROR_ROWS):
        j = min(i + _MIRROR_ROWS, n)
        D = A[i:j, i:j]
        np.copyto(D, D.T, where=_STRICT_UPPER[:j - i, :j - i])
        A[i:j, j:] = A[j:, i:j].T
    return A


def _cholesky(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise SolverError("mass matrix is not positive definite") from None


def solve_gevp(K, M=None, k: int | None = None) -> SpectralDecomposition:
    """Solve the pencil (K, M) for the k smallest eigenpairs (all if k is None).

    K must be symmetric, M symmetric positive definite; only the symmetric
    part (K + K')/2 of K enters.  Eigenvalues come back ascending;
    eigenvectors satisfy U' M U = I to machine precision.  With ``M=None``
    K is taken as an already reduced standard symmetric problem (M = I): no
    factorisation, no back-transform; lifted by ``ReducedFamily._lift`` it
    is the reference the reduced point solves are tested against.

    Raises
    ------
    SolverError
        If K or M is empty or has a non-finite entry, k is not an integer,
        M is not positive definite or the dense solve fails to converge.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if M is not None:
        M = np.asarray(M, dtype=float)
    if K.shape != (n, n) or (M is not None and M.shape != (n, n)):
        raise SolverError("K and M must be square matrices of equal size")
    if n == 0:
        raise SolverError("K and M must not be empty")
    for name, A in (("K", K), ("M", M)):
        if A is not None and not np.isfinite(A).all():
            raise SolverError(f"{name} has a non-finite entry")
    # integers only: eigh's subset would read 2.5 as 2 and True as 1
    if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral)):
        raise SolverError(f"k must be an integer, got {k!r}")
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
    of the pencil and the kernel of their eigenvectors."""
    kd = ReducedFamily(family).bandwidth
    banded = kd is not None
    if banded:
        vectors = _vector_kernel(family.dim)
    else:
        vectors = "dsyevr"
        kd = max(_bandwidth(A, family.dim) for A in (family.mass, family.B0, *family.B_terms))
    copies = _openblas_copies()
    found = [{"file": name, "threads": get()} for name, _, get in copies]
    with _serial_blas():
        point = max((get() for _, _, get in copies), default=None)
    return {
        "openblas": found, "point_solve_threads": point,
        "point_solve_workers": _nproc(),
        "point_solver": {
            "route": "banded" if banded else "dense", "bandwidth": kd, "vectors": vectors,
        },
    }


def _weights(y, n_terms: int) -> np.ndarray:
    """[1, y, 0, ...]: the weights of the stacked terms B0, B_1, ...,
    B_n_terms at the point y, which has at most n_terms components."""
    c = np.zeros(1 + n_terms)
    c[0] = 1.0
    c[1:1 + len(y)] = y
    return c


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
# the dimension from which a banded point solve calls dsbgvx for its
# eigenvalues only and finds each eigenvector by inverse iteration on the
# tridiagonal pencil; below it dsbgvx returns its own eigenvectors.  From
# here on the inverse iteration was the faster for every k from 1 to 4
# (CHANGES.md has the n x k table of the two kernels that sets it)
INVERSE_ITERATION_FROM = 150
# dsbgvx's absolute eigenvalue tolerance: twice the underflow threshold, at
# which the bisection computes the eigenvalues most accurately
_ABSTOL = 2 * np.finfo(float).tiny
_EPS = np.finfo(float).eps
# inverse iteration as LAPACK dstein runs it: at most this many steps per
# eigenvector, of which the last two follow the first grown iterate
_STEPS, _EXTRA_STEPS = 5, 2


def _vector_kernel(n: int) -> str:
    """The kernel of the eigenvectors of a banded point solve at dimension n:
    ``dsbgvx``'s own, or ``inverse-iteration`` after its values."""
    return "inverse-iteration" if n >= INVERSE_ITERATION_FROM else "dsbgvx"


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
      ``dsbgvx`` call.  Below dimension ``INVERSE_ITERATION_FROM`` that call
      returns the eigenvectors; from there on it returns the eigenvalues
      alone, bit for bit the same, and builds no n x n transform, and each
      eigenvector comes from inverse iteration on the tridiagonal pencil
      (``_inverse_iteration``).  Either kernel's eigenvectors are
      M-orthonormal;
    - dense, otherwise: M = L L' is factored and every affine term reduced
      once by ``_reduce`` (one ``dsygst`` call on its symmetric part),
      A_m = inv(L) B_m inv(L)', into one stacked array ``terms``, whose
      layers are reduced on ``_nproc()`` threads at once.  A point costs one
      product of its weights [1, y] and the stack, ``at(y)``, into its
      thread's workspace, and one ``dsyevr`` call.  The eigenvectors of a
      chunk are lifted by one triangular solve (``_lift``); at the origin
      that is bit for bit the dense solve.  The reduced terms take as much
      memory as the family.

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
    def terms(self) -> np.ndarray:
        """The reduced terms A_0, A_1, ... of B0, B_1, ..., stacked: one
        (1 + m) x n x n array, made on the calling thread; each layer is
        reduced in place by ``_reduce``, the layers in ``_nproc()`` slices
        at once, on one OpenBLAS thread each."""
        fam = self.family
        B = (fam.B0, *fam.B_terms)
        T = np.empty((len(B), fam.dim, fam.dim))
        with _serial_blas():
            L = self.LT.T
            _in_slices(lambda i: _reduce(L, B[i], out=T[i]), range(len(B)), _nproc())
        return T

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
        # w, work, the reduced matrix of the point; iwork, isuppz
        sizes = (n, int(lwork), (n, n)), (liwork, 2 * n)
        return tuple(map(ctypes.addressof, args)), sizes, args

    @cached_property
    def _sbgvx(self) -> tuple:
        # the banded route: B0 and the B_m in band storage, one row each, the
        # band of M; for the inverse iteration M's tridiagonal as dlagtf
        # reads a matrix (its diagonal, then its subdiagonal padded with a
        # zero, twice), with the addresses of the first two rows, M's 1-norm
        # and Gershgorin lower bound, and the first right-hand side of every
        # iteration, a fixed pseudo-random vector of largest entry 1, as
        # dstein's is; then the constant arguments of the LAPACK calls: their
        # addresses, the sizes of the float and the int arrays of each
        # kernel's workspace, and the arguments, which keep the addresses
        # valid; read-only, so every thread shares them
        fam, kd = self.family, self.bandwidth
        n = fam.dim
        T = np.stack([_band(A, kd) for A in (fam.B0, *fam.B_terms)])
        mass = _band(fam.mass, kd)
        tri = np.zeros((3, n))
        tri[:kd + 1] = mass.reshape(n, kd + 1).T
        tri[2] = tri[1]
        off = np.abs(tri[1])
        off[1:] += np.abs(tri[1, :-1])  # the off-diagonal mass of each row
        start = np.random.default_rng(1).uniform(-1.0, 1.0, n)
        start /= np.abs(start).max()
        stein = (
            tri, _address(tri[0]), _address(tri[1]), float((np.abs(tri[0]) + off).max()),
            float((tri[0] - off).min()), start,
        )
        args = (
            ctypes.c_char(b"V"), ctypes.c_char(b"N"), ctypes.c_char(b"I"), ctypes.c_char(b"L"),
            ctypes.c_int(n), ctypes.c_int(kd), ctypes.c_int(kd + 1), ctypes.c_double(0.0),
            ctypes.c_double(1.0), ctypes.c_int(1), ctypes.c_double(_ABSTOL), ctypes.c_int(-1),
        )
        nb = n * (kd + 1)
        sizes = {
            # AB, BB, Q, w, work; iwork, ifail
            "dsbgvx": ((nb, nb, n * n, n, 7 * n), (5 * n, n)),
            # no Q; K(y)'s tridiagonal as M's, the shifted one K - w_j M, the
            # second superdiagonal of its factor, two iterates and tol; the
            # pivots, iwork, ifail
            "inverse-iteration": (
                (nb, nb, 1, n, 7 * n, (3, n), (3, n), n, n, n, 1), (n, 5 * n, n),
            ),
        }
        return T, mass, stein, tuple(map(ctypes.addressof, args)), sizes, args

    def _workspace(self, name: str, sizes: tuple) -> tuple:
        # the calling thread's outputs and workspace of the LAPACK routine or
        # the kernel ``name``, made at its first call and kept for the next:
        # the float and the int arrays of the given sizes, zero at first, the
        # ints iu, m and info, and the address of each
        ws = getattr(self._local, name, None)
        if ws is None:
            floats, ints = sizes
            arrays = [np.zeros(s) for s in floats] + [np.zeros(s, np.intc) for s in ints]
            scalars = ctypes.c_int(), ctypes.c_int(), ctypes.c_int()
            ws = arrays, scalars, (*map(_address, arrays), *map(ctypes.addressof, scalars))
            setattr(self._local, name, ws)
        return ws

    def at(self, y) -> np.ndarray:
        """inv(L) B(y) inv(L)', one product of the weights [1, y] and the
        stacked terms; missing trailing components of y count as zero."""
        n_terms, n = self.family.n_terms, self.family.dim
        c = _weights(_parameter_point(y, n_terms), n_terms)
        return np.dot(c, self.terms.reshape(len(c), -1)).reshape(n, n)

    def _solve_point(self, y, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest eigenvalues at y, a finite point off the origin, and
        their eigenvectors: M-orthonormal on the banded route, those of
        ``at(y)`` on the dense route, which ``solve_many`` lifts.

        The one per-point kernel of both routes; it runs on any thread.  A
        banded solve is one ``dsbgvx`` call, which returns the eigenvectors
        below ``INVERSE_ITERATION_FROM`` (``_vector_kernel``); from there on
        it returns the eigenvalues alone, the same bits, and the eigenvectors
        come from ``_inverse_iteration``.
        """
        c = _weights(y, self.family.n_terms)
        if self.bandwidth is None:
            return self._eigh(c, k)
        T, mass, _, addresses, sizes, _ = self._sbgvx
        vectors, values, range_, uplo, n, kd, ldab, vl, vu, il, abstol, _ = addresses
        kernel = _vector_kernel(self.family.dim)
        arrays, (iu, _, info), ws = self._workspace(kernel, sizes[kernel])
        ab, bb, _, w = arrays[:4]
        (ab_at, bb_at, q, w_at, work), (iwork, ifail, iu_at, m, info_at) = ws[:5], ws[-5:]
        np.dot(c, T, out=ab)
        stein = kernel == "inverse-iteration"
        if stein:  # dsbgvx overwrites the band of K(y); with kd = 0 the
            # off-diagonal rows of its tridiagonal stay zero
            band, K = ab.reshape(self.family.dim, -1).T, arrays[5]
            K[:len(band)] = band
            K[2] = K[1]
        bb[:] = mass
        iu.value = k
        z = np.empty((self.family.dim, k), order="F")
        _lapack("dsbgvx", 25)(
            values if stein else vectors, range_, uplo, n, kd, kd, ab_at, ldab, bb_at, ldab, q,
            n, vl, vu, il, iu_at, abstol, m, w_at, _address(z.T), n,  # z.T: C order
            work, iwork, ifail, info_at,
        )
        if info.value:
            raise SolverError(f"banded eigensolver failed: dsbgvx returned info={info.value}")
        if stein:
            self._inverse_iteration(w[:k], z, arrays, ws)
        return w[:k].copy(), z

    def _inverse_iteration(self, w: np.ndarray, z: np.ndarray, arrays: list, ws: tuple):
        """The M-orthonormal eigenvectors of the tridiagonal pencil (K, M) at
        its ascending eigenvalues w, into the columns of z; K is K(y)'s
        tridiagonal in the workspace ``arrays``.

        LAPACK dstein's inverse iteration (Parlett, *The Symmetric Eigenvalue
        Problem*, ch. 4), on the pencil.  Each shifted matrix K - w_j M is
        factored once (``dlagtf``), and each step solves it (``dlagts``) for
        the right-hand side M x, scaled so that the growth of the solution
        measures the accuracy of the shift; the first right-hand side is a
        fixed pseudo-random vector, and equal shifts are moved 10 eps |w_j|
        apart.  Within a group of close eigenvalues each iterate is
        orthogonalised against the group's earlier vectors by modified
        Gram-Schmidt in the M inner product.  A vector takes two steps after
        its first grown iterate, at most five in all, and is normalised in the
        M-norm.
        """
        (tri, m_diag, m_off, m_norm, m_low, start), addresses = self._sbgvx[2:4]
        _, trans, _, _, n, _, _, zero, one, nrhs, _, job = addresses
        K, P, _, x0, x1, tol = arrays[5:11]
        diag_at, d2_at, x0_at, x1_at, tol_at, pivots = ws[6:12]
        super_at, sub_at, info_at = diag_at + P[0].nbytes, diag_at + 2 * P[0].nbytes, ws[-1]
        dim, k = P.shape[1], len(w)
        dlagtf, dlagts, dlagtm = _lapack("dlagtf", 9), _lapack("dlagts", 10), _lapack("dlagtm", 12)
        # K's 1-norm; eigenvalues closer than a thousandth of the pencil's
        # spectral radius, bounded above through M's Gershgorin bound, share
        # a group (dstein's ortol)
        a = np.abs(K[:2])
        a[0] += a[1]
        a[0, 1:] += a[1, :-1]
        k_norm = float(a[0].max())
        ortol = 1e-3 * k_norm / m_low if m_low > 0.0 else math.inf
        grown_norm = math.sqrt(0.1 / dim)  # dstein's dtpcrt
        Mz = np.empty((dim, k), order="F")  # M z_i of the vectors made
        Mz_at = _address(Mz.T)
        z_cols, Mz_cols = list(z.T), list(Mz.T)
        first = 0  # the first vector of the current group
        for j in range(k):
            shift = float(w[j])
            if j:
                apart = 10.0 * _EPS * abs(shift)
                if shift - previous < apart:
                    shift = previous + apart
                if shift - previous > ortol:
                    first = j
            np.multiply(tri, shift, out=P)
            np.subtract(K, P, out=P)
            tol[0] = 0.0
            dlagtf(n, diag_at, zero, super_at, sub_at, tol_at, d2_at, pivots, info_at)
            size = dim * (k_norm + abs(shift) * m_norm) * max(_EPS, abs(P[0, -1]))
            b, b_at = x0, x0_at
            np.multiply(start, size, out=b)
            grown = 0
            for _ in range(_STEPS):
                dlagts(job, n, diag_at, super_at, sub_at, d2_at, pivots, b_at, tol_at, info_at)
                for i in range(first, j):
                    b -= (b @ Mz_cols[i]) * z_cols[i]
                x, x_at = b, b_at
                b, b_at = (x1, x1_at) if x is x0 else (x0, x0_at)
                if grown or np.abs(x).max() >= grown_norm:
                    grown += 1
                    if grown > _EXTRA_STEPS:
                        break
                dlagtm(trans, n, nrhs, one, m_off, m_diag, m_off, x_at, n, zero, b_at, n)
                b *= size / np.abs(b).max()
            else:
                raise SolverError(
                    "banded eigensolver failed: inverse iteration did not converge "
                    f"for eigenvalue {j + 1}"
                )
            Mx, Mx_at = Mz_cols[j], Mz_at + j * x.nbytes
            dlagtm(trans, n, nrhs, one, m_off, m_diag, m_off, x_at, n, zero, Mx_at, n)
            scale = 1.0 / math.sqrt(x @ Mx)
            np.multiply(x, scale, out=z_cols[j])
            Mx *= scale
            previous = shift

    def _eigh(self, c: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest eigenvalues and orthonormal eigenvectors of the
        reduced matrix with the weights c of the stacked terms, ``at(y)``.

        The matrix is one product into the calling thread's workspace, which
        ``dsyevr`` then overwrites; it is exactly symmetric, as every term is.
        """
        addresses, sizes, _ = self._syevr
        jobz, range_, uplo, n, zero, vu, il, lwork, liwork = addresses
        (w, _, A, _, _), (iu, _, info), ws = self._workspace("dsyevr", sizes)
        w_at, work, A_at, iwork, isuppz, iu_at, m, info_at = ws
        iu.value = k
        np.dot(c, self.terms.reshape(len(c), -1), out=A.reshape(-1))
        z = np.empty((self.family.dim, k), order="F")
        _lapack("dsyevr", 21)(
            jobz, range_, uplo, n, A_at, n, zero, vu, il, iu_at, zero, m, w_at,
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
