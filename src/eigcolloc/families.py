"""Affine parametric operator families and the built-in model problems.

A family holds a symmetric positive definite reference matrix ``B0``, a list of
symmetric perturbation matrices, the mass matrix defining the discrete inner
product, and the claimed decay bounds of the perturbations relative to ``B0``.
Assembly at a parameter point is the plain affine sum ``B0 + sum(y_m * B_m)``.
"""
from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DecayViolationError,
    FamilyValidationError,
    ParameterDimensionError,
)

_SYMMETRY_RTOL = 1e-12
DECAY_TOLERANCE = 1e-8  # slack of a measured decay bound over the claimed one


def _check_symmetric(A: np.ndarray, name: str) -> None:
    scale = np.abs(A).max()
    # a NaN would pass both the comparison below and the Cholesky check
    if not np.isfinite(scale):
        raise FamilyValidationError(f"{name} has a non-finite entry")
    if np.abs(A - A.T).max() > _SYMMETRY_RTOL * (scale or 1.0):
        raise FamilyValidationError(f"{name} is not symmetric")


def _check_dim(dim) -> None:
    # integers only: int() would truncate 2.5 and take true for 1
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise FamilyValidationError(f"dim must be a positive integer, got {dim!r}")


def _check_spd(A: np.ndarray, name: str) -> None:
    _check_symmetric(A, name)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise FamilyValidationError(f"{name} is not positive definite") from None


@dataclass(frozen=True)
class DecaySequence:
    """Claimed relative bounds kappa_m of the perturbation terms.

    All entries must be positive and sum below one; ``p_exponent`` in (0, 1]
    is the summability exponent used to derive anisotropy weights.
    """

    kappa: tuple[float, ...]
    p_exponent: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kappa", tuple(float(k) for k in self.kappa))
        if not all(k > 0.0 for k in self.kappa):  # NaN is not positive
            raise FamilyValidationError("decay entries must be positive")
        if not 0.0 < self.p_exponent <= 1.0:
            raise FamilyValidationError("p_exponent must lie in (0, 1]")
        if self.total >= 1.0:
            raise DecayViolationError(
                f"sum of decay bounds is {self.total:.6g}, must be < 1"
            )

    @property
    def total(self) -> float:
        """l1 norm of the decay sequence."""
        return float(sum(self.kappa))

    def lp_norm(self) -> float:
        """Quasi-norm (sum kappa_m^p)^(1/p) with the stored exponent p."""
        p = self.p_exponent
        if not self.kappa:
            return 0.0
        return float(sum(k**p for k in self.kappa) ** (1.0 / p))

    def __len__(self) -> int:
        return len(self.kappa)


@dataclass(frozen=True)
class AffineOperatorFamily:
    """Finite-dimensional affine operator family with its discrete inner product.

    The V-norm is the B0-energy norm, so the coercivity constant is 1.
    Instances are immutable and safe to share across threads.
    """

    dim: int
    B0: np.ndarray
    B_terms: tuple[np.ndarray, ...]
    mass: np.ndarray
    kappa: DecaySequence

    def __post_init__(self):
        _check_dim(self.dim)
        n = int(self.dim)
        object.__setattr__(self, "dim", n)
        B0 = np.ascontiguousarray(self.B0, dtype=float)
        mass = np.ascontiguousarray(self.mass, dtype=float)
        terms = tuple(np.ascontiguousarray(B, dtype=float) for B in self.B_terms)
        object.__setattr__(self, "B0", B0)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "B_terms", terms)
        if B0.shape != (n, n) or mass.shape != (n, n):
            raise FamilyValidationError("B0/mass shape does not match dim")
        for i, B in enumerate(terms):
            if B.shape != (n, n):
                raise FamilyValidationError(f"term {i} shape does not match dim")
            _check_symmetric(B, f"term {i}")
        _check_spd(B0, "B0")
        _check_spd(mass, "mass")
        if len(terms) != len(self.kappa):
            raise FamilyValidationError(
                f"{len(terms)} terms but {len(self.kappa)} decay bounds"
            )

    @property
    def n_terms(self) -> int:
        return len(self.B_terms)


def synthetic_family(B0, B_terms, mass, kappa: DecaySequence) -> AffineOperatorFamily:
    """Wrap user matrices into a validated family (inputs stored unchanged)."""
    B0 = np.asarray(B0, dtype=float)
    return AffineOperatorFamily(
        dim=B0.shape[0],
        B0=B0,
        B_terms=tuple(np.asarray(B, dtype=float) for B in B_terms),
        mass=np.asarray(mass, dtype=float),
        kappa=kappa,
    )


def assemble_at(family: AffineOperatorFamily, y) -> np.ndarray:
    """Assemble B0 + sum_m y_m B_m at a parameter point.

    ``y`` may be shorter than the number of terms; missing trailing components
    are treated as zero, and zero terms are skipped.  Longer than the family
    raises :class:`ParameterDimensionError`.
    """
    y = _parameter_point(y, family.n_terms)
    out = family.B0.copy()
    term = None  # one buffer for every y_m B_m
    for ym, B in zip(y, family.B_terms):
        if ym != 0.0:
            if term is None:
                term = np.empty_like(out)
            out += np.multiply(ym, B, out=term)
    return out


def _parameter_point(y, n_terms: int) -> np.ndarray:
    """y as a float vector of at most ``n_terms`` components.

    Raises :class:`ParameterDimensionError` for any other shape.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim != 1:
        raise ParameterDimensionError("parameter point must be one-dimensional")
    if len(y) > n_terms:
        raise ParameterDimensionError(
            f"parameter point has {len(y)} components, family has {n_terms} terms"
        )
    return y


# ---------------------------------------------------------------------------
# Decay verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Claimed versus measured relative operator norms of the terms."""

    claimed: tuple[float, ...]
    measured: tuple[float, ...]
    tolerance: float

    @property
    def violations(self) -> tuple[int, ...]:
        """Term indices (0-based) where measured exceeds claimed + tolerance."""
        return tuple(
            i
            for i, (c, m) in enumerate(zip(self.claimed, self.measured))
            if m > c + self.tolerance
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "claimed": list(self.claimed),
            "measured": list(self.measured),
            "tolerance": self.tolerance,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def verify_decay(family: AffineOperatorFamily) -> DecayReport:
    """Measure each term's B0-relative norm and compare against the claimed bound.

    The measured value is the largest |lambda| of the pencil (B_m, B0), i.e. the
    operator norm of B_m in the energy inner product.
    """
    measured = []
    for B in family.B_terms:
        if not np.any(B):
            measured.append(0.0)
            continue
        vals = scipy.linalg.eigvalsh(B, family.B0)
        measured.append(float(np.abs(vals).max()))
    return DecayReport(
        claimed=family.kappa.kappa, measured=tuple(measured), tolerance=DECAY_TOLERANCE
    )


# ---------------------------------------------------------------------------
# 1D diffusion model problem (piecewise linear elements, Dirichlet)
# ---------------------------------------------------------------------------

def _cos_moments(k: int, a: float, b: float) -> tuple[float, float, float]:
    """Exact moments (int w, int x w, int x^2 w) of w(x)=cos(k*pi*x) on [a, b]."""
    if k == 0:
        return b - a, (b * b - a * a) / 2.0, (b**3 - a**3) / 3.0
    c = k * math.pi
    sa, ca = math.sin(c * a), math.cos(c * a)
    sb, cb = math.sin(c * b), math.cos(c * b)
    m0 = (sb - sa) / c
    m1 = (cb / c**2 + b * sb / c) - (ca / c**2 + a * sa / c)
    m2 = (2 * b * cb / c**2 + (b * b / c - 2 / c**3) * sb) - (
        2 * a * ca / c**2 + (a * a / c - 2 / c**3) * sa
    )
    return m0, m1, m2


def _weighted_matrices_1d(n_elements: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Interior stiffness and mass matrices on (0,1) with weight cos(k*pi*x).

    Integrals are exact (closed-form antiderivatives), so the assembled bilinear
    forms match the continuous ones restricted to the FE space to roundoff.
    """
    n = n_elements - 1
    h = 1.0 / n_elements
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for e in range(n_elements):
        a, b = e * h, (e + 1) * h
        m0, m1, m2 = _cos_moments(k, a, b)
        s = m0 / h**2
        m00 = (m2 - 2 * b * m1 + b * b * m0) / h**2
        m01 = (-m2 + (a + b) * m1 - a * b * m0) / h**2
        m11 = (m2 - 2 * a * m1 + a * a * m0) / h**2
        # local dofs are mesh nodes e and e+1; interior numbering is node-1
        for (li, gi) in ((0, e - 1), (1, e)):
            if not 0 <= gi < n:
                continue
            for (lj, gj) in ((0, e - 1), (1, e)):
                if not 0 <= gj < n:
                    continue
                sign = 1.0 if li == lj else -1.0
                K[gi, gj] += sign * s
                M[gi, gj] += (m00, m01, m11)[li + lj]
    return K, M


def dirichlet_laplace_eigenvalue_1d(k: int, n_elements: int) -> float:
    """Closed-form k-th discrete eigenvalue of the P1 Dirichlet Laplacian on (0,1)."""
    h = 1.0 / n_elements
    c = math.cos(k * math.pi * h)
    return (6.0 / h**2) * (1.0 - c) / (2.0 + c)


def model_diffusion_1d(
    n_elements: int,
    decay_scale: float,
    decay_rate: float = 2.0,
    n_terms: int = 0,
    p_exponent: float = 1.0,
) -> AffineOperatorFamily:
    """Stochastic diffusion family on (0,1) with cosine coefficient series.

    The base coefficient is 1; term m has coefficient
    ``decay_scale * m**(-decay_rate) * cos(m*pi*x)``, so the claimed decay bound
    is exactly ``decay_scale * m**(-decay_rate)``.  ``decay_scale = 0`` yields
    the unperturbed family with no terms.

    Raises :class:`DecayViolationError` if the claimed bounds sum to >= 1.
    """
    if n_elements < 2:
        raise FamilyValidationError("need at least 2 elements")
    if decay_scale < 0:
        raise FamilyValidationError("decay_scale must be nonnegative")
    M = 0 if decay_scale == 0.0 else int(n_terms)
    kappa = DecaySequence(
        tuple(decay_scale * (m**-decay_rate) for m in range(1, M + 1)), p_exponent
    )
    B0, mass = _weighted_matrices_1d(n_elements, 0)
    terms = []
    for m in range(1, M + 1):
        Km, _ = _weighted_matrices_1d(n_elements, m)
        terms.append(kappa.kappa[m - 1] * Km)
    return AffineOperatorFamily(
        dim=n_elements - 1,
        B0=B0,
        B_terms=tuple(terms),
        mass=mass,
        kappa=kappa,
    )


# ---------------------------------------------------------------------------
# 2D diffusion model on the unit square (tensorized bilinear elements)
# ---------------------------------------------------------------------------

def wavenumber_pairs(count: int):
    """First ``count`` pairs (k1, k2) of the diagonal enumeration of N^2.

    Ordering: by k1+k2 ascending, then k1 ascending.
    """
    pairs = []
    s = 2
    while len(pairs) < count:
        for k1 in range(1, s):
            pairs.append((k1, s - k1))
            if len(pairs) == count:
                break
        s += 1
    return pairs


def model_diffusion_2d(
    n_per_side: int,
    decay_scale: float,
    decay_rate: float = 2.0,
    n_terms: int = 0,
    p_exponent: float = 1.0,
) -> AffineOperatorFamily:
    """Diffusion family on the unit square with separable cosine coefficients.

    Term m uses ``decay_scale * m**(-decay_rate) * cos(k1*pi*x1) * cos(k2*pi*x2)``
    with (k1, k2) from the diagonal enumeration of wavenumber pairs.  Matrices
    are tensor products of exactly integrated 1D pieces, Dirichlet boundary.
    """
    if n_per_side < 2:
        raise FamilyValidationError("need at least 2 elements per side")
    if decay_scale < 0:
        raise FamilyValidationError("decay_scale must be nonnegative")
    M = 0 if decay_scale == 0.0 else int(n_terms)
    kappa = DecaySequence(
        tuple(decay_scale * (m**-decay_rate) for m in range(1, M + 1)), p_exponent
    )
    K1, M1 = _weighted_matrices_1d(n_per_side, 0)
    B0 = np.kron(K1, M1) + np.kron(M1, K1)
    mass = np.kron(M1, M1)
    terms = []
    for m, (k1, k2) in enumerate(wavenumber_pairs(M), start=1):
        Kw1, Mw1 = _weighted_matrices_1d(n_per_side, k1)
        Kw2, Mw2 = _weighted_matrices_1d(n_per_side, k2)
        Bm = np.kron(Kw1, Mw2) + np.kron(Mw1, Kw2)
        Bm *= kappa.kappa[m - 1]
        # in place: -0.0 + 0.0 is +0.0 and x + 0.0 is x for every other x, so
        # the zeros of the Kronecker products are not stored as -0.0
        Bm += 0.0
        terms.append(Bm)
    n = (n_per_side - 1) ** 2
    return AffineOperatorFamily(
        dim=n,
        B0=B0,
        B_terms=tuple(terms),
        mass=mass,
        kappa=kappa,
    )


# ---------------------------------------------------------------------------
# Designed crossing family for the interpolation contrast demo
# ---------------------------------------------------------------------------

def designed_crossing_family() -> AffineOperatorFamily:
    """4x4 family whose middle eigenvalue pair crosses exactly at y = 0.

    B0 = diag(1, 2, 2, 4) is degenerate on indices {2, 3}; the single term adds
    an in-block drift+coupling [[0.3, 0.3], [0.3, -0.3]] there plus a 0.1
    coupling of index 3 to the exterior index 4.  The sorted middle eigenvalues
    behave like 2 +- 0.3*sqrt(2)*|y| (an exact crossing with a sorted-eigenvector
    jump at 0) while the cluster subspace itself varies analytically.
    """
    B0 = np.diag([1.0, 2.0, 2.0, 4.0])
    B1 = np.zeros((4, 4))
    B1[1, 1] = 0.3
    B1[1, 2] = B1[2, 1] = 0.3
    B1[2, 2] = -0.3
    B1[2, 3] = B1[3, 2] = 0.1
    return synthetic_family(B0, [B1], np.eye(4), DecaySequence((0.25,)))


# ---------------------------------------------------------------------------
# JSON matrix-family format
# ---------------------------------------------------------------------------

_PACKED_KEYS = {"dtype", "shape", "base64"}


def _pack_floats(a) -> dict:
    """A float array as JSON: its little-endian float64 bytes, base64-encoded,
    with the shape; every bit pattern survives the round trip."""
    a = np.asarray(a, dtype="<f8")
    return {
        "dtype": "<f8",
        "shape": list(a.shape),
        # tobytes is in C order whatever the layout of a
        "base64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _unpack_floats(value, name: str) -> np.ndarray:
    """The float64 array of a :func:`_pack_floats` object or, as files before
    format version 4 store it, of a (nested) list of numbers.

    The result is a fresh writable, aligned, C-contiguous array.  A malformed
    value is a ``FamilyValidationError`` that names ``name``.
    """
    if not isinstance(value, dict):
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):  # ragged nesting, non-numbers
            raise FamilyValidationError(f"{name} must be a list of numbers") from None
    if set(value) != _PACKED_KEYS:
        raise FamilyValidationError(f"{name} needs exactly the keys dtype, shape, base64")
    if value["dtype"] != "<f8":
        raise FamilyValidationError(f"{name} has dtype {value['dtype']!r}, expected '<f8'")
    shape = value["shape"]
    # exact ints only: True == 1 in Python
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise FamilyValidationError(
            f"{name} has shape {shape!r}, not a list of nonnegative integers"
        )
    if not isinstance(value["base64"], str):
        raise FamilyValidationError(f"{name} has a base64 payload that is not a string")
    try:
        raw = base64.b64decode(value["base64"], validate=True)
    except (binascii.Error, ValueError):  # a non-ASCII string is a ValueError
        raise FamilyValidationError(
            f"{name} has a base64 payload that is not valid base64"
        ) from None
    if len(raw) != 8 * math.prod(shape):
        raise FamilyValidationError(
            f"{name} has {len(raw)} bytes, but float64 shape {tuple(shape)} needs "
            f"{8 * math.prod(shape)}"
        )
    # astype copies into native byte order
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def _matrix_to_csr(B: np.ndarray) -> dict:
    """CSR triplets of the entries that are nonzero or negative zero.

    Rows are stored in order with columns ascending; ``data`` is packed
    (``_pack_floats``), and keeping ``-0.0`` makes the round trip bit-exact.
    """
    keep = (B != 0.0) | np.signbit(B)
    indptr = np.zeros(B.shape[0] + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return {
        "indptr": indptr.tolist(),
        "indices": np.nonzero(keep)[1].tolist(),
        "data": _pack_floats(B[keep]),
    }


def _index_array(values, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise FamilyValidationError(f"{what} must be a list of integers")
    return arr.astype(np.int64)


def _matrix_from_doc(obj, dim: int, name: str) -> np.ndarray:
    """Dense matrix from a CSR object (version 2 on) or nested lists (version 1).

    CSR ``data`` is packed (version 4) or a list of numbers (versions 2 and
    3).  The CSR structure is checked in full before the dim x dim array
    exists.
    """
    if not isinstance(obj, dict):
        try:
            return np.asarray(obj, dtype=float)
        except (TypeError, ValueError) as exc:
            raise FamilyValidationError(f"{name}: malformed dense matrix: {exc}") from None
    if set(obj) != {"indptr", "indices", "data"}:
        raise FamilyValidationError(
            f"{name}: CSR matrix needs exactly the keys indptr, indices, data"
        )
    indptr = _index_array(obj["indptr"], f"{name}: indptr")
    indices = _index_array(obj["indices"], f"{name}: indices")
    data = _unpack_floats(obj["data"], f"{name}: data")
    if data.ndim != 1:
        raise FamilyValidationError(f"{name}: data must be one-dimensional")
    if len(indptr) != dim + 1:
        raise FamilyValidationError(
            f"{name}: indptr has length {len(indptr)}, expected dim + 1 = {dim + 1}"
        )
    # compared, not differenced: a difference of int64 entries can wrap
    if indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
        raise FamilyValidationError(f"{name}: indptr must start at 0 and not decrease")
    if not indptr[-1] == len(indices) == len(data):
        raise FamilyValidationError(
            f"{name}: indptr ends at {indptr[-1]} but there are {len(indices)} "
            f"indices and {len(data)} values"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= dim):
        raise FamilyValidationError(f"{name}: column index outside [0, {dim})")
    rows = np.repeat(np.arange(dim), np.diff(indptr))
    if np.any((rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1])):
        raise FamilyValidationError(
            f"{name}: columns must be strictly ascending within each row"
        )
    out = np.zeros((dim, dim))
    out[rows, indices] = data
    return out


def family_to_dict(family: AffineOperatorFamily) -> dict:
    """JSON-ready representation; every matrix as CSR triplets with packed
    ``data``, ``dim`` its shape."""
    return {
        "dim": family.dim,
        "mass": _matrix_to_csr(family.mass),
        "B0": _matrix_to_csr(family.B0),
        "terms": [_matrix_to_csr(B) for B in family.B_terms],
        "kappa": list(family.kappa.kappa),
        "p": family.kappa.p_exponent,
    }


def family_from_dict(doc: dict) -> AffineOperatorFamily:
    """Inverse of :func:`family_to_dict`; 'p' defaults to 1.0.

    Each matrix may be a CSR object or, as version-1 documents wrote it, a
    dense nested list; both give the same array.  An 'alpha0' key, which
    older documents hold, is ignored.
    """
    try:
        dim = doc["dim"]
        raw_terms = list(doc.get("terms", []))
        kappa = tuple(float(k) for k in doc.get("kappa", []))
        mass, B0 = doc["mass"], doc["B0"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FamilyValidationError(f"malformed family document: {exc}") from exc
    _check_dim(dim)
    return AffineOperatorFamily(
        dim=dim,
        B0=_matrix_from_doc(B0, dim, "B0"),
        B_terms=tuple(
            _matrix_from_doc(t, dim, f"terms[{i}]") for i, t in enumerate(raw_terms)
        ),
        mass=_matrix_from_doc(mass, dim, "mass"),
        kappa=DecaySequence(kappa, float(doc.get("p", 1.0))),
    )


def save_family(family: AffineOperatorFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # json.dump encodes in pure Python
        fh.write(json.dumps(family_to_dict(family), separators=(",", ":")))


def load_family(path) -> AffineOperatorFamily:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_dict(json.load(fh))


def _family_digest(doc: dict) -> str:
    """SHA-256 of a ``family_to_dict`` document in canonical JSON."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def family_hash(family: AffineOperatorFamily) -> str:
    """Stable content hash used to match persisted collocation artifacts."""
    return _family_digest(family_to_dict(family))
