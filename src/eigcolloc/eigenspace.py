"""Isolation diagnostics and the canonical basis of a spectral cluster.

The cluster subspace at a parameter point is represented through the discrete
H-orthogonal spectral projector P = sum_{j in J} u_j u_j' M.  Projecting the
reference eigenvectors from y = 0 onto the cluster subspace at y gives a basis
that stays smooth in y even when eigenvalues inside the cluster cross.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .eigensolver import ReducedFamily, SpectralDecomposition
from .errors import (
    ClusterCoverageError,
    ConfigError,
    DecayViolationError,
    DegenerateBasisError,
    FamilyValidationError,
    IsolationPreconditionError,
    SolverError,
)
from .families import AffineOperatorFamily

GRAM_SIGMA_THRESHOLD = 1e-8


@dataclass(frozen=True)
class ClusterSelection:
    """Sorted distinct 1-based eigenvalue indices defining the cluster."""

    J: tuple[int, ...]

    def __post_init__(self):
        # integers only: int() would truncate 1.5 and take true for 1
        if any(isinstance(j, bool) or not isinstance(j, numbers.Integral) for j in self.J):
            raise FamilyValidationError(f"cluster indices must be integers, got {self.J!r}")
        J = tuple(int(j) for j in self.J)
        object.__setattr__(self, "J", J)
        if not J:
            raise FamilyValidationError("cluster must contain at least one index")
        if any(j < 1 for j in J):
            raise FamilyValidationError("cluster indices are 1-based positive integers")
        if list(J) != sorted(set(J)):
            raise FamilyValidationError("cluster indices must be distinct and ascending")

    @property
    def S(self) -> int:
        return len(self.J)

    @property
    def lo(self) -> int:
        return self.J[0]

    @property
    def hi(self) -> int:
        return self.J[-1]


def _as_cluster(J) -> ClusterSelection:
    return J if isinstance(J, ClusterSelection) else ClusterSelection(tuple(J))


def _check_sampling(count, seed, name: str) -> None:
    """A Monte Carlo sample count is an integer >= 1, a seed an integer >= 0."""
    if not (isinstance(count, numbers.Integral) and count >= 1):
        raise ConfigError(f"{name} must be at least 1 and an integer, got {count!r}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ConfigError(f"seed must be at least 0 and an integer, got {seed!r}")


def _box_samples(count, seed, n_terms: int, name: str) -> np.ndarray:
    """The checked Monte Carlo stream: ``count`` uniform points of [-1, 1]^n_terms.

    One (count, n_terms) draw from ``seed`` is the stream of per-sample draws.
    """
    _check_sampling(count, seed, name)
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, n_terms))


def exterior_gap(values, J):
    """Distance from the cluster to the nearest eigenvalue outside it.

    ``values`` are the ascending eigenvalues 1..k with k >= max(J), or one
    such row per point.  The gap is min(lower-neighbour gap, upper-neighbour
    gap), a float for one row and an array for several.  A neighbour that
    does not exist (the cluster starts at eigenvalue 1) or is not among the k
    values given counts as +inf.
    """
    cluster = _as_cluster(J)
    values = np.asarray(values, dtype=float)
    lo_gap = math.inf
    if cluster.lo >= 2:
        lo_gap = values[..., cluster.lo - 1] - values[..., cluster.lo - 2]
    hi_gap = math.inf
    if cluster.hi < values.shape[-1]:
        hi_gap = values[..., cluster.hi] - values[..., cluster.hi - 1]
    gap = np.minimum(lo_gap, hi_gap)
    return float(gap) if gap.ndim == 0 else gap


def weyl_envelope(values_at_origin, kappa_sum: float):
    """Per-eigenvalue enclosure [(1-k)mu_i(0), (1+k)mu_i(0)], k = sum of decay bounds.

    Valid for every parameter point in the box; requires kappa_sum < 1.
    """
    if not 0.0 <= kappa_sum:
        raise DecayViolationError("kappa_sum must be nonnegative")
    if kappa_sum >= 1.0:
        raise DecayViolationError(
            f"kappa_sum={kappa_sum:.6g} >= 1: envelopes are vacuous"
        )
    vals = [float(v) for v in values_at_origin]
    if any(v <= 0 for v in vals):
        raise FamilyValidationError("origin eigenvalues must be positive")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise FamilyValidationError("origin eigenvalues must be ascending")
    return [((1.0 - kappa_sum) * v, (1.0 + kappa_sum) * v) for v in vals]


def isolation_parameter(delta0: float, kappa_sum: float) -> float:
    """Guaranteed isolation level of the cluster over the whole box.

    ``delta0`` is the relative spectral gap at the origin.  The bound is only
    meaningful when delta0 > 2*kappa_sum/(1-kappa_sum); otherwise the cluster
    cannot be certified and :class:`IsolationPreconditionError` is raised.
    """
    if not 0.0 <= kappa_sum < 1.0:
        raise DecayViolationError("kappa_sum must lie in [0, 1)")
    # compared so that a NaN delta0 fails: it certifies nothing
    if kappa_sum == 0.0:
        if not delta0 > 0.0:
            raise IsolationPreconditionError("relative gap delta0 must be positive")
        return float(delta0)
    threshold = 2.0 / (1.0 / kappa_sum - 1.0)
    if not delta0 > threshold:
        raise IsolationPreconditionError(
            f"delta0={delta0:.6g} must exceed {threshold:.6g} for kappa_sum={kappa_sum:.6g}"
        )
    if delta0 == math.inf:  # the formula would give inf - inf = nan
        return math.inf
    return (delta0 - (delta0 + 2.0) * kappa_sum) / (1.0 + kappa_sum)


@dataclass(frozen=True)
class IsolationReport:
    """Sampled relative spectral gaps of a cluster over the parameter box."""

    delta_observed: float
    samples: tuple  # (y tuple, gap, max cluster eigenvalue) per sample
    isolated: bool
    delta_requested: float
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        def num(x):
            return x if math.isfinite(x) else None

        return {
            "delta_observed": num(self.delta_observed),
            "delta_requested": self.delta_requested,
            "isolated": self.isolated,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "samples": [
                {"y": list(y), "gap": num(g), "max_cluster_value": mx}
                for (y, g, mx) in self.samples
            ],
        }


def check_isolation(
    family: AffineOperatorFamily,
    J,
    delta: float,
    n_samples: int = 200,
    seed: int = 0,
) -> IsolationReport:
    """Monte Carlo check that the cluster stays separated from the rest.

    Draws uniform samples from the parameter box, solves the eigenproblem at
    each, and records gap = min(lower-neighbor gap, upper-neighbor gap); a
    missing neighbor (cluster at the spectrum edge) counts as +inf.  Reports
    the minimum of gap / max(sigma_J) over the samples.
    """
    Y = _box_samples(n_samples, seed, family.n_terms, "n_samples")
    cluster = _as_cluster(J)
    n = family.dim
    k = min(cluster.hi + 1, n)
    if cluster.hi > n:
        raise ClusterCoverageError(
            f"cluster index {cluster.hi} exceeds dimension {n}"
        )
    solver = ReducedFamily(family, carry=False)
    samples = []
    worst = math.inf
    for start, decomps in solver.solve_many(Y, k):
        for y, decomp in zip(Y[start:], decomps):
            if isinstance(decomp, SolverError):
                raise decomp
            vals = decomp.values
            gap = exterior_gap(vals, cluster)
            mx = float(vals[cluster.hi - 1])
            worst = min(worst, gap / mx)
            samples.append((tuple(y), gap, mx))
    return IsolationReport(
        delta_observed=worst,
        samples=tuple(samples),
        isolated=bool(worst >= delta),
        delta_requested=float(delta),
        n_samples=int(n_samples),
        seed=int(seed),
    )


def spectral_projector_apply(
    decomp: SpectralDecomposition, J, M: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Apply the M-orthogonal projector onto span{u_j : j in J} to v."""
    cluster = _as_cluster(J)
    if cluster.hi > decomp.k:
        raise ClusterCoverageError(
            f"cluster index {cluster.hi} not present in a {decomp.k}-pair decomposition"
        )
    U = decomp.vectors[:, [j - 1 for j in cluster.J]]
    return U @ (U.T @ (M @ v))


@dataclass(frozen=True)
class EigenspaceBasis:
    """Cluster-subspace basis at one parameter point.

    ``vectors`` columns are the projected reference vectors; ``gram_sigma_min``
    is the smallest singular value of the reference/cluster Gram matrix, the
    conditioning certificate for calling these columns a basis.
    """

    vectors: np.ndarray
    gram_sigma_min: float

    @property
    def S(self) -> int:
        return self.vectors.shape[1]


def canonical_basis(
    decomp_at_y: SpectralDecomposition,
    ref_vectors: np.ndarray,
    J,
    M: np.ndarray,
) -> EigenspaceBasis:
    """Project the reference cluster vectors onto the cluster subspace at y.

    Column i is P_J(y) applied to reference column i; equivalently U_y G' where
    G[i, j] = ref_i' M u_{J(j)}(y).  The output depends only on the subspace
    spanned by the cluster eigenvectors, not on their individual choice, which
    is what makes interpolating these columns across parameter space viable.
    It is ``_project_clusters`` of the one point.

    Raises
    ------
    DegenerateBasisError
        If the Gram matrix's smallest singular value falls below
        ``GRAM_SIGMA_THRESHOLD``, i.e. the subspace at y has turned too far
        from the reference one.
    """
    cluster = _as_cluster(J)
    if cluster.hi > decomp_at_y.k:
        raise ClusterCoverageError(
            f"cluster index {cluster.hi} not present in a {decomp_at_y.k}-pair decomposition"
        )
    ref = np.asarray(ref_vectors, dtype=float)
    if ref.shape[1] != cluster.S:
        raise FamilyValidationError("reference block must have one column per cluster index")
    U = decomp_at_y.vectors[:, [j - 1 for j in cluster.J]]
    projected, sigma = _project_clusters(U[None], ref, M)
    if sigma[0] < GRAM_SIGMA_THRESHOLD:
        raise DegenerateBasisError(float(sigma[0]))
    return EigenspaceBasis(vectors=projected[0], gram_sigma_min=float(sigma[0]))


def _project_clusters(U: np.ndarray, ref_vectors: np.ndarray, M: np.ndarray):
    """Canonical bases and Gram sigmas of a stack of cluster blocks.

    ``U`` holds one n x S block of cluster eigenvectors per point (P x n x S).
    With the Gram matrices G_p = ref' M U_p, returns the projected blocks
    U_p G_p' (P x n x S) and the smallest singular value of each G_p (P,),
    unchecked.  Every point is a product and an SVD of its own, so a point
    gets the same bits alone as in any stack.
    """
    G = np.matmul((M @ ref_vectors).T, U)
    sigma = np.linalg.svd(G, compute_uv=False)[:, -1]
    return np.matmul(U, G.transpose(0, 2, 1)), sigma


def principal_angles(X: np.ndarray, Y: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Canonical angles between span(X) and span(Y) in the M inner product.

    Returns min(#columns of X, #columns of Y) angles ascending, in radians.
    Both blocks are mapped through the Cholesky factor of M and given
    orthonormal bases of their numerical spans (``scipy.linalg.orth``'s rank
    rule); each direction a rank-deficient block lacks counts as an angle of
    pi/2.  Small angles are read from the sine-based residual and large ones
    from the cosine singular values, so tiny angles are not flattened by
    arccos roundoff near 1.
    """
    LT = np.linalg.cholesky(np.asarray(M, dtype=float)).T
    return _euclidean_angles(LT @ np.asarray(X, dtype=float), LT @ np.asarray(Y, dtype=float))


def _euclidean_angles(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``principal_angles`` of blocks already mapped through L' (M = L L')."""
    QX = scipy.linalg.orth(X)
    QY = scipy.linalg.orth(Y)
    C = QX.T @ QY
    # svd order is descending: cosines descending and sines ascending both
    # enumerate the angles ascending, index by index
    cosines = np.clip(np.linalg.svd(C, compute_uv=False), -1.0, 1.0)
    sines = np.clip(np.linalg.svd(QY - QX @ C, compute_uv=False), -1.0, 1.0)
    sines = np.sort(sines)[: len(cosines)]
    angles = np.where(
        sines < math.sqrt(0.5), np.arcsin(sines), np.arccos(cosines)
    )
    missing = min(X.shape[1], Y.shape[1]) - len(angles)
    return np.sort(np.concatenate([angles, np.full(missing, math.pi / 2.0)]))
