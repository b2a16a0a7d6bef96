"""Sparse collocation of the cluster basis over the parameter box.

``collocate`` solves the generalized eigenproblem at every grid point of a
multi-index set, stores the canonical (projector-based) basis per point, and
``evaluate`` combines the stored bases into the sparse interpolant at arbitrary
parameter points.  Interpolating raw sorted eigenvectors instead is supported
as a deliberately fragile alternative for demonstration purposes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import ReducedFamily, m_orthonormalize, solve_gevp
from .eigenspace import (
    GRAM_SIGMA_THRESHOLD,
    ClusterSelection,
    EigenspaceBasis,
    _as_cluster,
    canonical_basis,
    exterior_gap,
)
from .errors import (
    ClusterCoverageError,
    ClusterCrossingError,
    ConfigError,
    DegenerateBasisError,
    FamilyValidationError,
    SolverError,
)
from .families import (
    AffineOperatorFamily,
    family_from_dict,
    family_hash,
    family_to_dict,
    _family_digest,
)
from .sparse_grid import (
    CombinationOperator,
    CombinationTerm,
    MultiIndexSet,
    combination_terms,
    grid_points,
)

TARGETS = ("canonical", "raw")


@dataclass(frozen=True)
class PointSolution:
    """Stored solve at one grid point: basis columns plus cluster eigenvalues."""

    basis: EigenspaceBasis
    cluster_values: np.ndarray


@dataclass(frozen=True)
class CollocatedEigenbasis:
    """All point solves of one collocation run, ready for evaluation.

    Immutable after construction; ``evaluate`` is pure, so instances may be
    shared freely across threads.  Construction stacks the stored bases and
    cluster values in sorted-point order and builds the combination operator
    over them once, so that every evaluation is one weight table and one
    matrix product.
    """

    family: AffineOperatorFamily
    cluster: ClusterSelection
    A: MultiIndexSet
    terms: tuple[CombinationTerm, ...]
    point_data: dict
    ref_vectors: np.ndarray
    ref_values: np.ndarray
    target: str
    diagnostics: dict
    _operator: CombinationOperator = field(init=False, repr=False, compare=False)
    _vectors: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ConfigError(f"unknown interpolation target {self.target!r}")
        points = grid_points(self.A)
        if set(self.point_data) != set(points):
            raise FamilyValidationError(
                "stored point data does not cover the collocation grid"
            )
        vectors = np.empty((len(points), self.family.dim * self.S))
        values = np.empty((len(points), self.S))
        for i, pt in enumerate(points):
            vectors[i] = self.point_data[pt].basis.vectors.ravel()
            values[i] = self.point_data[pt].cluster_values
        op = CombinationOperator(self.terms, self.A.M_active, points)
        object.__setattr__(self, "_operator", op)
        object.__setattr__(self, "_vectors", vectors)
        object.__setattr__(self, "_values", values)

    @property
    def S(self) -> int:
        return self.cluster.S


def _solve_point(family, reduced, cluster, y, ref_vectors, target, sigma_threshold):
    try:
        decomp = reduced.lift(solve_gevp(reduced.at(y), None, k=cluster.hi + 1))
    except SolverError as exc:
        raise SolverError(f"{exc} at point {tuple(y)}") from exc
    vals = decomp.values
    ext_gap = exterior_gap(vals, cluster)
    mx = float(vals[cluster.hi - 1])
    if ext_gap <= 0.0:
        raise ClusterCrossingError(
            f"cluster touches exterior spectrum at point {tuple(y)}"
        )
    cluster_values = np.array([vals[j - 1] for j in cluster.J])
    if target == "canonical":
        try:
            basis = canonical_basis(
                decomp, ref_vectors, cluster, family.mass, sigma_threshold
            )
        except DegenerateBasisError as exc:
            raise DegenerateBasisError(exc.sigma_min, point=tuple(y)) from None
    else:
        # raw sorted eigenvectors; keep the Gram singular value as a diagnostic
        U = decomp.vectors[:, [j - 1 for j in cluster.J]]
        G = ref_vectors.T @ (family.mass @ U)
        sigma_min = float(np.linalg.svd(G, compute_uv=False)[-1])
        basis = EigenspaceBasis(vectors=U, gram_sigma_min=sigma_min)
    return PointSolution(basis=basis, cluster_values=cluster_values), ext_gap / mx


class _SolveCache:
    """Solves carried across the budgets of one sweep over one family and cluster.

    The index sets of a sweep are nested, so each grid holds the last one
    once its points are padded with zeros, and every budget draws the same
    Monte Carlo samples from the common seed.  ``collocate`` and
    ``estimate_error`` fill and read this through their ``_cache`` argument.
    A carried solve is bit-identical to a fresh one: the reduction, the
    origin reference and the affine sum (which skips zero coordinates) are the
    same computation on the same numbers.  ``solves`` counts the eigensolves
    made and ``reused`` the ones served from the cache.
    """

    def __init__(self):
        self.reduced = None
        self.reference = None  # (ref_vectors, ref_values) from the origin solve
        self.points = {}  # target -> {zero-padded point: (PointSolution, gap)}
        self.truths = None  # ((seed, n_mc), truth basis or None per sample)
        self.solves = 0
        self.reused = 0

    def reduction(self, family) -> ReducedFamily:
        if self.reduced is None:
            self.reduced = ReducedFamily(family)
        return self.reduced


def collocate(
    family: AffineOperatorFamily,
    J,
    A: MultiIndexSet,
    target: str = "canonical",
    sigma_threshold: float = GRAM_SIGMA_THRESHOLD,
    *,
    _cache: _SolveCache | None = None,
) -> CollocatedEigenbasis:
    """Solve at every grid point of A and assemble the interpolant's data.

    The reference vectors are fixed by a dense solve at the origin first.  The
    family is then reduced once to standard form (``ReducedFamily``), and the
    grid points are solved one after another, in grid order.  ``_cache`` is
    internal: a budget sweep passes one to carry the origin solve, the
    reduction and the point solves from budget to budget.

    Raises
    ------
    DegenerateBasisError
        If at some point the cluster subspace turns nearly orthogonal to the
        reference one (canonical target only); carries the offending point.
    ClusterCrossingError
        If a cluster eigenvalue coincides with the exterior spectrum at a point.
    SolverError
        If the eigensolve fails at some point; the message names the point.
    """
    cluster = _as_cluster(J)
    if target not in TARGETS:
        raise ConfigError(f"unknown interpolation target {target!r}")
    n = family.dim
    if cluster.hi + 1 > n:
        raise ClusterCoverageError(
            f"need eigenpair {cluster.hi + 1} for gap monitoring, dimension is {n}"
        )
    if A.M_active > family.n_terms:
        raise FamilyValidationError(
            f"index set activates dimension {A.M_active}, family has {family.n_terms} terms"
        )
    # a private cache holds the reduction for this call only; a family may be
    # large and long-lived
    cache = _SolveCache() if _cache is None else _cache
    if cache.reference is None:
        decomp0 = solve_gevp(family.B0, family.mass, k=cluster.hi + 1)
        cache.solves += 1
        cache.reference = (
            np.ascontiguousarray(decomp0.vectors[:, [j - 1 for j in cluster.J]]),
            np.array([decomp0.values[j - 1] for j in cluster.J]),
        )
    else:
        cache.reused += 1
    ref_vectors, ref_values = cache.reference
    points = grid_points(A)
    terms = tuple(combination_terms(A))
    reduced = cache.reduction(family)
    solved = cache.points.setdefault(target, {})
    pad = (0.0,) * (family.n_terms - A.M_active)
    point_data = {}
    min_gap = math.inf
    for pt in points:
        key = pt + pad
        hit = solved.get(key)
        if hit is None:
            hit = _solve_point(
                family, reduced, cluster, pt, ref_vectors, target, sigma_threshold
            )
            cache.solves += 1
            if _cache is not None:  # a private cache carries nothing past this call
                solved[key] = hit
        else:
            cache.reused += 1
        point_data[pt], gap = hit
        min_gap = min(min_gap, gap)
    min_sigma = min(sol.basis.gram_sigma_min for sol in point_data.values())
    return CollocatedEigenbasis(
        family=family,
        cluster=cluster,
        A=A,
        terms=terms,
        point_data=point_data,
        ref_vectors=ref_vectors,
        ref_values=ref_values,
        target=target,
        diagnostics={
            "min_gram_sigma_min": min_sigma,
            "min_relative_exterior_gap": float(min_gap),
            "n_points": len(points),
        },
    )


def evaluate_many(cb: CollocatedEigenbasis, Y) -> np.ndarray:
    """Interpolated basis columns at each row of Y (Q x n x S array).

    Row q of the result is ``evaluate(cb, Y[q])`` up to the summation order of
    one matrix product; coordinates beyond the active dimensions of the index
    set do not influence it, and active coordinates must lie in [-1, 1].
    """
    W = cb._operator.weights_at(Y)
    return (W @ cb._vectors).reshape(len(W), cb.family.dim, cb.S)


def evaluate(cb: CollocatedEigenbasis, y) -> np.ndarray:
    """Interpolated basis columns at parameter point y (n x S matrix).

    Coordinates beyond the active dimensions of the index set do not influence
    the result; active coordinates must lie in [-1, 1].
    """
    return evaluate_many(cb, [y])[0]


def evaluate_cluster_values(cb: CollocatedEigenbasis, y) -> np.ndarray:
    """Interpolated cluster eigenvalues at y (length-S vector).

    Symmetric functions of these (sum, mean) vary smoothly in y; the
    individually sorted values themselves may kink where branches cross.
    """
    return (cb._operator.weights_at([y]) @ cb._values)[0]


def orthonormalize_at(cb: CollocatedEigenbasis, y) -> np.ndarray:
    """Mass-orthonormalized interpolant at y; same span as ``evaluate``."""
    return m_orthonormalize(evaluate(cb, y), cb.family.mass)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

FORMAT_NAME = "collocated-eigenbasis"
FORMAT_VERSION = 1


def collocated_to_dict(cb: CollocatedEigenbasis) -> dict:
    points = []
    for pt in sorted(cb.point_data):
        sol = cb.point_data[pt]
        points.append(
            {
                "y": list(pt),
                "vectors": sol.basis.vectors.tolist(),
                "gram_sigma_min": sol.basis.gram_sigma_min,
                "cluster_values": sol.cluster_values.tolist(),
            }
        )
    family = family_to_dict(cb.family)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family_hash": _family_digest(family),
        "family": family,
        "J": list(cb.cluster.J),
        "A": cb.A.to_json_list(),
        "target": cb.target,
        "ref_vectors": cb.ref_vectors.tolist(),
        "ref_values": cb.ref_values.tolist(),
        "points": points,
        "diagnostics": cb.diagnostics,
    }


def collocated_from_dict(doc: dict) -> CollocatedEigenbasis:
    if doc.get("format") != FORMAT_NAME:
        raise ConfigError("not a collocated-eigenbasis document")
    if doc.get("version") != FORMAT_VERSION:
        raise ConfigError(f"unsupported document version {doc.get('version')!r}")
    family = family_from_dict(doc["family"])
    if doc.get("family_hash") != family_hash(family):
        raise ConfigError("family hash mismatch: document is inconsistent")
    A = MultiIndexSet.from_json_list(doc["A"])
    point_data = {}
    for rec in doc["points"]:
        pt = tuple(float(v) for v in rec["y"])
        point_data[pt] = PointSolution(
            basis=EigenspaceBasis(
                vectors=np.asarray(rec["vectors"], dtype=float),
                gram_sigma_min=float(rec["gram_sigma_min"]),
            ),
            cluster_values=np.asarray(rec["cluster_values"], dtype=float),
        )
    return CollocatedEigenbasis(
        family=family,
        cluster=ClusterSelection(tuple(doc["J"])),
        A=A,
        terms=tuple(combination_terms(A)),
        point_data=point_data,
        ref_vectors=np.asarray(doc["ref_vectors"], dtype=float),
        ref_values=np.asarray(doc["ref_values"], dtype=float),
        target=doc.get("target", "canonical"),
        diagnostics=dict(doc.get("diagnostics", {})),
    )


def save_collocated(cb: CollocatedEigenbasis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(collocated_to_dict(cb), fh)


def load_collocated(path) -> CollocatedEigenbasis:
    with open(path, "r", encoding="utf-8") as fh:
        return collocated_from_dict(json.load(fh))
