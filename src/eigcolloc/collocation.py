"""Sparse collocation of the cluster basis over the parameter box.

``collocate`` solves the generalized eigenproblem at every grid point of a
multi-index set, stores the canonical (projector-based) basis per point, and
``evaluate`` combines the stored bases into the sparse interpolant at arbitrary
parameter points.  Interpolating raw sorted eigenvectors instead is supported
as a deliberately fragile alternative for demonstration purposes.
"""
from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field

import numpy as np

from .eigensolver import ReducedFamily, _long_point, _serial_blas, m_orthonormalize
from .eigenspace import (
    GRAM_SIGMA_THRESHOLD,
    ClusterSelection,
    EigenspaceBasis,
    _as_cluster,
    _project_clusters,
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
    family_to_dict,
    _family_digest,
    _pack_floats,
    _unpack_floats,
)
from .sparse_grid import (
    CombinationOperator,
    CombinationTerm,
    MultiIndexSet,
    combination_terms,
    grid_points,
)

TARGETS = ("canonical", "raw")
# the keys of the two coefficient tables in a basis document
COEF_KEYS = ("vector_coefs", "value_coefs")


@dataclass(frozen=True)
class PointSolution:
    """Stored solve at one grid point: basis columns plus cluster eigenvalues."""

    basis: EigenspaceBasis
    cluster_values: np.ndarray


@dataclass(frozen=True)
class CollocatedEigenbasis:
    """One collocation run's interpolant, ready for evaluation.

    Immutable after construction; ``evaluate`` is pure, so instances may be
    shared freely across threads.  A basis is two tables of the
    interpolant's Chebyshev coefficients (``CombinationOperator``), for the
    basis columns and for the cluster values, each with one row per
    multi-index of ``A``, so that every evaluation is one table of Chebyshev
    values and one product with those rows; ``A`` must be downward closed.
    ``terms`` is derived from ``A``.  One rule gives the tables: they are
    made from ``_stack`` when it is given (``collocate``'s grid points with the
    stacked bases and cluster values its point data are views of), else
    from a non-empty ``point_data`` (a load of a version-1 or version-2
    file, ``dataclasses.replace``), checked against ``grid_points(A)`` and
    the shapes of the family and the cluster, then stacked; otherwise the
    tables in ``_coefs`` (a load of a version-3 or version-4 file) are kept.
    ``_coefs`` is a field, so a ``replace`` carries the tables.  The cluster,
    ``A``, and the shapes and finiteness of the reference pair and the tables
    are checked on every path.
    """

    family: AffineOperatorFamily
    cluster: ClusterSelection
    A: MultiIndexSet
    point_data: dict
    ref_vectors: np.ndarray
    ref_values: np.ndarray
    target: str
    diagnostics: dict
    _operator: CombinationOperator = field(init=False, repr=False, compare=False)
    _coefs: tuple | None = field(default=None, repr=False, compare=False)
    _stack: InitVar[tuple | None] = None

    def __post_init__(self, _stack):
        if self.target not in TARGETS:
            raise ConfigError(f"unknown interpolation target {self.target!r}")
        self._check_fields()
        if _stack is None and self.point_data:
            _stack = self._stack_point_data()
        elif _stack is None and self._coefs is None:
            raise FamilyValidationError("basis has neither point data nor a coefficient table")
        op = CombinationOperator(self.A)
        object.__setattr__(self, "_operator", op)
        if _stack is not None:
            # the point work's thread setting, so that the bits of the
            # coefficients do not depend on the thread variables
            with _serial_blas():
                object.__setattr__(self, "_coefs", op.coefficients(*_stack))
        # one row per index of A
        rows, n, S = len(op.indices), self.family.dim, self.S
        for name, table, width in zip(COEF_KEYS, self._coefs, (n * S, S)):
            _check_array(name, table, (rows, width))

    def _check_fields(self) -> None:
        """Check the cluster, the index set and the reference data (shape, then
        finite entries) against the family, in that order; a fault is a
        ``FamilyValidationError`` that names the field."""
        n, S = self.family.dim, self.S
        if self.cluster.hi + 1 > n:
            raise FamilyValidationError(
                f"J: eigenpair {self.cluster.hi + 1} is needed for the gap, dimension is {n}"
            )
        M = self.family.n_terms
        if self.A.M_active > M:
            raise FamilyValidationError(
                f"A: activates dimension {self.A.M_active}, family has {M} terms"
            )
        _check_array("ref_vectors", self.ref_vectors, (n, S))
        _check_array("ref_values", self.ref_values, (S,))

    def _stack_point_data(self) -> tuple:
        """Check ``point_data`` and stack it as ``_stack``.

        Every array must have its shape for the family and the cluster and
        finite entries, and the points must be the grid of ``A``; a fault is a
        ``FamilyValidationError`` that names the field, and the point where
        there is one.
        """
        n, S = self.family.dim, self.S
        points = grid_points(self.A)
        if set(self.point_data) != set(points):
            raise FamilyValidationError(
                "stored point data does not cover the collocation grid"
            )
        vectors = np.empty((len(points), n * S))
        values = np.empty((len(points), S))
        for i, pt in enumerate(points):
            sol = self.point_data[pt]
            _check_array("vectors", sol.basis.vectors, (n, S), pt)
            _check_array("cluster_values", sol.cluster_values, (S,), pt)
            vectors[i] = sol.basis.vectors.ravel()
            values[i] = sol.cluster_values
        return points, vectors, values

    @property
    def S(self) -> int:
        return self.cluster.S

    @property
    def terms(self) -> tuple[CombinationTerm, ...]:
        """The signed tensor terms of ``A`` (``combination_terms``)."""
        return tuple(combination_terms(self.A))


def _check_array(name: str, array: np.ndarray, shape: tuple, point=None) -> None:
    """A ``FamilyValidationError`` naming the field (and the point) unless
    ``array`` has ``shape`` and only finite entries."""
    where = f" at point {point}" if point is not None else ""
    if np.shape(array) != shape:
        raise FamilyValidationError(
            f"{name}{where} has shape {np.shape(array)}, expected {shape}"
        )
    if not np.isfinite(array).all():
        raise FamilyValidationError(f"{name}{where} has a non-finite entry")


def _target_bases(decomps, ref_vectors, cluster, mass, target):
    """The bases that stand for ``target`` at solved points, with Gram sigmas.

    Grid nodes store them and Monte Carlo truths are made by them, so an
    error compares like with like.  For each decomposition the cluster
    eigenvectors U are projected by ``_project_clusters``: 'canonical' is the
    projected block, as ``canonical_basis`` makes it, and 'raw' the sorted
    cluster eigenvectors themselves.  Returns the stacked bases (P x n x S),
    the smallest singular value of each Gram matrix against the reference
    vectors (P,) and which bases the target accepts (P,): every raw one, and
    a canonical one whose sigma is at least ``GRAM_SIGMA_THRESHOLD``.
    """
    cols = [j - 1 for j in cluster.J]
    U = np.stack([d.vectors[:, cols] for d in decomps])
    projected, sigma = _project_clusters(U, ref_vectors, mass)
    if target == "raw":
        return U, sigma, np.ones(len(U), dtype=bool)
    return projected, sigma, sigma >= GRAM_SIGMA_THRESHOLD


def _nodes(decomps, points, ref_vectors, cluster, mass, target):
    """Check and project one chunk of solved grid points.

    Returns the eigenvalues (P x k), exterior gaps, target bases and Gram
    sigmas of the points.  Raises the first fault in the order given: the
    ``SolverError`` a failed solve holds, a ``ClusterCrossingError`` or, for
    the canonical target, a ``DegenerateBasisError`` naming the point; at one
    point the gap is checked before the basis.
    """
    solved = next(
        (i for i, d in enumerate(decomps) if isinstance(d, SolverError)), len(decomps)
    )
    if solved:
        values = np.stack([d.values for d in decomps[:solved]])
        gaps = exterior_gap(values, cluster)
        bases, sigma, ok = _target_bases(decomps[:solved], ref_vectors, cluster, mass, target)
        bad = np.flatnonzero((gaps <= 0.0) | ~ok)
        if bad.size:
            i = bad[0]
            if gaps[i] <= 0.0:
                raise ClusterCrossingError(
                    f"cluster touches exterior spectrum at point {points[i]}"
                )
            raise DegenerateBasisError(float(sigma[i]), point=points[i])
    if solved < len(decomps):
        raise decomps[solved]
    return values, gaps, bases, sigma


def collocate(
    family: AffineOperatorFamily,
    J,
    A: MultiIndexSet,
    target: str = "canonical",
    *,
    _cache: ReducedFamily | None = None,
) -> CollocatedEigenbasis:
    """Solve at every grid point of A and assemble the interpolant's data.

    The grid of A is made first, so that a bad set costs no solve; the
    reference vectors are then fixed by the solve at the origin, a dense one.
    The grid points are solved in grid order by ``ReducedFamily.solve_many``,
    which reduces the family at the first point away from the origin, and
    each chunk it yields has its gaps and Gram matrices checked and its bases
    projected in one step (``_nodes``), under the BLAS thread setting of the
    solves (``_serial_blas()``).  ``_cache`` is internal: a budget sweep passes its
    ``ReducedFamily`` to carry the solves, the origin's included, from budget
    to budget and from target to target.  Each point stores the basis that
    ``_target_bases`` makes for the target.  An error names the first
    offending point in grid order, as a loop over the points would.

    Raises
    ------
    ConfigError
        If the target is unknown or A is empty.
    MonotonicityError
        If A is not downward closed; raised before any solve.
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
    points = grid_points(A)
    cache = ReducedFamily(family, carry=False) if _cache is None else _cache
    cols = [j - 1 for j in cluster.J]
    decomp0 = cache.solve((), cluster.hi + 1)
    ref_vectors, ref_values = decomp0.vectors[:, cols], decomp0.values[cols]
    args = (ref_vectors, cluster, family.mass, target)
    values = np.empty((len(points), cluster.hi + 1))
    gaps = np.empty(len(points))
    bases = np.empty((len(points), n, cluster.S))
    sigma = np.empty(len(points))
    for start, decomps in cache.solve_many(points, cluster.hi + 1):
        stop = start + len(decomps)
        with _serial_blas():
            rows = _nodes(decomps, points[start:stop], *args)
        for out, part in zip((values, gaps, bases, sigma), rows):
            out[start:stop] = part
    cluster_values = values[:, cols]
    point_data = {
        pt: PointSolution(
            basis=EigenspaceBasis(bases[i], float(sigma[i])), cluster_values=cluster_values[i]
        )
        for i, pt in enumerate(points)
    }
    return CollocatedEigenbasis(
        family=family,
        cluster=cluster,
        A=A,
        point_data=point_data,
        ref_vectors=ref_vectors,
        ref_values=ref_values,
        target=target,
        diagnostics={
            "min_gram_sigma_min": float(sigma.min()),
            "min_relative_exterior_gap": float((gaps / values[:, cluster.hi - 1]).min()),
            "n_points": len(points),
        },
        _stack=(points, bases.reshape(len(points), -1), cluster_values),
    )


def _interpolate(cb: CollocatedEigenbasis, Y, coefs: np.ndarray) -> np.ndarray:
    """The Chebyshev rows of the points in the rows of Y, checked against the
    family, times the coefficient rows ``coefs``, under the BLAS thread
    setting of the point solves (``_serial_blas()``), so that the bits do not
    depend on the thread variables."""
    Y = np.asarray(Y, dtype=float)
    # an empty batch has no point to name
    if Y.ndim == 2 and len(Y) and Y.shape[1] > cb.family.n_terms:
        raise _long_point(Y[0], cb.family.n_terms)
    B = cb._operator.basis_at(Y)
    with _serial_blas():
        return B @ coefs


def evaluate_many(cb: CollocatedEigenbasis, Y) -> np.ndarray:
    """Interpolated basis columns at each row of Y (Q x n x S array).

    Row q of the result is ``evaluate(cb, Y[q])`` up to the summation order of
    one matrix product; coordinates beyond the active dimensions of the index
    set do not influence it, and active coordinates must lie in [-1, 1].  A
    point with more components than the family has terms raises a
    ``ParameterDimensionError`` naming it.  A query costs one table of
    Chebyshev values and a product with one coefficient row per multi-index
    of ``A``, whatever the number of grid points.  The product runs under the
    BLAS thread setting of the point solves (``_serial_blas()``), so its bits
    do not depend on the thread variables either.
    """
    V = _interpolate(cb, Y, cb._coefs[0])
    return V.reshape(len(V), cb.family.dim, cb.S)


def evaluate(cb: CollocatedEigenbasis, y) -> np.ndarray:
    """Interpolated basis columns at parameter point y (n x S matrix).

    Coordinates beyond the active dimensions of the index set do not influence
    the result; active coordinates must lie in [-1, 1], and y may not have
    more components than the family has terms.
    """
    return evaluate_many(cb, [y])[0]


def evaluate_cluster_values(cb: CollocatedEigenbasis, y) -> np.ndarray:
    """Interpolated cluster eigenvalues at y (length-S vector).

    Symmetric functions of these (sum, mean) vary smoothly in y; the
    individually sorted values themselves may kink where branches cross.
    """
    return _interpolate(cb, [y], cb._coefs[1])[0]


def orthonormalize_at(cb: CollocatedEigenbasis, y) -> np.ndarray:
    """Mass-orthonormalized interpolant at y; same span as ``evaluate``."""
    return m_orthonormalize(evaluate(cb, y), cb.family.mass)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

FORMAT_NAME = "collocated-eigenbasis"
FORMAT_VERSION = 4
# version 1 wrote the family's matrices dense and version 2 sparse, both with
# the nodal bases of every grid point in place of the coefficient tables;
# version 3 wrote the tables as version 4 does, but every float as a decimal;
# all three still load
READABLE_VERSIONS = (1, 2, 3, FORMAT_VERSION)


def collocated_to_dict(cb: CollocatedEigenbasis) -> dict:
    family = family_to_dict(cb.family)
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family_hash": _family_digest(family),
        "family": family,
        "J": list(cb.cluster.J),
        "A": cb.A.to_json_list(),
        "target": cb.target,
        "ref_vectors": _pack_floats(cb.ref_vectors),
        "ref_values": _pack_floats(cb.ref_values),
        **{key: _pack_floats(table) for key, table in zip(COEF_KEYS, cb._coefs)},
        "diagnostics": cb.diagnostics,
    }


def _field(record, key: str, convert, where: str = ""):
    """``convert(record[key])``; a missing or malformed value names the field."""
    try:
        value = record[key]
    except (KeyError, TypeError):
        raise ConfigError(f"basis document lacks {key!r}{where}") from None
    try:
        return convert(value)
    except (AttributeError, TypeError, ValueError, FamilyValidationError) as exc:
        raise FamilyValidationError(f"{key}{where} is malformed: {exc}") from None


def _floats(value) -> np.ndarray:
    """A packed float array (version 4) or a list of numbers (versions 1-3)."""
    return _unpack_floats(value, "the value")


def _cluster(J) -> ClusterSelection:
    """The cluster of a JSON list of indices; tuple() would split a string."""
    if not isinstance(J, list):
        raise TypeError(f"{J!r} is not a list")
    return ClusterSelection(tuple(J))


def collocated_from_dict(doc: dict) -> CollocatedEigenbasis:
    """The basis a document written by ``collocated_to_dict`` holds.

    A version-4 or version-3 document gives the coefficient tables as they
    are stored: the basis has no point data, and ``diagnostics["n_points"]``
    gives the grid size.  Version 4 packs every float array
    (``_pack_floats``); the earlier versions store decimal lists.  A
    version-1 or version-2 document gives every nodal basis, and the tables
    are made from them as ``collocate`` makes them.

    Raises
    ------
    ConfigError
        If the document is of another format or version, lacks a key, or its
        family block does not match its hash.
    FamilyValidationError
        If a field is malformed or of the wrong shape; the message names the
        field, and the point where there is one.
    MonotonicityError
        If ``A`` is not downward closed.
    """
    if doc.get("format") != FORMAT_NAME:
        raise ConfigError("not a collocated-eigenbasis document")
    # exact ints only: True == 1 and 1.0 == 1 in Python
    if type(doc.get("version")) is not int or doc["version"] not in READABLE_VERSIONS:
        raise ConfigError(f"unsupported document version {doc.get('version')!r}")
    # the stored block's digest is the hash collocated_to_dict wrote, so any
    # edit of the block fails here, before the block is parsed
    if doc.get("family_hash") != _field(doc, "family", _family_digest):
        raise ConfigError("family hash mismatch: document is inconsistent")
    family = family_from_dict(doc["family"])
    header = dict(
        family=family,
        cluster=_field(doc, "J", _cluster),
        A=_field(doc, "A", MultiIndexSet.from_json_list),
        ref_vectors=_field(doc, "ref_vectors", _floats),
        ref_values=_field(doc, "ref_values", _floats),
        target=doc.get("target", "canonical"),
        diagnostics=_field(doc, "diagnostics", dict) if "diagnostics" in doc else {},
    )
    if doc["version"] >= 3:
        coefs = tuple(_field(doc, key, _floats) for key in COEF_KEYS)
        return CollocatedEigenbasis(**header, point_data={}, _coefs=coefs)
    records = _field(doc, "points", list)
    point_data = {}
    for i, rec in enumerate(records):
        pt = _field(rec, "y", lambda y: tuple(map(float, y)), f" in points[{i}]")
        where = f" at point {pt}"
        point_data[pt] = PointSolution(
            basis=EigenspaceBasis(
                vectors=_field(rec, "vectors", _floats, where),
                gram_sigma_min=_field(rec, "gram_sigma_min", float, where),
            ),
            cluster_values=_field(rec, "cluster_values", _floats, where),
        )
    if len(point_data) != len(records):
        raise FamilyValidationError("points: a point is stored twice")
    return CollocatedEigenbasis(**header, point_data=point_data)


def save_collocated(cb: CollocatedEigenbasis, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # json.dump encodes in pure Python
        fh.write(json.dumps(collocated_to_dict(cb), separators=(",", ":")))


def load_collocated(path) -> CollocatedEigenbasis:
    with open(path, "r", encoding="utf-8") as fh:
        return collocated_from_dict(json.load(fh))
