"""Multi-index sets, Gauss-Legendre nodes, and the sparse combination technique.

Multi-indices are stored sparsely (dimension -> level, 1-based dimensions,
absent means level 0), so sets over a countable parameter sequence stay cheap.
Interpolation grids are unions of tensor Gauss-Legendre grids; node values are
computed once per level and cached, which makes the union deduplication
bit-exact across levels.  The combination interpolant is held as Chebyshev
coefficients over the span of the set's multi-degrees.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ExtrapolationError,
    MonotonicityError,
    ParameterDimensionError,
    WeightError,
)


@dataclass(frozen=True)
class MultiIndex:
    """Finitely supported map dimension -> positive level (sparse storage)."""

    entries: tuple[tuple[int, int], ...]
    _map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        norm = tuple(
            sorted((int(m), int(l)) for (m, l) in self.entries if int(l) != 0)
        )
        for m, l in norm:
            if m < 1:
                raise ValueError("dimensions are 1-based")
            if l < 0:
                raise ValueError("levels must be nonnegative")
        if len({m for m, _ in norm}) != len(norm):
            raise ValueError("duplicate dimension in multi-index")
        object.__setattr__(self, "entries", norm)
        object.__setattr__(self, "_map", dict(norm))

    @classmethod
    def from_dense(cls, levels) -> "MultiIndex":
        return cls(tuple((m, l) for m, l in enumerate(levels, start=1)))

    def to_dense(self, M: int) -> tuple[int, ...]:
        return tuple(self.level(m) for m in range(1, M + 1))

    def level(self, m: int) -> int:
        return self._map.get(m, 0)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.entries)

    @property
    def max_dim(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    @property
    def norm1(self) -> int:
        return sum(l for _, l in self.entries)

    def __le__(self, other: "MultiIndex") -> bool:
        return all(l <= other.level(m) for m, l in self.entries)

    def minus_unit(self, m: int) -> "MultiIndex":
        """Decrement dimension m by one (level must be positive there)."""
        l = self.level(m)
        if l < 1:
            raise ValueError(f"dimension {m} has level 0")
        return MultiIndex(tuple((d, v - 1 if d == m else v) for d, v in self.entries))

    def sort_key(self):
        return (self.norm1, self.entries)


ORIGIN = MultiIndex(())


@dataclass(frozen=True)
class MultiIndexSet:
    """Finite set of multi-indices; iteration order is deterministic."""

    indices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(self.indices))

    @property
    def M_active(self) -> int:
        """Greatest dimension with a nonzero level anywhere in the set."""
        return max((a.max_dim for a in self.indices), default=0)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, alpha: MultiIndex) -> bool:
        return alpha in self.indices

    def __iter__(self):
        return iter(sorted(self.indices, key=MultiIndex.sort_key))

    def to_json_list(self) -> list:
        return [{str(m): l for m, l in a.entries} for a in self]

    @classmethod
    def from_json_list(cls, doc) -> "MultiIndexSet":
        # exact ints only: int() would truncate 1.5 and take true for 1
        for d in doc:
            for m, l in d.items():
                if type(l) is not int:
                    raise ValueError(f"level {l!r} of dimension {m} is not an integer")
        return cls(
            frozenset(
                MultiIndex(tuple((int(m), l) for m, l in d.items())) for d in doc
            )
        )


def multi_index_set(indices) -> MultiIndexSet:
    return MultiIndexSet(frozenset(indices))


def is_monotone(A: MultiIndexSet) -> bool:
    """True iff the set is downward closed (every unit decrement stays inside)."""
    for alpha in A.indices:
        for m in alpha.support:
            if alpha.minus_unit(m) not in A.indices:
                return False
    return True


def anisotropic_set(weights, budget: float) -> MultiIndexSet:
    """Budget set {alpha : sum_m alpha_m * log(rho_m) <= budget}.

    ``weights`` are per-dimension radii rho_m > 1, so each unit level in
    dimension m costs log(rho_m); the set is monotone by construction.
    """
    logs = []
    for m, rho in enumerate(weights, start=1):
        if not rho > 1.0:
            raise WeightError(f"weight for dimension {m} is {rho:.6g}, must be > 1")
        logs.append(math.log(rho))
    if not (math.isfinite(budget) and budget >= 0.0):
        raise ConfigError(f"budget must be finite and nonnegative, got {budget!r}")
    out = []

    def extend(prefix, m, remaining):
        if m > len(logs):
            out.append(MultiIndex.from_dense(prefix))
            return
        l = 0
        while l * logs[m - 1] <= remaining + 1e-12 * max(1.0, budget):
            extend(prefix + [l], m + 1, remaining - l * logs[m - 1])
            l += 1

    extend([], 1, float(budget))
    return multi_index_set(out)


@dataclass(frozen=True)
class CombinationTerm:
    """Tensor subgrid gamma with its signed integer coefficient."""

    gamma: MultiIndex
    coefficient: int


def combination_terms(A: MultiIndexSet) -> list[CombinationTerm]:
    """Compress the telescoped sparse interpolant into signed tensor terms.

    For each alpha the inner sum runs over the box max(alpha-1, 0) <= gamma <=
    alpha on the support of alpha, with sign (-1)^|alpha-gamma|; equal gammas
    are merged and zero coefficients dropped.
    """
    # signed counts on the normalised (dimension, level) entries of each
    # gamma, built one dimension of alpha's box at a time; a MultiIndex is
    # made only for the gammas that stay
    acc: dict[tuple, int] = {}
    for alpha in A.indices:
        box = {(): 1}
        for m, l in alpha.entries:
            lower = ((m, l - 1),) if l > 1 else ()  # level 0 is no entry
            box = {**{g + ((m, l),): c for g, c in box.items()},
                   **{g + lower: -c for g, c in box.items()}}
        for g, c in box.items():
            acc[g] = acc.get(g, 0) + c
    return [
        CombinationTerm(MultiIndex(g), c)
        for g, c in sorted(acc.items(), key=lambda kv: (sum(l for _, l in kv[0]), kv[0]))
        if c != 0
    ]


# ---------------------------------------------------------------------------
# Gauss-Legendre nodes with barycentric weights
# ---------------------------------------------------------------------------

def _legendre_and_prev(n: int, x: float) -> tuple[float, float]:
    # value of P_n and P_{n-1} via the three-term recurrence
    if n == 0:
        return 1.0, 0.0
    pkm1, pk = 1.0, x
    for k in range(2, n + 1):
        pkm1, pk = pk, ((2 * k - 1) * x * pk - (k - 1) * pkm1) / k
    return pk, pkm1


@dataclass(frozen=True)
class NodeSet:
    """Level-p interpolation nodes: the p+1 Legendre zeros, ascending."""

    level: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...] = field(compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    def basis_all(self, t: float) -> np.ndarray:
        """All Lagrange basis values at t; exact unit vector when t is a node.

        Off the nodes the second barycentric form is scaled by the distance to
        the nearest node, so no term overflows close to a node.
        """
        d = float(t) - np.asarray(self.nodes)
        hit = d == 0.0
        if hit.any():
            return hit.astype(float)
        v = np.asarray(self.weights) * (np.abs(d).min() / d)
        return v / v.sum()


@functools.cache
def gauss_legendre_nodes(p: int) -> NodeSet:
    """Nodes of level p: all p+1 zeros of the Legendre polynomial of degree p+1.

    Newton iteration on the recurrence, then exact symmetrization so that
    nodes(p) == -reversed(nodes(p)) bit for bit; results are cached per level.
    """
    if p < 0:
        raise ValueError("level must be nonnegative")
    n = p + 1
    roots = []
    for i in range(n):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            pn, pnm1 = _legendre_and_prev(n, x)
            dpn = n * (x * pn - pnm1) / (x * x - 1.0)
            dx = -pn / dpn
            x += dx
            if abs(dx) < 1e-15:
                break
        roots.append(x)
    roots.sort()
    for i in range(n // 2):
        j = n - 1 - i
        mag = 0.5 * (roots[j] - roots[i])
        roots[i], roots[j] = -mag, mag
    if n % 2:
        roots[n // 2] = 0.0
    weights = []
    for k in range(n):
        prod = 1.0
        for j in range(n):
            if j != k:
                prod *= roots[k] - roots[j]
        weights.append(1.0 / prod)
    return NodeSet(level=p, nodes=tuple(roots), weights=tuple(weights))


def lagrange_basis_eval(node_set: NodeSet, k: int, t: float) -> float:
    """Value of the k-th Lagrange basis polynomial of the node set at t."""
    if not 0 <= k <= node_set.level:
        raise ValueError(f"basis index {k} out of range for level {node_set.level}")
    return float(node_set.basis_all(t)[k])


# ---------------------------------------------------------------------------
# Collocation grids and combination evaluation
# ---------------------------------------------------------------------------

def _tensor_points(gamma: MultiIndex, M: int):
    axes = [gauss_legendre_nodes(gamma.level(m)).nodes for m in range(1, M + 1)]
    return itertools.product(*axes)


def grid_points(A: MultiIndexSet) -> list[tuple[float, ...]]:
    """The collocation grid X_A: union of the tensor grids of the set.

    For monotone sets the union over inner boxes collapses to the union over
    the set itself.  Points are tuples of length M_active (trailing dimensions
    are implicitly 0) and are deduplicated bit-exactly.
    """
    M = A.M_active
    seen = set()
    if is_monotone(A):
        gammas = list(A)
    else:
        gammas = [t.gamma for t in combination_terms(A)]
    for gamma in gammas:
        seen.update(_tensor_points(gamma, M))
    return sorted(seen)


def point_count_bound(A: MultiIndexSet) -> int:
    """Grid cardinality sum over alpha of prod (alpha_m + 1); monotone sets only.

    The value also satisfies bound <= (#A)^2.  For non-monotone sets the sum
    does not count the union, so they are rejected.
    """
    if not is_monotone(A):
        raise MonotonicityError("grid-size formula requires a downward-closed set")
    total = 0
    for alpha in A.indices:
        prod = 1
        for _, l in alpha.entries:
            prod *= l + 1
        total += prod
    return total


@functools.cache
def chebyshev_transform(p: int) -> np.ndarray:
    """Level-p map from values at the nodes to Chebyshev coefficients.

    The inverse of the Vandermonde matrix V[i, k] = T_k(x_i) of the level-p
    nodes, with T_k(t) = cos(k arccos t) as the operator tabulates it; the
    condition number of V stays below 3.2 up to level 60.  Cached per level
    and read-only.
    """
    x = np.asarray(gauss_legendre_nodes(p).nodes)
    T = np.linalg.inv(np.cos(np.arccos(x)[:, None] * np.arange(p + 1)))
    T.setflags(write=False)
    return T


def _tensor_transform(levels) -> np.ndarray:
    """Kronecker product of the 1D transforms of the levels, first level slowest."""
    K = np.ones((1, 1))
    for l in levels:
        T = chebyshev_transform(l)
        K = (K[:, None, :, None] * T[None, :, None, :]).reshape(len(K) * len(T), -1)
    return K


class CombinationOperator:
    """The combination-technique interpolant as Chebyshev coefficients.

    Each term's tensor interpolant has degree at most gamma_m in dimension m,
    so the interpolant lies in the span of the products T_nu(y) = prod_m
    T_{nu_m}(y_m) over the multi-indices nu <= gamma of the terms' boxes;
    for a downward-closed set these are exactly the set's indices.
    ``indices`` holds these nu in ``MultiIndex.sort_key`` order, so that for
    a downward-closed set they are the set's indices in its iteration
    order.  ``coefficients(points, D)`` gives, for data stacked in
    ``points`` order as the rows of D, one row per nu, so that the
    interpolant at y is ``basis_at([y])[0] @ coefficients(points, D)[0]``.
    A term adds its signed coefficient times the Kronecker product of the
    1D transforms (``chebyshev_transform``) of its levels, applied to its
    rows of D, into the rows of its box.  A query then costs one table of
    cos(k arccos y_m), one gather-and-multiply per factor and the product
    with one row per nu, whatever the number of points.  Level 0 has the
    single node 0.0 and degree 0, whose T_0 = cos(0) = 1 exactly, so only
    the dimensions where nu is positive enter its product.
    """

    def __init__(self, terms, M_active: int):
        if not terms:
            raise ConfigError("no combination terms to evaluate")
        self.M_active = M_active
        # the slot of every nu of each term's box, enumerated with the last
        # dimension fastest, as a Kronecker product does; a slot numbers the
        # entries of a nu in the order they are first met
        slot = {}
        boxes = [
            [
                slot.setdefault(tuple((m, l) for m, l in zip(t.gamma.support, nu) if l), len(slot))
                for nu in itertools.product(*(range(l + 1) for _, l in t.gamma.entries))
            ]
            for t in terms
        ]
        self.indices = tuple(sorted(map(MultiIndex, slot), key=MultiIndex.sort_key))
        nus = [nu.entries for nu in self.indices]
        # factor k of nu points at T_{nu_m}(y_m) of its k-th entry in the
        # flattened (dimension, order) table, and past its entries at T_0 = 1
        width = 1 + max((l for nu in nus for _, l in nu), default=0)
        self._orders = np.arange(width)
        n_factors = max(map(len, nus))
        self._flat = np.array(
            [[(m - 1) * width + l for m, l in nu] + [0] * (n_factors - len(nu)) for nu in nus],
            dtype=np.intp,
        ).reshape(len(nus), n_factors).T
        # the coefficient row of each slot, and so the output rows of each term
        row_of_slot = np.empty(len(nus), dtype=np.intp)
        row_of_slot[[slot[nu] for nu in nus]] = np.arange(len(nus))
        self._terms = [(t, row_of_slot[box]) for t, box in zip(terms, boxes)]

    def coefficients(self, points, *tables) -> tuple:
        """Chebyshev coefficients of the interpolant of each table's rows.

        ``points`` must hold every tensor point of every term, as tuples of
        length M_active, and each table the data at ``points`` as its rows
        (#points x N); the result has one table per data table, with one row
        per multi-index of ``indices`` (#indices x N).  Each term's rows are
        looked up once for all tables.
        """
        tables = [np.asarray(D, dtype=float) for D in tables]
        for D in tables:
            if D.ndim != 2 or len(D) != len(points):
                raise ConfigError(
                    f"data has shape {D.shape}, expected {len(points)} rows of a 2-D array"
                )
        row_of = {pt: i for i, pt in enumerate(points)}
        out = [np.zeros((len(self.indices), D.shape[1])) for D in tables]
        for t, box in self._terms:
            rows = np.array(
                [row_of[pt] for pt in _tensor_points(t.gamma, self.M_active)], dtype=np.intp
            )
            K = t.coefficient * _tensor_transform([l for _, l in t.gamma.entries])
            for C, D in zip(out, tables):
                C[box] += K @ D[rows]
        return tuple(out)

    def basis_at(self, Y) -> np.ndarray:
        """Rows T_nu(y) for the points y in the rows of Y, shape (len(Y), #indices).

        Columns of Y beyond M_active are ignored and missing ones count as 0;
        active coordinates must lie in [-1, 1].
        """
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2:
            raise ParameterDimensionError("query points must be the rows of a 2-D array")
        Y = Y[:, : self.M_active]
        Q = len(Y)
        if Y.shape[1] < self.M_active:
            Y = np.concatenate([Y, np.zeros((Q, self.M_active - Y.shape[1]))], axis=1)
        inside = (Y >= -1.0) & (Y <= 1.0)
        if not inside.all():
            q, m = np.argwhere(~inside)[0]
            raise ExtrapolationError(
                f"coordinate {m + 1} = {Y[q, m]:.6g} lies outside [-1, 1]"
            )
        if not len(self._flat):
            return np.ones((Q, len(self.indices)))
        # the width is explicit: reshape cannot infer it for an empty batch
        table = np.cos(np.arccos(Y)[:, :, None] * self._orders)
        table = table.reshape(Q, self.M_active * len(self._orders))
        B = table[:, self._flat[0]]
        for idx in self._flat[1:]:
            B *= table[:, idx]
        return B


def combination_interpolate(
    terms: list[CombinationTerm],
    M_active: int,
    data,
    y,
) -> np.ndarray:
    """Evaluate the combination-form interpolant at y from nodal data.

    ``data`` maps grid-point tuples (length M_active) to arrays of a common
    shape; the result is the signed sum of tensor-product Lagrange interpolants.
    ``y`` may be longer than M_active (the interpolant is constant in inactive
    dimensions) or shorter (missing coordinates are 0).  A throwaway
    ``CombinationOperator`` does the work, as ``basis_at([y])[0] @
    coefficients(points, D)[0]``; build one directly to evaluate the same
    data at many points.
    """
    points = sorted(data)
    shape = np.shape(data[points[0]])
    D = np.stack([np.asarray(data[pt], dtype=float).ravel() for pt in points])
    op = CombinationOperator(terms, M_active)
    (C,) = op.coefficients(points, D)
    return (op.basis_at([y])[0] @ C).reshape(shape)
