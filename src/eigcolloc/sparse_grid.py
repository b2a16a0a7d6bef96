"""Multi-index sets, Gauss-Legendre nodes, and the sparse combination technique.

Multi-indices are stored sparsely (dimension -> level, 1-based dimensions,
absent means level 0), so sets over a countable parameter sequence stay cheap.
A set that makes a grid or an interpolant must be non-empty and downward
closed.  Its grid is the union of the tensor Gauss-Legendre grids of its
indices; node values are computed once per level and cached, which makes the
union deduplication bit-exact across levels.  The combination interpolant is
held as Chebyshev coefficients, one row per index of the set.
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


def _faults(A: MultiIndexSet) -> list:
    """(entries, dimension) of every index of A and unit decrement outside A."""
    entries = {alpha.entries for alpha in A.indices}
    return [
        (e, m) for e in entries for i, (m, l) in enumerate(e)
        if e[:i] + ((m, l - 1),) * (l > 1) + e[i + 1 :] not in entries  # level 0 is no entry
    ]


def is_monotone(A: MultiIndexSet) -> bool:
    """True iff the set is downward closed (every unit decrement stays inside)."""
    return not _faults(A)


def _check_downward_closed(A: MultiIndexSet) -> None:
    """The one rule on a set that makes a grid or an interpolant: a
    ``ConfigError`` if A is empty, and a ``MonotonicityError`` naming the
    first index, in A's order, whose unit decrement lies outside A."""
    if not len(A):
        raise ConfigError("empty index set: A must hold at least the origin")
    faults = _faults(A)
    if faults:
        e, m = min(faults, key=lambda f: (sum(l for _, l in f[0]), f))
        alpha, M = MultiIndex(e), A.M_active
        raise MonotonicityError(
            f"index set is not downward closed: index {alpha.to_dense(M)} lacks its "
            f"unit decrement {alpha.minus_unit(m).to_dense(M)} in dimension {m}"
        )


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
# Gauss-Legendre nodes
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
    return NodeSet(level=p, nodes=tuple(roots))


def lagrange_basis_eval(node_set: NodeSet, k: int, t: float) -> float:
    """Value of the k-th Lagrange basis polynomial of the node set at t: exactly
    1 or 0 at a node, else the Chebyshev series of column k of the level's
    ``chebyshev_transform``."""
    if not 0 <= k <= node_set.level:
        raise ValueError(f"basis index {k} out of range for level {node_set.level}")
    t = float(t)
    if t in node_set.nodes:
        return float(t == node_set.nodes[k])
    return float(np.polynomial.chebyshev.chebval(t, chebyshev_transform(node_set.level)[:, k]))


# ---------------------------------------------------------------------------
# Collocation grids and combination evaluation
# ---------------------------------------------------------------------------

def _tensor_points(gamma: MultiIndex, M: int):
    axes = [gauss_legendre_nodes(gamma.level(m)).nodes for m in range(1, M + 1)]
    return itertools.product(*axes)


def grid_points(A: MultiIndexSet) -> list[tuple[float, ...]]:
    """The collocation grid X_A: union of the tensor grids of the set.

    A must be non-empty and downward closed (else ``ConfigError`` or
    ``MonotonicityError``).  Points are tuples of length M_active (trailing
    dimensions are implicitly 0), sorted and deduplicated bit-exactly.
    """
    _check_downward_closed(A)
    M = A.M_active
    seen = set()
    for alpha in A.indices:
        seen.update(_tensor_points(alpha, M))
    return sorted(seen)


def point_count_bound(A: MultiIndexSet) -> int:
    """Grid cardinality bound: the sum over alpha of prod (alpha_m + 1).

    The value also satisfies bound <= (#A)^2.  A must be non-empty and
    downward closed, as for ``grid_points``.
    """
    _check_downward_closed(A)
    return sum(math.prod(l + 1 for _, l in alpha.entries) for alpha in A.indices)


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


def _box(gamma: MultiIndex) -> list[tuple]:
    """Entries of every nu <= gamma, last dimension fastest, as a Kronecker product orders them."""
    return [
        tuple((m, l) for m, l in zip(gamma.support, nu) if l)
        for nu in itertools.product(*(range(l + 1) for _, l in gamma.entries))
    ]


class CombinationOperator:
    """The combination interpolant of a downward-closed set A as Chebyshev coefficients.

    Each term's tensor interpolant has degree at most gamma_m in dimension
    m, so the interpolant lies in the span of the products T_nu(y) = prod_m
    T_{nu_m}(y_m) over the nu <= gamma of the terms, which are the indices
    of A: ``indices`` is ``tuple(A)``.  ``coefficients(points, D)`` gives
    one row per nu, so that the interpolant at y is ``basis_at([y])[0] @
    coefficients(points, D)[0]``.  A term adds its signed coefficient times
    the Kronecker product of the 1D transforms (``chebyshev_transform``) of
    its levels, applied to its rows of D, into the rows of its box.  A query
    costs one table of cos(k arccos y_m), one gather-and-multiply per factor
    and one product, whatever the number of points.  Level 0 has the single
    node 0.0 and T_0 = cos(0) = 1 exactly, so only the dimensions where nu
    is positive enter its product.
    """

    def __init__(self, A: MultiIndexSet):
        _check_downward_closed(A)
        self.A = A
        self.M_active = A.M_active
        self.indices = tuple(A)
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

    def coefficients(self, points, *tables) -> tuple:
        """Chebyshev coefficients of the interpolant of each table's rows.

        ``points`` must hold every tensor point of every term, as tuples of
        length M_active, and each table the data at ``points`` as its rows
        (#points x N); the result has one table per data table, with one row
        per multi-index of ``indices`` (#indices x N).  Each term of
        ``combination_terms(A)`` looks its rows up once for all tables; the
        first point it lacks is named in a ``ConfigError``.
        """
        tables = [np.asarray(D, dtype=float) for D in tables]
        for D in tables:
            if D.ndim != 2 or len(D) != len(points):
                raise ConfigError(
                    f"data has shape {D.shape}, expected {len(points)} rows of a 2-D array"
                )
        row_of = {pt: i for i, pt in enumerate(points)}
        row_of_nu = {nu.entries: i for i, nu in enumerate(self.indices)}
        out = [np.zeros((len(self.indices), D.shape[1])) for D in tables]
        for t in combination_terms(self.A):
            try:
                rows = np.array(
                    [row_of[pt] for pt in _tensor_points(t.gamma, self.M_active)], dtype=np.intp
                )
            except KeyError as exc:
                raise ConfigError(f"data lack the grid point {exc.args[0]}") from None
            box = np.array([row_of_nu[nu] for nu in _box(t.gamma)], dtype=np.intp)
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

    ``terms`` must be ``combination_terms`` of a downward-closed set A, the
    indices at or below their gammas (else ``MonotonicityError``), and
    ``M_active`` A's.  ``data`` maps grid-point tuples (length M_active) to
    arrays of a common shape (empty data are a ``ConfigError``); the result
    is the signed sum of tensor-product Lagrange interpolants.  ``y`` may be
    longer than M_active (the interpolant is constant in inactive
    dimensions) or shorter (missing coordinates are 0).  A throwaway
    ``CombinationOperator(A)`` does the work; build one directly to evaluate
    the same data at many points.
    """
    A = multi_index_set(MultiIndex(nu) for t in terms for nu in _box(t.gamma))
    if list(terms) != combination_terms(A):
        raise MonotonicityError("terms are not the combination terms of a downward-closed set")
    op = CombinationOperator(A)
    if M_active != op.M_active:
        raise ConfigError(f"M_active is {M_active}, the terms activate {op.M_active} dimensions")
    if not data:
        raise ConfigError("data are empty: there is no nodal value to interpolate")
    points = sorted(data)
    shape = np.shape(data[points[0]])
    D = np.stack([np.asarray(data[pt], dtype=float).ravel() for pt in points])
    (C,) = op.coefficients(points, D)
    return (op.basis_at([y])[0] @ C).reshape(shape)
