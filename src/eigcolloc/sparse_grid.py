"""Multi-index sets, Gauss-Legendre nodes, and the sparse combination technique.

Multi-indices are stored sparsely (dimension -> level, 1-based dimensions,
absent means level 0), so sets over a countable parameter sequence stay cheap.
Interpolation grids are unions of tensor Gauss-Legendre grids; node values are
computed once per level and cached, which makes the union deduplication
bit-exact across levels.
"""
from __future__ import annotations

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
        return cls(
            frozenset(
                MultiIndex(tuple((int(m), int(l)) for m, l in d.items())) for d in doc
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
    if budget < 0.0:
        raise ConfigError("budget must be nonnegative")
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
    acc: dict[MultiIndex, int] = {}
    for alpha in A:
        supp = alpha.support
        ranges = [range(max(alpha.level(m) - 1, 0), alpha.level(m) + 1) for m in supp]
        for combo in itertools.product(*ranges):
            gamma = MultiIndex(tuple(zip(supp, combo)))
            sign = -1 if (alpha.norm1 - gamma.norm1) % 2 else 1
            acc[gamma] = acc.get(gamma, 0) + sign
    return [
        CombinationTerm(g, c)
        for g, c in sorted(acc.items(), key=lambda kv: kv[0].sort_key())
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
        """All Lagrange basis values at t; exact unit vector when t is a node."""
        return _barycentric(t, np.asarray(self.nodes), np.asarray(self.weights))


def _barycentric(t, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Lagrange basis values at every entry of t, one row per entry.

    The last axis of ``nodes`` and ``weights`` runs over a node set; a shorter
    set is padded with node ``inf`` and weight 0.  At a node the row is the
    exact unit vector.  Off the nodes the second barycentric form is scaled by
    the distance to the nearest node, so no term overflows close to a node.
    """
    d = np.asarray(t, dtype=float)[..., None] - nodes
    hit = d == 0.0
    on_node = hit.any(axis=-1, keepdims=True)
    dmin = np.abs(d).min(axis=-1, keepdims=True)
    v = weights * (dmin / np.where(hit, 1.0, d))
    return np.where(on_node, hit, v / np.where(on_node, 1.0, v.sum(axis=-1, keepdims=True)))


_NODE_CACHE: dict[int, NodeSet] = {}


def gauss_legendre_nodes(p: int) -> NodeSet:
    """Nodes of level p: all p+1 zeros of the Legendre polynomial of degree p+1.

    Newton iteration on the recurrence, then exact symmetrization so that
    nodes(p) == -reversed(nodes(p)) bit for bit; results are cached per level.
    """
    if p < 0:
        raise ValueError("level must be nonnegative")
    cached = _NODE_CACHE.get(p)
    if cached is not None:
        return cached
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
    ns = NodeSet(level=p, nodes=tuple(roots), weights=tuple(weights))
    _NODE_CACHE[p] = ns
    return ns


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


class CombinationOperator:
    """The combination-technique interpolant as one linear map of nodal data.

    For data stacked in ``points`` order as the rows of D, the interpolant at
    y is ``w(y) @ D``; ``points`` must hold every tensor point of every term,
    as tuples of length M_active.  The weight vector w(y) sums, over every tensor-point
    product of every term, the signed term coefficient times the 1D Lagrange
    basis values of the product's nodes.  Level 0 has the single node 0.0,
    whose basis value is exactly 1, so only the dimensions where a term's
    level is positive enter its products.  The products are tabulated once
    here; a batch of queries then costs one table of 1D basis values, one
    gather-and-multiply per factor and one ``np.bincount``.
    """

    def __init__(self, terms, M_active: int, points):
        if not terms:
            raise ConfigError("no combination terms to evaluate")
        self.M_active = M_active
        self.n_points = len(points)
        # one row of the 1D basis table per (dimension, level) some term uses
        pairs = sorted({e for t in terms for e in t.gamma.entries})
        slot = {e: i for i, e in enumerate(pairs)}
        L1 = 1 + max((l for _, l in pairs), default=0)
        self.dims = np.array([m - 1 for m, _ in pairs], dtype=np.intp)
        self.nodes = np.full((len(pairs), L1), np.inf)
        self.weights = np.zeros((len(pairs), L1))
        for i, (_, l) in enumerate(pairs):
            ns = gauss_legendre_nodes(l)
            self.nodes[i, : l + 1] = ns.nodes
            self.weights[i, : l + 1] = ns.weights
        # factors past a term's support point at a column of ones appended to
        # the flattened table
        one = len(pairs) * L1
        n_factors = max(len(t.gamma.entries) for t in terms)
        row_of = {pt: i for i, pt in enumerate(points)}
        coef, flat, rows = [], [], []
        for t in terms:
            sizes = [l + 1 for _, l in t.gamma.entries]
            node = np.indices(sizes).reshape(len(sizes), math.prod(sizes))
            idx = np.full((n_factors, node.shape[1]), one, dtype=np.intp)
            xy = np.zeros((node.shape[1], M_active))
            for k, e in enumerate(t.gamma.entries):
                idx[k] = slot[e] * L1 + node[k]
                xy[:, e[0] - 1] = self.nodes[slot[e], node[k]]
            coef.append(np.full(node.shape[1], float(t.coefficient)))
            flat.append(idx)
            rows.append([row_of[tuple(pt)] for pt in xy.tolist()])
        self.coef = np.concatenate(coef)
        self.flat = np.concatenate(flat, axis=1)
        self.rows = np.concatenate(rows).astype(np.intp)

    def weights_at(self, Y) -> np.ndarray:
        """Rows w(y) for the points y in the rows of Y, shape (len(Y), n_points).

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
        table = _barycentric(Y[:, self.dims], self.nodes, self.weights).reshape(Q, -1)
        table = np.concatenate([table, np.ones((Q, 1))], axis=1)
        w = np.broadcast_to(self.coef, (Q, len(self.coef)))
        for idx in self.flat:
            w = w * table[:, idx]
        index = (np.arange(Q)[:, None] * self.n_points + self.rows).ravel()
        return np.bincount(
            index, weights=w.ravel(), minlength=Q * self.n_points
        ).reshape(Q, self.n_points)


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
    ``CombinationOperator`` does the work; build one directly to evaluate the
    same data at many points.
    """
    points = sorted(data)
    shape = np.shape(data[points[0]])
    D = np.stack([np.asarray(data[pt], dtype=float).ravel() for pt in points])
    w = CombinationOperator(terms, M_active, points).weights_at([y])
    return (w @ D).reshape(shape)
