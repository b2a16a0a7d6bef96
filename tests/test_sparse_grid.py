import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigcolloc import (
    ConfigError,
    ExtrapolationError,
    MonotonicityError,
    MultiIndex,
    MultiIndexSet,
    ParameterDimensionError,
    WeightError,
    anisotropic_set,
    combination_interpolate,
    combination_terms,
    compute_tau_weights,
    gauss_legendre_nodes,
    grid_points,
    is_monotone,
    lagrange_basis_eval,
    multi_index_set,
    point_count_bound,
)
from eigcolloc import DecaySequence
from eigcolloc.sparse_grid import ORIGIN, CombinationOperator


def mi(*levels):
    return MultiIndex.from_dense(levels)


def random_monotone_set(rng, n_dims=3, max_level=4, n_grow=8):
    """Grow a downward-closed set by repeatedly adding admissible indices."""
    indices = {ORIGIN}
    for _ in range(n_grow):
        candidates = []
        for alpha in list(indices):
            for m in range(1, n_dims + 1):
                up = MultiIndex(tuple({**dict(alpha.entries), m: alpha.level(m) + 1}.items()))
                if up in indices or up.level(m) > max_level:
                    continue
                if all(up.minus_unit(d) in indices for d in up.support):
                    candidates.append(up)
        if not candidates:
            break
        indices.add(candidates[rng.integers(len(candidates))])
    return multi_index_set(indices)


class TestMultiIndex:
    def test_zero_levels_dropped(self):
        a = mi(2, 0, 1)
        assert a.entries == ((1, 2), (3, 1))
        assert a.level(2) == 0 and a.level(3) == 1
        assert a.support == (1, 3)
        assert a.max_dim == 3
        assert a.norm1 == 3

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex(((1, 2), (1, 1)))

    def test_partial_order(self):
        assert mi(1, 0) <= mi(1, 1)
        assert not (mi(2, 0) <= mi(1, 1))
        assert ORIGIN <= mi(5)

    def test_minus_unit(self):
        assert mi(2, 1).minus_unit(2) == mi(2)
        assert mi(1).minus_unit(1) == ORIGIN
        with pytest.raises(ValueError):
            mi(1).minus_unit(2)

    def test_dense_round_trip(self):
        a = mi(0, 3, 0, 1)
        assert a.to_dense(5) == (0, 3, 0, 1, 0)
        assert MultiIndex.from_dense(a.to_dense(4)) == a


class TestMultiIndexSet:
    def test_m_active(self):
        assert multi_index_set([ORIGIN]).M_active == 0
        assert multi_index_set([ORIGIN, mi(0, 0, 1)]).M_active == 3

    def test_deterministic_iteration(self):
        A = multi_index_set([mi(1, 1), mi(2), ORIGIN, mi(0, 1)])
        order = list(A)
        assert order[0] == ORIGIN
        assert sorted(a.norm1 for a in order) == [a.norm1 for a in order]
        assert set(order) == set(A.indices)
        # iteration order is a pure function of the set
        assert order == list(A) == list(multi_index_set(reversed(order)))

    def test_json_round_trip(self):
        A = multi_index_set([ORIGIN, mi(1), mi(0, 2)])
        doc = json.loads(json.dumps(A.to_json_list()))
        assert MultiIndexSet.from_json_list(doc) == A


class TestIsMonotone:
    def test_origin_only(self):
        assert is_monotone(multi_index_set([ORIGIN]))

    def test_missing_origin(self):
        assert not is_monotone(multi_index_set([mi(1)]))

    def test_hole_detected(self):
        assert not is_monotone(multi_index_set([ORIGIN, mi(2)]))

    def test_random_closures_are_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert is_monotone(random_monotone_set(rng))


class TestAnisotropicSet:
    def test_small_budget_gives_origin(self):
        A = anisotropic_set([2.0, 3.0], 0.1)
        assert set(A.indices) == {ORIGIN}

    def test_hand_enumerated_example(self):
        A = anisotropic_set([math.e, math.e**2], 2.0)
        assert set(A.indices) == {ORIGIN, mi(1), mi(2), mi(0, 1)}

    def test_weight_at_most_one_rejected(self):
        with pytest.raises(WeightError):
            anisotropic_set([1.0], 1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            anisotropic_set([2.0], -1.0)

    def test_growing_budgets_stay_monotone(self):
        kappa = DecaySequence(tuple(0.3 * m**-2.0 for m in range(1, 5)))
        rho = compute_tau_weights(kappa, delta=0.5, epsilon=0.5)
        sizes = []
        for L in (0.1, 0.2, 0.4, 0.8):
            A = anisotropic_set(rho, L)
            assert is_monotone(A)
            sizes.append(len(A))
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_empty_weights(self):
        assert set(anisotropic_set([], 3.0).indices) == {ORIGIN}


class TestCombinationTerms:
    def test_origin_only(self):
        terms = combination_terms(multi_index_set([ORIGIN]))
        assert len(terms) == 1
        assert terms[0].gamma == ORIGIN and terms[0].coefficient == 1

    def test_1d_telescope(self):
        terms = combination_terms(multi_index_set([ORIGIN, mi(1)]))
        assert [(t.gamma, t.coefficient) for t in terms] == [(mi(1), 1)]

    def test_2d_cross(self):
        terms = combination_terms(multi_index_set([ORIGIN, mi(1), mi(0, 1)]))
        got = {t.gamma: t.coefficient for t in terms}
        assert got == {ORIGIN: -1, mi(1): 1, mi(0, 1): 1}

    def test_coefficients_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            A = random_monotone_set(rng)
            assert sum(t.coefficient for t in combination_terms(A)) == 1


class TestGaussLegendreNodes:
    def test_level_zero(self):
        assert gauss_legendre_nodes(0).nodes == (0.0,)

    def test_level_one(self):
        ns = gauss_legendre_nodes(1)
        r = 1.0 / math.sqrt(3.0)
        assert ns.nodes[0] == pytest.approx(-r, abs=1e-15)
        assert ns.nodes[1] == pytest.approx(r, abs=1e-15)

    def test_against_bisection_oracle(self):
        # independent root finder: sign-change bisection on the recurrence
        def legendre(n, x):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            return p1 if n >= 1 else p0

        for p in (2, 4, 6):
            n = p + 1
            xs = np.linspace(-1, 1, 2000)
            vals = [legendre(n, float(x)) for x in xs]
            roots = []
            for i in range(len(xs) - 1):
                if vals[i] == 0.0:
                    roots.append(float(xs[i]))
                elif vals[i] * vals[i + 1] < 0:
                    a, b = float(xs[i]), float(xs[i + 1])
                    for _ in range(200):
                        c = 0.5 * (a + b)
                        if legendre(n, a) * legendre(n, c) <= 0:
                            b = c
                        else:
                            a = c
                    roots.append(0.5 * (a + b))
            assert len(roots) == n
            got = gauss_legendre_nodes(p).nodes
            for r, g in zip(sorted(roots), got):
                assert g == pytest.approx(r, abs=1e-13)

    def test_exact_symmetry(self):
        for p in range(9):
            nodes = gauss_legendre_nodes(p).nodes
            n = len(nodes)
            for i in range(n):
                assert nodes[i] == -nodes[n - 1 - i]
            if n % 2:
                assert nodes[n // 2] == 0.0

    def test_strictly_inside_and_ascending(self):
        for p in range(9):
            nodes = gauss_legendre_nodes(p).nodes
            assert all(-1 < x < 1 for x in nodes)
            assert all(a < b for a, b in zip(nodes, nodes[1:]))

    def test_cache_returns_same_object(self):
        assert gauss_legendre_nodes(3) is gauss_legendre_nodes(3)


class TestLagrangeBasis:
    def test_kronecker_property_exact(self):
        ns = gauss_legendre_nodes(4)
        for k, xk in enumerate(ns.nodes):
            for j in range(5):
                assert lagrange_basis_eval(ns, j, xk) == (1.0 if j == k else 0.0)

    def test_level_zero_constant(self):
        ns = gauss_legendre_nodes(0)
        for t in (-1.0, -0.3, 0.0, 0.9):
            assert lagrange_basis_eval(ns, 0, t) == 1.0

    def test_level_one_midpoint(self):
        ns = gauss_legendre_nodes(1)
        assert lagrange_basis_eval(ns, 0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert lagrange_basis_eval(ns, 1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_partition_of_unity(self):
        ns = gauss_legendre_nodes(5)
        rng = np.random.default_rng(2)
        for t in rng.uniform(-1, 1, 10):
            total = sum(lagrange_basis_eval(ns, k, float(t)) for k in range(6))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            lagrange_basis_eval(gauss_legendre_nodes(2), 3, 0.0)


class TestGridPoints:
    def test_origin_only(self):
        assert grid_points(multi_index_set([ORIGIN])) == [()]

    def test_2d_cross(self):
        A = multi_index_set([ORIGIN, mi(1), mi(0, 1)])
        pts = grid_points(A)
        r = gauss_legendre_nodes(1).nodes[1]
        expect = {(0.0, 0.0), (-r, 0.0), (r, 0.0), (0.0, -r), (0.0, r)}
        assert set(pts) == expect
        assert len(pts) == point_count_bound(A) == 5

    def test_non_monotone_general_union(self):
        # {(1,)} without the origin: inner box brings level 0 back in
        A = multi_index_set([mi(1)])
        pts = grid_points(A)
        r = gauss_legendre_nodes(1).nodes[1]
        assert set(pts) == {(-r,), (0.0,), (r,)}

    def test_cardinality_never_exceeds_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_monotone_set(rng)
            bound = point_count_bound(A)
            assert len(grid_points(A)) <= bound <= len(A) ** 2


class TestPointCountBound:
    def test_origin(self):
        assert point_count_bound(multi_index_set([ORIGIN])) == 1

    def test_total_degree_two(self):
        A = multi_index_set(
            [ORIGIN, mi(1), mi(0, 1), mi(2), mi(1, 1), mi(0, 2)]
        )
        # 1 + 2 + 2 + 3 + 4 + 3
        assert point_count_bound(A) == 15
        assert point_count_bound(A) <= len(A) ** 2

    def test_rejects_non_monotone(self):
        with pytest.raises(MonotonicityError):
            point_count_bound(multi_index_set([mi(1)]))


class TestCombinationInterpolate:
    def polynomial(self, A, rng, width=2):
        coeffs = {alpha: rng.standard_normal(width) for alpha in A}

        def f(y):
            out = np.zeros(width)
            for alpha, c in coeffs.items():
                term = 1.0
                for m, l in alpha.entries:
                    term *= y[m - 1] ** l
                out += c * term
            return out

        return f

    def test_reproduces_polynomials_in_the_set(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = random_monotone_set(rng)
            M = A.M_active
            f = self.polynomial(A, rng)
            terms = combination_terms(A)
            data = {pt: f(pt + (0.0,) * (M - len(pt))) for pt in grid_points(A)}
            for _ in range(20):
                y = rng.uniform(-1, 1, max(M, 1))
                got = combination_interpolate(terms, M, data, y)
                assert np.allclose(got, f(y), atol=1e-10)

    def test_reproduces_polynomial_nodal_data_at_grid_points(self):
        # nodes are not nested across levels, so arbitrary nodal data is not
        # reproduced at every grid point; data sampled from a polynomial whose
        # multidegrees lie in the set is, exactly up to roundoff
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = random_monotone_set(rng)
            M = A.M_active
            f = self.polynomial(A, rng)
            terms = combination_terms(A)
            data = {pt: f(pt + (0.0,) * (M - len(pt))) for pt in grid_points(A)}
            for pt in data:
                got = combination_interpolate(terms, M, data, pt)
                assert np.allclose(got, data[pt], atol=1e-12)

    def test_constant_data_everywhere(self):
        rng = np.random.default_rng(6)
        A = random_monotone_set(rng)
        c = np.array([3.5, -1.25])
        data = {pt: c for pt in grid_points(A)}
        terms = combination_terms(A)
        for _ in range(5):
            y = rng.uniform(-1, 1, A.M_active)
            assert np.allclose(
                combination_interpolate(terms, A.M_active, data, y), c, atol=1e-13
            )

    def test_inactive_dimensions_ignored(self):
        A = multi_index_set([ORIGIN, mi(1)])
        terms = combination_terms(A)
        data = {pt: np.array([pt[0]]) for pt in grid_points(A)}
        a = combination_interpolate(terms, 1, data, [0.3])
        b = combination_interpolate(terms, 1, data, [0.3, 0.9, -0.4])
        assert np.array_equal(a, b)

    def test_zero_active_dimensions(self):
        data = {(): np.array([7.0])}
        terms = combination_terms(multi_index_set([ORIGIN]))
        out = combination_interpolate(terms, 0, data, [0.5, -0.5])
        assert np.array_equal(out, np.array([7.0]))

    def test_extrapolation_refused(self):
        A = multi_index_set([ORIGIN, mi(1)])
        terms = combination_terms(A)
        data = {pt: np.zeros(1) for pt in grid_points(A)}
        with pytest.raises(ExtrapolationError):
            combination_interpolate(terms, 1, data, [1.5])


def loop_basis(ns, t):
    """Per-node reference for ``NodeSet.basis_all``: unit vector at a node."""
    x = np.asarray(ns.nodes)
    for k, xk in enumerate(ns.nodes):
        if t == xk:
            e = np.zeros(len(x))
            e[k] = 1.0
            return e
    w = np.asarray(ns.weights) / (t - x)
    return w / w.sum()


def loop_interpolate(terms, M_active, data, y):
    """The per-term tensor-product loop the combination operator replaced.

    Kept as the reference: the signed sum over every term of its tensor
    Lagrange interpolant, one product of 1D basis values per tensor point.
    """
    y = list(y) + [0.0] * max(M_active - len(y), 0)
    out = None
    for term in terms:
        axes = [gauss_legendre_nodes(term.gamma.level(m)) for m in range(1, M_active + 1)]
        basis = [loop_basis(ns, y[m]) for m, ns in enumerate(axes)]
        for combo in itertools.product(*[range(len(ns)) for ns in axes]):
            coeff = float(term.coefficient)
            for m, k in enumerate(combo):
                coeff *= basis[m][k]
            point = tuple(axes[m].nodes[k] for m, k in enumerate(combo))
            contrib = coeff * data[point]
            out = contrib if out is None else out + contrib
    return out


@st.composite
def monotone_set_with_points(draw):
    """A random downward-closed set, a polynomial in its span, query points.

    The polynomial sums random multiples of y^beta over beta in the set, so
    the combination technique reproduces it exactly up to roundoff.  The
    queries mix grid points and uniform points of the box.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = random_monotone_set(
        rng, n_dims=draw(st.integers(1, 4)), max_level=draw(st.integers(1, 5)),
        n_grow=draw(st.integers(0, 12)),
    )
    M = A.M_active
    coeffs = {alpha.to_dense(M): rng.standard_normal(2) for alpha in A}

    def poly(y):
        return sum(c * math.prod(y[m] ** b[m] for m in range(M)) for b, c in coeffs.items())

    pts = grid_points(A)
    on = [pts[i] for i in rng.choice(len(pts), size=min(4, len(pts)), replace=False)]
    off = [tuple(y) for y in rng.uniform(-1.0, 1.0, size=(4, M))]
    return A, poly, on + off


class TestCombinationOperator:
    @settings(max_examples=60)
    @given(monotone_set_with_points())
    def test_exact_on_polynomials_in_the_span(self, case):
        A, poly, queries = case
        M = A.M_active
        pts = grid_points(A)
        op = CombinationOperator(combination_terms(A), M, pts)
        D = np.stack([poly(pt) for pt in pts])
        got = op.weights_at(np.array(queries).reshape(len(queries), M)) @ D
        want = np.stack([poly(y) for y in queries])
        scale = max(1.0, float(np.abs(D).max()))
        assert np.abs(got - want).max() <= 1e-10 * scale

    @settings(max_examples=60)
    @given(monotone_set_with_points())
    def test_matches_the_loop_on_arbitrary_data(self, case):
        # data not in the span: the interpolant is a genuine combination of
        # tensor interpolants, and the operator must sum the same terms
        A, _, queries = case
        M = A.M_active
        pts = grid_points(A)
        terms = combination_terms(A)
        rng = np.random.default_rng(len(pts))
        data = {pt: rng.standard_normal(3) for pt in pts}
        op = CombinationOperator(terms, M, pts)
        D = np.stack([data[pt] for pt in pts])
        for y in queries:
            want = loop_interpolate(terms, M, data, y)
            got = op.weights_at([y])[0] @ D
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(combination_interpolate(terms, M, data, y), got)

    def test_batch_rows_match_single_queries(self):
        A = random_monotone_set(np.random.default_rng(8))
        pts = grid_points(A)
        op = CombinationOperator(combination_terms(A), A.M_active, pts)
        Y = np.random.default_rng(9).uniform(-1.0, 1.0, size=(7, A.M_active))
        batch = op.weights_at(Y)
        for y, row in zip(Y, batch):
            assert np.array_equal(op.weights_at([y])[0], row)

    @given(st.integers(0, 6), st.floats(-1.0, 1.0))
    def test_basis_values_are_finite_next_to_a_node(self, level, t):
        # the scaled barycentric form may not overflow when t lies a few
        # subnormals away from a node
        ns = gauss_legendre_nodes(level)
        for x in (t, *ns.nodes):
            for v in (x, np.nextafter(x, 2.0), np.nextafter(x, -2.0)):
                b = ns.basis_all(min(max(v, -1.0), 1.0))
                assert np.all(np.isfinite(b))
                assert abs(b.sum() - 1.0) <= 1e-12

    def test_extrapolation_names_the_coordinate(self):
        A = multi_index_set([ORIGIN, mi(1), mi(0, 1)])
        op = CombinationOperator(combination_terms(A), 2, grid_points(A))
        with pytest.raises(ExtrapolationError, match="coordinate 2 = 1.5"):
            op.weights_at([[0.0, 0.0], [0.2, 1.5]])
        with pytest.raises(ExtrapolationError, match="coordinate 1 = nan"):
            op.weights_at([[math.nan]])
        with pytest.raises(ParameterDimensionError):
            op.weights_at([0.1, 0.2])
