import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigcolloc import (
    DecaySequence,
    ParameterDimensionError,
    RankDeficiencyError,
    SolverError,
    assemble_at,
    m_orthonormalize,
    principal_angles,
    solve_gevp,
    synthetic_family,
)
from eigcolloc.eigensolver import ReducedFamily, _fix_signs


def random_pencil(n, seed):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    K = R + R.T
    Q = rng.standard_normal((n, n))
    M = Q @ Q.T + n * np.eye(n)
    return K, M


class TestSolveGevp:
    def test_diagonal_example(self):
        # I u = mu diag(4,1) u: values 1/4 and 1, axis-aligned vectors
        d = solve_gevp(np.eye(2), np.diag([4.0, 1.0]))
        assert d.values == pytest.approx([0.25, 1.0], abs=1e-14)
        assert d.vectors[:, 0] == pytest.approx([0.5, 0.0], abs=1e-14)
        assert d.vectors[:, 1] == pytest.approx([0.0, 1.0], abs=1e-14)

    def test_mass_orthonormality_and_residual(self):
        K, M = random_pencil(12, 1)
        d = solve_gevp(K, M)
        assert np.allclose(d.vectors.T @ M @ d.vectors, np.eye(12), atol=1e-12)
        res = K @ d.vectors - M @ d.vectors @ np.diag(d.values)
        assert np.abs(res).max() < 1e-10

    def test_values_ascending(self):
        K, M = random_pencil(20, 2)
        d = solve_gevp(K, M)
        assert np.all(np.diff(d.values) >= 0)

    def test_subset_matches_full(self):
        K, M = random_pencil(15, 3)
        full = solve_gevp(K, M)
        part = solve_gevp(K, M, k=4)
        assert part.k == 4
        assert part.values == pytest.approx(full.values[:4], abs=1e-12)
        for j in range(4):
            # same vector up to sign; sign convention should make them equal
            assert part.vectors[:, j] == pytest.approx(full.vectors[:, j], abs=1e-9)

    def test_deterministic_repeat(self):
        K, M = random_pencil(10, 4)
        a = solve_gevp(K, M, k=3)
        b = solve_gevp(K, M, k=3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_sign_convention(self):
        K, M = random_pencil(9, 5)
        d = solve_gevp(K, M)
        for j in range(9):
            col = d.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_indefinite_mass_rejected(self):
        with pytest.raises(SolverError):
            solve_gevp(np.eye(2), np.diag([1.0, -1.0]))

    def test_bad_subset_size(self):
        with pytest.raises(SolverError):
            solve_gevp(np.eye(3), np.eye(3), k=4)

    def test_shape_mismatch(self):
        with pytest.raises(SolverError):
            solve_gevp(np.eye(3), np.eye(2))

    def test_standard_problem_without_mass(self):
        K, _ = random_pencil(8, 9)
        d = solve_gevp(K, None, k=3)
        assert d.values == pytest.approx(np.linalg.eigvalsh(K)[:3], abs=1e-12)
        assert np.allclose(d.vectors.T @ d.vectors, np.eye(3), atol=1e-12)
        assert np.array_equal(d.vectors, solve_gevp(K, k=3).vectors)

    def test_nonsquare_standard_problem_rejected(self):
        with pytest.raises(SolverError):
            solve_gevp(np.ones((3, 2)), None)


def spd_family(n, n_terms, seed):
    """Family whose pencil eigenvalues at every y lie within 0.15 of 1 + d_i,
    with the d_i at least 0.5 apart, so that every eigenvalue stays simple."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, n))
    mass = C @ C.T / n + np.eye(n)
    L = np.linalg.cholesky(mass)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    d = 1.0 + np.cumsum(rng.uniform(0.5, 1.5, n))

    def pull_back(A):
        # pencil (L A L', L L') has the spectrum of A
        B = L @ A @ L.T
        return 0.5 * (B + B.T)

    terms = []
    for _ in range(n_terms):
        R = rng.standard_normal((n, n))
        E = R + R.T
        terms.append(pull_back(0.05 * E / np.linalg.norm(E, 2)))
    return synthetic_family(
        pull_back((Q * d) @ Q.T), terms, mass, DecaySequence((0.05,) * n_terms)
    )


@st.composite
def family_point_cluster(draw):
    n = draw(st.integers(4, 30))
    n_terms = draw(st.integers(1, 3))
    fam = spd_family(n, n_terms, draw(st.integers(0, 2**32 - 1)))
    y = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_terms, max_size=n_terms))
    lo = draw(st.integers(1, n - 1))
    hi = draw(st.integers(lo, min(lo + 2, n - 1)))
    return fam, np.array(y), list(range(lo, hi + 1))


class TestReducedFamily:
    # the dense solve of the assembled pencil is the oracle; tolerances are
    # fixed in advance: eigenvalues 1e-10 relative, cluster span 1e-8 rad,
    # M-orthonormality 1e-10, and equal signs for the (simple) eigenvectors
    @settings(max_examples=150)
    @given(family_point_cluster())
    def test_matches_dense_solve(self, case):
        fam, y, J = case
        k = J[-1] + 1
        dense = solve_gevp(assemble_at(fam, y), fam.mass, k=k)
        reduced = ReducedFamily(fam)
        fast = reduced.lift(solve_gevp(reduced.at(y), None, k=k))
        assert np.all(
            np.abs(fast.values - dense.values) <= 1e-10 * np.abs(dense.values)
        )
        cols = [j - 1 for j in J]
        angles = principal_angles(fast.vectors[:, cols], dense.vectors[:, cols], fam.mass)
        assert angles.max() <= 1e-8
        U = fast.vectors
        assert np.abs(U.T @ fam.mass @ U - np.eye(k)).max() <= 1e-10
        assert np.all(np.einsum("ij,ij->j", U, fam.mass @ dense.vectors) > 0)

    def test_short_point_pads_with_zeros(self):
        fam = spd_family(6, 3, 1)
        reduced = ReducedFamily(fam)
        assert np.array_equal(reduced.at([0.5]), reduced.at([0.5, 0.0, 0.0]))
        assert np.array_equal(reduced.at([]), reduced.terms[0])

    def test_long_point_rejected(self):
        reduced = ReducedFamily(spd_family(5, 2, 2))
        with pytest.raises(ParameterDimensionError):
            reduced.at([0.1, 0.2, 0.3])


def loop_fix_signs(U):
    """Per-column reference for ``_fix_signs``."""
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
    return U


class TestFixSigns:
    # entries drawn from a few values of equal magnitude and either sign, so
    # columns with tied largest magnitudes are common: the first one decides
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, -0.5, 1.5]),
                         min_size=n, max_size=n),
                min_size=1, max_size=8,
            )
        )
    )
    def test_bit_identical_to_the_column_loop(self, rows):
        U = np.array(rows)
        want = loop_fix_signs(U.copy())
        got = _fix_signs(U.copy())
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMOrthonormalize:
    def test_produces_mass_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        V = rng.standard_normal((10, 4))
        Q = rng.standard_normal((10, 10))
        M = Q @ Q.T + 10 * np.eye(10)
        U = m_orthonormalize(V, M)
        assert np.allclose(U.T @ M @ U, np.eye(4), atol=1e-12)

    def test_preserves_leading_spans(self):
        # Gram-Schmidt is triangular: first j columns span the same space
        rng = np.random.default_rng(7)
        V = rng.standard_normal((8, 3))
        M = np.eye(8)
        U = m_orthonormalize(V, M)
        for j in (1, 2, 3):
            P = V[:, :j] @ np.linalg.pinv(V[:, :j])
            assert np.allclose(P @ U[:, :j], U[:, :j], atol=1e-10)

    def test_sign_convention_first_nonzero_positive(self):
        U = m_orthonormalize(np.array([[-2.0, 0.0], [0.0, 3.0]]), np.eye(2))
        assert U[0, 0] > 0 and U[1, 1] > 0

    def test_rank_deficiency_detected(self):
        V = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(RankDeficiencyError) as err:
            m_orthonormalize(V, np.eye(3))
        assert err.value.column == 1

    def test_zero_column_rejected(self):
        V = np.zeros((3, 1))
        with pytest.raises(RankDeficiencyError):
            m_orthonormalize(V, np.eye(3))

    def test_idempotent_on_orthonormal_input(self):
        rng = np.random.default_rng(8)
        V = rng.standard_normal((6, 3))
        M = np.eye(6)
        U = m_orthonormalize(V, M)
        again = m_orthonormalize(U, M)
        assert np.allclose(U, again, atol=1e-13)
