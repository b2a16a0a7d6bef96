import math
import os
import re
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import eigcolloc
from eigcolloc import (
    DecaySequence,
    ParameterDimensionError,
    RankDeficiencyError,
    SolverError,
    anisotropic_set,
    assemble_at,
    check_isolation,
    collocate,
    designed_crossing_family,
    estimate_error,
    m_orthonormalize,
    model_diffusion_1d,
    model_diffusion_2d,
    principal_angles,
    solve_gevp,
    synthetic_family,
)
from eigcolloc import eigensolver
from eigcolloc.eigensolver import (
    BAND_CROSSOVER,
    CHUNK,
    ReducedFamily,
    SpectralDecomposition,
    _fix_signs,
    _openblas_copies,
)


def lift(reduced, decomp):
    """The pencil's eigenpairs from a solve of the reduced matrix of
    ``reduced`` (``solve_gevp(reduced.at(y), None)``): the reference the
    reduced point solves are held to."""
    W = np.array(decomp.vectors, dtype=float, order="F")
    return SpectralDecomposition(decomp.values, reduced._lift(W))


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

    @pytest.mark.parametrize("M", [np.zeros((0, 0)), None], ids=["pencil", "standard"])
    def test_empty_input_rejected(self, M):
        with pytest.raises(SolverError, match="^K and M must not be empty$"):
            solve_gevp(np.zeros((0, 0)), M)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["K", "M"])
    def test_non_finite_input_is_named(self, name, bad):
        # refused before the factorisation, which dsygst would not check
        K, M = np.diag([1.0, 3.0, 4.0]), np.eye(3)
        (K if name == "K" else M)[0, 0] = bad
        with pytest.raises(SolverError, match=f"^{name} has a non-finite entry$"):
            solve_gevp(K, M, k=2)
        if name == "K":
            with pytest.raises(SolverError, match="^K has a non-finite entry$"):
                solve_gevp(K, None, k=2)

    @pytest.mark.parametrize(
        "k", [2.5, 2.0, True, False, "2", np.float64(2.0)],
        ids=["2.5", "2.0", "True", "False", "str", "float64"],
    )
    def test_k_must_be_an_integer(self, k):
        K, M = random_pencil(5, 10)
        with pytest.raises(SolverError, match=re.escape(f"k must be an integer, got {k!r}")):
            solve_gevp(K, M, k=k)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.intp(2)])
    def test_numpy_integer_k_is_accepted(self, k):
        K, M = random_pencil(5, 10)
        d = solve_gevp(K, M, k=k)
        assert np.array_equal(d.values, solve_gevp(K, M, k=2).values)

    def test_only_the_symmetric_part_of_K_enters(self):
        # K's upper triangle doubled and its lower one dropped has the
        # symmetric part K, exactly
        K, M = random_pencil(12, 11)
        a = solve_gevp(K, M, k=4)
        b = solve_gevp(2.0 * np.triu(K, 1) + np.diag(np.diag(K)), M, k=4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


def two_solve_reduction(L, K):
    """inv(L) S inv(L)' with S the symmetric part of K by two dense
    triangular solves: the textbook formula, the oracle of ``_reduce``."""
    KL = scipy.linalg.solve_triangular(L, K, lower=True)
    A = scipy.linalg.solve_triangular(L, KL.T, lower=True)
    return 0.5 * (A + A.T)


class TestReduce:
    # dims cross the row blocks of the mirror (64) and dsygst's own blocks;
    # K is not symmetric, so only its symmetric part must enter.  The
    # tolerance against the two-solve formula is fixed in advance: 1e-12 of
    # the largest entry (M = Q Q' + n I has condition number about 5)
    @settings(max_examples=60)
    @given(st.integers(1, 140), st.integers(0, 2**32 - 1))
    def test_exactly_symmetric_and_agrees_with_two_triangular_solves(self, n, seed):
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((n, n))
        _, M = random_pencil(n, seed)
        L = np.linalg.cholesky(M)
        A = eigensolver._reduce(L, K)
        assert A.flags.c_contiguous and A.shape == (n, n)
        assert np.array_equal(A, A.T)
        want = two_solve_reduction(L, K)
        assert np.abs(A - want).max() <= 1e-12 * np.abs(want).max()


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


def banded_family(n, kd, n_terms, seed):
    """Family whose matrices have bandwidth kd and whose pencil eigenvalues at
    every y lie within 0.3 of d_i, with the d_i at least 0.8 apart, so that
    every eigenvalue stays simple."""
    rng = np.random.default_rng(seed)
    d = 1.0 + np.cumsum(rng.uniform(0.8, 1.5, n))

    def band(norm):
        # symmetric, of 2-norm `norm`, with no zero on its kd subdiagonals
        E = np.diag(rng.uniform(-1.0, 1.0, n))
        for r in range(1, kd + 1):
            e = rng.uniform(0.5, 1.0, n - r) * rng.choice([-1.0, 1.0], n - r)
            E += np.diag(e, r) + np.diag(e, -r)
        return norm * E / np.linalg.norm(E, 2)

    # Weyl and Ostrowski: the terms move an eigenvalue by at most 0.2, the
    # mass matrix by at most d_i * 0.1 / d_max
    return synthetic_family(
        np.diag(d) + band(0.05), [band(0.05) for _ in range(n_terms)],
        np.eye(n) + band(0.1 / d[-1]), DecaySequence((0.05,) * n_terms),
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
        fast = lift(reduced, solve_gevp(reduced.at(y), None, k=k))
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

    def test_terms_are_one_stack_of_symmetric_reductions(self):
        fam = spd_family(70, 3, 13)
        reduced = ReducedFamily(fam)
        T = reduced.terms
        assert T.shape == (4, 70, 70) and T.flags.c_contiguous
        L = reduced.LT.T
        for A, B in zip(T, (fam.B0, *fam.B_terms)):
            assert np.array_equal(A, eigensolver._reduce(L, B))
        A = reduced.at([0.3, -0.2, 0.7])
        assert np.array_equal(A, A.T)

    def test_terms_do_not_depend_on_the_workers(self, monkeypatch):
        fam = spd_family(90, 5, 14)
        made = []
        for workers in (1, 2):
            monkeypatch.setattr(eigensolver, "_nproc", lambda: workers)
            made.append(ReducedFamily(fam).terms)
        assert np.array_equal(made[0], made[1])

    def test_long_point_rejected(self):
        reduced = ReducedFamily(spd_family(5, 2, 2))
        with pytest.raises(ParameterDimensionError):
            reduced.at([0.1, 0.2, 0.3])


class TestReducedFamilySolve:
    def test_long_point_is_named_before_any_solve(self):
        solver = ReducedFamily(model_diffusion_1d(10, 0.3, 2.0, 2))
        solver.solve((), 2)
        with pytest.raises(
            ParameterDimensionError,
            match=re.escape("parameter point (0.1, 0.2, 0.3) has 3 components, family has 2"),
        ):
            solved(solver.solve_many([[0.1], [0.1, 0.2, 0.3], [0.2]], 2))
        assert (solver.solves, solver.reused) == (1, 0)
        assert list(solver._memo) == [((0.0, 0.0), 2)]

    def test_origin_is_the_dense_solve_memoised(self):
        fam = spd_family(9, 3, 4)
        solver = ReducedFamily(fam)
        first = solver.solve((), 4)
        dense = solve_gevp(fam.B0, fam.mass, k=4)
        assert np.array_equal(first.values, dense.values)
        assert np.array_equal(first.vectors, dense.vectors)
        # made before the reduction, which waits for a point off the origin
        assert "terms" not in vars(solver)
        # the origin of any padding is the same memo entry
        assert solver.solve((0.0, 0.0), 4) is first
        assert (solver.solves, solver.reused) == (1, 1)
        # the reduced solve at the origin is the same bit for bit
        reduced = lift(solver, solve_gevp(solver.at(()), None, k=4))
        assert np.array_equal(reduced.values, dense.values)
        assert np.array_equal(reduced.vectors, dense.vectors)

    def test_points_off_the_origin_are_reduced_solves(self):
        fam = spd_family(9, 3, 5)
        solver = ReducedFamily(fam)
        y = (0.4, 0.0, -0.3)
        first = solver.solve(y[:1], 3)
        assert "terms" in vars(solver)
        direct = lift(solver, solve_gevp(solver.at(y[:1]), None, k=3))
        assert np.array_equal(first.vectors, direct.vectors)
        assert solver.solve((0.4, 0.0, 0.0), 3) is first
        assert solver.solve(y, 3) is not first
        assert solver.solve(y[:1], 2) is not first
        assert (solver.solves, solver.reused) == (3, 1)

    def test_without_carry_only_the_origin_is_kept(self):
        solver = ReducedFamily(spd_family(6, 2, 6), carry=False)
        a = solver.solve((0.5,), 2)
        b = solver.solve((0.5,), 2)
        assert a is not b and np.array_equal(a.vectors, b.vectors)
        assert solver.solve((), 2) is solver.solve((0.0, 0.0), 2)
        assert (solver.solves, solver.reused) == (3, 1)

    def test_failure_names_the_point(self, monkeypatch):
        def broken(self, y, k):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(ReducedFamily, "_solve_point", broken)
        with pytest.raises(SolverError, match=r"synthetic failure at point \(0.5, -0.25\)"):
            ReducedFamily(spd_family(6, 2, 7)).solve((0.5, -0.25), 2)


@st.composite
def banded_point_cluster(draw):
    # a random banded pencil, the 1D model or the designed crossing family,
    # a point and a cluster of simple or (at the crossing) close eigenvalues
    kind = draw(st.sampled_from(["random", "diffusion1d", "crossing"]))
    if kind == "random":
        n, n_terms = draw(st.integers(4, 30)), draw(st.integers(1, 3))
        kd = draw(st.integers(0, BAND_CROSSOVER - 1))
        fam = banded_family(n, kd, n_terms, draw(st.integers(0, 2**32 - 1)))
    elif kind == "diffusion1d":
        fam = model_diffusion_1d(draw(st.integers(4, 60)), 0.3, 2.0, draw(st.integers(1, 3)))
    else:
        fam = designed_crossing_family()
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.0, 1.0, fam.n_terms
    )
    if kind == "crossing":
        return fam, y, [2, 3]
    lo = draw(st.integers(1, fam.dim - 1))
    return fam, y, list(range(lo, draw(st.integers(lo, min(lo + 2, fam.dim - 1))) + 1))


class TestBandedRoute:
    # the dense solve of the assembled pencil is the oracle, with the
    # tolerances of TestReducedFamily: eigenvalues 1e-10 relative, cluster
    # span 1e-8 rad, M-orthonormality 1e-10, and equal signs for the simple
    # eigenvectors whose sign rule is well posed (eigenvalue apart from its
    # neighbours by 1e-6 relative, largest entry ahead of the next by 1e-6)
    @settings(max_examples=150)
    @given(banded_point_cluster())
    def test_matches_dense_solve(self, case):
        # on dsbgvx's own eigenvectors, as the crossover leaves these sizes,
        # and on inverse iteration, with the crossover moved to 0; the two
        # kernels give the same eigenvalues, bit for bit
        own = self.check_against_dense(*case)
        with mock.patch.object(eigensolver, "INVERSE_ITERATION_FROM", 0):
            stein = self.check_against_dense(*case)
        assert np.array_equal(own.values, stein.values)

    @pytest.mark.parametrize(
        "fam, y",
        [
            # the cluster's eigenvalues lie about 1e-12 apart
            (designed_crossing_family(), 1e-12),
            # a diagonal pencil whose eigenvalue 2 is double at every y: the
            # two shifts are equal
            (synthetic_family(np.diag([1.0, 2.0, 2.0, 4.0]), [np.diag([0.1, 0.0, 0.0, 0.1])],
                              np.eye(4), DecaySequence((0.2,))), 0.5),
        ],
        ids=["crossing", "double"],
    )
    def test_inverse_iteration_keeps_a_cluster_orthonormal(self, fam, y):
        # the cluster [2, 3] comes out M-orthonormal only through the
        # Gram-Schmidt step within its group
        with mock.patch.object(eigensolver, "INVERSE_ITERATION_FROM", 0):
            self.check_against_dense(fam, np.array([y]), [2, 3])

    def test_inverse_iteration_that_does_not_converge_names_the_point(self):
        # with no step allowed no iterate grows: the solve fails, in place
        fam = model_diffusion_1d(10, 0.3, 2.0, 2)
        with mock.patch.object(eigensolver, "INVERSE_ITERATION_FROM", 0), \
                mock.patch.object(eigensolver, "_STEPS", 0):
            with pytest.raises(SolverError, match=r"inverse iteration did not converge for "
                               r"eigenvalue 1 at point \(0\.5,\)"):
                ReducedFamily(fam).solve((0.5,), 2)

    def test_inverse_iteration_above_the_crossover(self):
        fam = model_diffusion_1d(460, 0.3, 2.0, 4)
        assert fam.dim == 459 and eigensolver._vector_kernel(459) == "inverse-iteration"
        y = np.random.default_rng(459).uniform(-1.0, 1.0, fam.n_terms)
        self.check_against_dense(fam, y, [1, 2, 3])

    @staticmethod
    def check_against_dense(fam, y, J):
        k = J[-1] + 1
        solver = ReducedFamily(fam)
        got = solver.solve(y, k)
        assert solver.bandwidth is not None and "terms" not in vars(solver)
        # the point ran on the kernel of the crossover in force
        assert list(vars(solver._local)) == [eigensolver._vector_kernel(fam.dim)]
        dense = solve_gevp(assemble_at(fam, y), fam.mass, k=k)
        assert np.all(np.abs(got.values - dense.values) <= 1e-10 * np.abs(dense.values))
        cols = [j - 1 for j in J]
        angles = principal_angles(got.vectors[:, cols], dense.vectors[:, cols], fam.mass)
        assert angles.max() <= 1e-8
        U = got.vectors
        assert np.abs(U.T @ fam.mass @ U - np.eye(k)).max() <= 1e-10
        every = solve_gevp(assemble_at(fam, y), fam.mass).values
        top = np.sort(np.abs(dense.vectors), axis=0)
        for j in range(k):
            apart = np.abs(np.delete(every, j) - every[j]).min() > 1e-6 * abs(every[j])
            if apart and top[-1, j] - top[-2, j] > 1e-6 * top[-1, j]:
                assert U[:, j] @ fam.mass @ dense.vectors[:, j] > 0
        return got

    @pytest.mark.parametrize(
        "family, route, bandwidth, vectors",
        [
            (model_diffusion_1d(40, 0.3, 2.0, 3), "banded", 1, "dsbgvx"),
            (designed_crossing_family(), "banded", 1, "dsbgvx"),
            (model_diffusion_2d(6, 0.1, 2.0, 3), "dense", 6, "dsyevr"),
            (spd_family(9, 2, 3), "dense", 8, "dsyevr"),
            (model_diffusion_1d(200, 0.3, 2.0, 3), "banded", 1, "inverse-iteration"),
        ],
        ids=["diffusion1d", "crossing", "diffusion2d", "spd", "diffusion1d-199"],
    )
    def test_the_family_chooses_the_route(self, family, route, bandwidth, vectors):
        solver = ReducedFamily(family)
        solver.solve((), 2)
        assert "bandwidth" not in vars(solver)  # chosen at the first point off the origin
        solver.solve((0.5,), 2)
        assert solver.bandwidth == (bandwidth if route == "banded" else None)
        # the banded route builds no reduced terms; the dense route does
        assert ("terms" in vars(solver)) == (route == "dense")
        assert eigensolver._point_environment(family)["point_solver"] == {
            "route": route, "bandwidth": bandwidth, "vectors": vectors,
        }
        # the point solve ran on the kernel the environment names
        assert list(vars(solver._local)) == [vectors]

    def test_a_wide_mass_matrix_ends_the_test(self, monkeypatch):
        # the bandwidth test looks at no more matrices once one is too wide
        seen = []
        real = eigensolver._bandwidth

        def record(A, limit):
            seen.append(A)
            return real(A, limit)

        monkeypatch.setattr(eigensolver, "_bandwidth", record)
        fam = model_diffusion_2d(6, 0.1, 2.0, 3)
        assert ReducedFamily(fam).bandwidth is None
        assert len(seen) == 1 and seen[0] is fam.mass


@st.composite
def family_batch(draw):
    # batches of one point, of a full chunk and across one or two chunk ends,
    # on the dense and on the banded route
    n = draw(st.integers(4, 16))
    n_terms = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        fam = banded_family(n, draw(st.integers(0, BAND_CROSSOVER - 1)), n_terms, seed)
    else:
        fam = spd_family(n, n_terms, seed)
    size = draw(st.sampled_from([1, 3, CHUNK, CHUNK + 1, 2 * CHUNK + 3]))
    Y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.0, 1.0, size=(size, n_terms)
    )
    lo = draw(st.integers(1, n - 1))
    hi = draw(st.integers(lo, min(lo + 2, n - 1)))
    return fam, Y, list(range(lo, hi + 1))


def solved(chunks):
    """The entries of the chunks ``solve_many`` yields, in order, with their
    starts checked: consecutive and at most CHUNK points apart."""
    out = []
    for start, decomps in chunks:
        assert start == len(out) and 1 <= len(decomps) <= CHUNK
        out += decomps
    return out


class FlakyFamily(ReducedFamily):
    """A ``ReducedFamily`` whose point solve fails at each point of ``bad``."""

    def __init__(self, family, bad, carry=True):
        super().__init__(family, carry)
        self.bad = bad

    def _solve_point(self, y, k):
        if any(np.array_equal(y, b) for b in self.bad):
            raise SolverError("synthetic failure")
        return super()._solve_point(y, k)


class TestSolveMany:
    # the dense solve of the assembled pencil is the oracle, with the
    # tolerances of TestReducedFamily: eigenvalues 1e-10 relative, cluster
    # span 1e-8 rad; a point solved alone and inside a batch agree to 1e-13
    @settings(max_examples=30)
    @given(family_batch())
    def test_matches_dense_solve_and_single_solves(self, case):
        fam, Y, J = case
        k = J[-1] + 1
        cols = [j - 1 for j in J]
        batch = solved(ReducedFamily(fam, carry=False).solve_many(Y, k))
        assert len(batch) == len(Y)
        alone = ReducedFamily(fam, carry=False)
        for y, got in zip(Y, batch):
            dense = solve_gevp(assemble_at(fam, y), fam.mass, k=k)
            assert np.all(np.abs(got.values - dense.values) <= 1e-10 * np.abs(dense.values))
            angles = principal_angles(got.vectors[:, cols], dense.vectors[:, cols], fam.mass)
            assert angles.max() <= 1e-8
            one = alone.solve(y, k)
            assert np.array_equal(one.values, got.values)
            assert np.abs(one.vectors - got.vectors).max() <= 1e-13 * np.abs(got.vectors).max()

    @settings(max_examples=10)
    @given(family_batch())
    def test_reruns_are_bit_identical(self, case):
        fam, Y, J = case
        first = solved(ReducedFamily(fam).solve_many(Y, J[-1] + 1))
        again = solved(ReducedFamily(fam).solve_many(Y, J[-1] + 1))
        for a, b in zip(first, again):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.vectors, b.vectors)

    def test_memo_keys_and_counts(self):
        fam = spd_family(8, 2, 3)
        solver = ReducedFamily(fam)
        a = solver.solve((0.3,), 3)
        # the padded point is the memo entry of a; a repeated point is solved once
        batch = solved(solver.solve_many([(0.3, 0.0), (0.1, 0.2), (), (0.1, 0.2)], 3))
        assert batch[0] is a and batch[1] is batch[3]
        assert (solver.solves, solver.reused) == (3, 2)
        assert solver.solve((0.1, 0.2), 3) is batch[1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_names_it(self, bad):
        fam = spd_family(6, 2, 8)
        with pytest.raises(SolverError, match=r"not finite at point \(0.5, " + str(bad)):
            ReducedFamily(fam).solve((0.5, bad), 2)
        # in a batch the point holds its error; its neighbours are solved
        solver = ReducedFamily(fam)
        Y = [(0.1, 0.2), (bad,), (0.3,)]
        batch = solved(solver.solve_many(Y, 2))
        assert isinstance(batch[1], SolverError)
        assert f"not finite at point ({bad},)" in str(batch[1])
        for y, got in zip(Y[::2], batch[::2]):
            assert np.array_equal(got.vectors, ReducedFamily(fam).solve(y, 2).vectors)
        assert (solver.solves, solver.reused) == (3, 0)
        assert set(solver._memo) == {((0.1, 0.2), 2), ((0.3, 0.0), 2)}

    def test_failure_is_held_in_place_and_not_kept(self, monkeypatch):
        fam = spd_family(6, 1, 9)
        real = ReducedFamily._solve_point
        Y = [(0.1 * i,) for i in range(1, 6)]
        seen, failed = [], []

        def fails_at_third(self, y, k):
            # the third point, the first time it comes, whichever thread
            # solves it
            seen.append(y)
            if not failed and y == Y[2]:
                failed.append(y)
                raise SolverError("synthetic failure")
            return real(self, y, k)

        monkeypatch.setattr(ReducedFamily, "_solve_point", fails_at_third)
        solver = ReducedFamily(fam)
        batch = solved(solver.solve_many(Y, 2))
        assert re.fullmatch(r"synthetic failure at point \(0.30*4?,\)", str(batch[2]))
        assert str(batch[2].__cause__) == "synthetic failure"
        # the rest of the chunk is solved and kept; the failure is counted once
        assert all(isinstance(d, SpectralDecomposition) for i, d in enumerate(batch) if i != 2)
        assert (solver.solves, solver.reused) == (5, 0) and len(seen) == 5
        assert set(solver._memo) == {(y, 2) for i, y in enumerate(Y) if i != 2}
        # not kept: asked again, the point is solved again, and this time passes
        assert isinstance(solver.solve(Y[2], 2), SpectralDecomposition)
        assert (solver.solves, solver.reused) == (6, 0)

    @pytest.mark.parametrize("workers", sorted({eigensolver._nproc(), 3}))
    def test_threads_give_the_bits_of_one_worker(self, monkeypatch, workers):
        self.check_threads_against_one_worker(monkeypatch, spd_family(40, 3, 14), workers)

    @pytest.mark.parametrize("workers", sorted({eigensolver._nproc(), 3}))
    def test_banded_threads_give_the_bits_of_one_worker(self, monkeypatch, workers):
        # dsbgvx's own eigenvectors, then inverse iteration above the crossover
        for n, kernel in [(40, "dsbgvx"), (eigensolver.INVERSE_ITERATION_FROM + 20,
                                           "inverse-iteration")]:
            fam = banded_family(n, 1, 3, 14)
            assert ReducedFamily(fam).bandwidth == 1 and eigensolver._vector_kernel(n) == kernel
            self.check_threads_against_one_worker(monkeypatch, fam, workers)

    @staticmethod
    def check_threads_against_one_worker(monkeypatch, fam, workers):
        # a batch past CHUNK with a failed solve, a non-finite point and a
        # repeated point inside a chunk: the solves split over `workers`
        # threads give one worker's values, vectors, errors, memo and counts
        Y = np.random.default_rng(14).uniform(-1.0, 1.0, size=(CHUNK + 61, 3))
        Y[100, 1] = math.nan
        Y[CHUNK + 30] = Y[CHUNK + 5]
        Y[150] = 0.0

        def run(count):
            monkeypatch.setattr(eigensolver, "_nproc", lambda: count)
            solver = FlakyFamily(fam, [Y[37], Y[CHUNK + 20]])
            return solver, solved(solver.solve_many(Y, 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (one, want), (many, got) = run(1), run(workers)
        finally:
            sys.setswitchinterval(interval)
        assert (many.solves, many.reused) == (one.solves, one.reused) == (len(Y) - 1, 1)
        assert list(many._memo) == list(one._memo)
        for i, (a, b) in enumerate(zip(got, want)):
            if i in (37, 100, CHUNK + 20):
                assert isinstance(a, SolverError) and str(a) == str(b)
            else:
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.vectors, b.vectors)

    @settings(max_examples=20)
    @given(family_batch(), st.data())
    def test_faults_sit_at_their_points(self, case, data):
        # failed solves and non-finite points, at random indices, across
        # chunk ends: each holds its point's error, and nothing else moves
        fam, Y, J = case
        k = J[-1] + 1
        failing = data.draw(
            st.lists(st.integers(0, len(Y) - 1), max_size=6, unique=True), label="failing"
        )
        kinds = data.draw(
            st.lists(st.sampled_from(["solve", "nan"]), min_size=len(failing),
                     max_size=len(failing)),
            label="kinds",
        )
        bad_Y = Y.copy()
        for i, kind in zip(failing, kinds):
            if kind == "nan":
                bad_Y[i, 0] = math.nan
        solver = FlakyFamily(fam, [Y[i] for i, kind in zip(failing, kinds) if kind == "solve"])
        batch = solved(solver.solve_many(bad_Y, k))
        clean = solved(ReducedFamily(fam).solve_many(Y, k))
        assert len(batch) == len(Y)
        for i, (got, want) in enumerate(zip(batch, clean)):
            if i in failing:
                assert isinstance(got, SolverError)
                assert f"at point {tuple(map(float, bad_Y[i]))}" in str(got)
            else:
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(got.vectors, want.vectors)
        assert (solver.solves, solver.reused) == (len(Y), 0)
        assert not any(isinstance(d, SolverError) for d in solver._memo.values())
        assert len(solver._memo) == len(Y) - len(failing)


def blas_counts():
    return [get() for _, _, get in _openblas_copies()]


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS copy on two threads during the test, so that a
    cap to one thread shows; the earlier counts are put back afterwards."""
    copies = _openblas_copies()
    if not copies:
        pytest.skip("no bundled OpenBLAS with thread-count symbols is loaded")
    earlier = blas_counts()
    for _, set_threads, _ in copies:
        set_threads(2)
    try:
        yield [2] * len(copies)
    finally:
        for (_, set_threads, _), count in zip(copies, earlier):
            set_threads(count)


class TestSerialBlas:
    @pytest.mark.parametrize("n", [6, 512])
    def test_chunk_work_runs_on_one_thread_at_every_size(self, monkeypatch, two_threads, n):
        fam = spd_family(n, 2, 11)
        seen = []

        def recording(real):
            def record(*args, **kwargs):
                seen.append(blas_counts())
                return real(*args, **kwargs)
            return record

        monkeypatch.setattr(ReducedFamily, "_solve_point", recording(ReducedFamily._solve_point))
        monkeypatch.setattr(eigensolver, "solve_gevp", recording(solve_gevp))
        reducers = set()  # the threads that reduced a matrix
        real_reduce = eigensolver._reduce

        def reduce(*args, **kwargs):
            reducers.add(threading.get_ident())
            return real_reduce(*args, **kwargs)

        monkeypatch.setattr(eigensolver, "_reduce", recording(reduce))
        # two workers, so that the reductions of the terms run on the calling
        # thread and a pool thread: each is recorded where it runs
        monkeypatch.setattr(eigensolver, "_nproc", lambda: 2)
        # the origin's dense solve and its reduction, the reduction of B0 and
        # the 2 terms, and 2 point solves
        solved(ReducedFamily(fam).solve_many([(), (0.1, 0.2), (0.3,)], 2))
        assert seen == [[1] * len(two_threads)] * 7
        assert len(reducers) == 2
        assert blas_counts() == two_threads
        env = eigensolver._point_environment(fam)
        assert (env["point_solve_threads"], env["point_solve_workers"]) == (1, eigensolver._nproc())

    @pytest.mark.parametrize("n_elements", [8, 600])
    def test_banded_point_solves_run_on_one_thread_at_every_size(
        self, monkeypatch, two_threads, n_elements
    ):
        # dsbgvx gains nothing from BLAS threads: the solves of a chunk share
        # the CPUs instead
        fam = model_diffusion_1d(n_elements, 0.3, 2.0, 2)
        seen = []
        real = ReducedFamily._solve_point

        def record(self, y, k):
            seen.append(blas_counts())
            return real(self, y, k)

        monkeypatch.setattr(ReducedFamily, "_solve_point", record)
        solved(ReducedFamily(fam).solve_many([(0.1, 0.2), (0.3,)], 2))
        assert seen == [[1] * len(two_threads)] * 2
        assert blas_counts() == two_threads
        assert eigensolver._point_environment(fam)["point_solve_workers"] == eigensolver._nproc()

    def test_counts_are_restored(self, two_threads):
        fam = model_diffusion_1d(n_elements=20, decay_scale=0.3, n_terms=2)
        cb = collocate(fam, [1], anisotropic_set([2.0, 3.0], 1.0))
        assert blas_counts() == two_threads
        estimate_error(cb, "vector-l2", 20, 0)
        assert blas_counts() == two_threads
        check_isolation(fam, [1], 0.1, n_samples=20)
        assert blas_counts() == two_threads
        # a failed solve held in its chunk, and raised by solve
        batch = solved(ReducedFamily(fam).solve_many([(0.1,), (math.nan,)], 2))
        assert isinstance(batch[1], SolverError)
        assert blas_counts() == two_threads
        with pytest.raises(SolverError, match="not finite"):
            ReducedFamily(fam).solve((math.nan,), 2)
        assert blas_counts() == two_threads
        # a generator dropped after its first chunk holds no cap
        chunks = ReducedFamily(fam).solve_many(np.full((CHUNK + 1, 2), 0.5), 2)
        next(chunks)
        assert blas_counts() == two_threads
        chunks.close()
        assert blas_counts() == two_threads

    def test_counts_are_restored_when_a_chunk_raises(self, monkeypatch, two_threads):
        def broken(self, W):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(ReducedFamily, "_lift", broken)
        with pytest.raises(SolverError, match="synthetic failure"):
            ReducedFamily(spd_family(6, 1, 12)).solve((0.5,), 2)
        assert blas_counts() == two_threads

    def test_nested_blocks_that_raise_restore_the_counts_at_the_outermost(
        self, two_threads
    ):
        # the one cap object is re-entrant: an inner block that raises leaves
        # the cap to the blocks still open, and the outermost one restores
        cap = eigensolver._serial_blas()
        assert eigensolver._serial_blas() is cap
        with pytest.raises(KeyError):
            with cap:
                with pytest.raises(ValueError):
                    with cap:
                        with cap:
                            raise ValueError("inner")
                assert blas_counts() == [1] * len(two_threads)
                raise KeyError("outer")
        assert blas_counts() == two_threads
        with cap:
            assert blas_counts() == [1] * len(two_threads)
        assert blas_counts() == two_threads

    def test_counts_are_restored_after_threads_overlap(self, two_threads):
        # the cap is process-global: with solves overlapping in 4 threads, the
        # last block to close puts back the counts the first one found
        fam = spd_family(6, 2, 13)
        Y = np.random.default_rng(13).uniform(-1.0, 1.0, size=(4, 2))
        errors = []

        def work():
            try:
                for _ in range(200):
                    solved(ReducedFamily(fam, carry=False).solve_many(Y, 2))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers) and not errors
        assert blas_counts() == two_threads


COLLOCATE_TO_FILE = """
import sys
from eigcolloc import (
    anisotropic_set, collocate, compute_tau_weights, model_diffusion_1d, save_collocated,
)
fam = model_diffusion_1d(n_elements=200, decay_scale=0.3, decay_rate=3.0, n_terms=6,
                         p_exponent=0.5)
A = anisotropic_set(compute_tau_weights(fam.kappa, delta=0.5, epsilon=0.5), 0.8)
save_collocated(collocate(fam, [1], A), sys.argv[1])
"""


# n = 459 with random node data on the 1323 points of budget 1.5: a 1 x 1323
# times 1323 x 459 product that OpenBLAS splits differently on two threads
EVALUATE_ONE_ROW_TO_FILE = """
import sys
import numpy as np
from eigcolloc import (
    ClusterSelection, CollocatedEigenbasis, EigenspaceBasis, anisotropic_set,
    compute_tau_weights, evaluate, grid_points, model_diffusion_1d,
)
from eigcolloc.collocation import PointSolution
fam = model_diffusion_1d(n_elements=460, decay_scale=0.3, decay_rate=3.0, n_terms=6,
                         p_exponent=0.5)
A = anisotropic_set(compute_tau_weights(fam.kappa, delta=0.5, epsilon=0.5), 1.5)
rng = np.random.default_rng(0)
cb = CollocatedEigenbasis(
    family=fam, cluster=ClusterSelection((1,)), A=A,
    point_data={
        pt: PointSolution(EigenspaceBasis(rng.standard_normal((fam.dim, 1)), 1.0),
                          rng.standard_normal(1))
        for pt in grid_points(A)
    },
    ref_vectors=rng.standard_normal((fam.dim, 1)), ref_values=np.ones(1),
    target="canonical", diagnostics={},
)
assert len(cb.point_data) == 1323
Y = rng.uniform(-1.0, 1.0, size=(20, fam.n_terms))
with open(sys.argv[1], "wb") as fh:
    fh.write(b"".join(evaluate(cb, y).tobytes() for y in Y))
"""


def outputs_under_both_thread_settings(script, tmp_path) -> list:
    """The bytes ``script`` writes to the file named by its first argument,
    run in a fresh process, which reads the thread variables at start-up,
    with OPENBLAS_NUM_THREADS=1 and with the thread variables unset."""
    src = os.path.dirname(os.path.dirname(eigcolloc.__file__))
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        path = tmp_path / f"out{len(outputs)}"
        subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={**env, **threads}, check=True, timeout=300,
        )
        outputs.append(path.read_bytes())
    return outputs


def test_collocated_file_does_not_depend_on_the_thread_variables(tmp_path):
    # n = 199 and 113 grid points: with default threading the chunk's lift
    # used to run threaded, and the stored bases differed in their last bits
    files = outputs_under_both_thread_settings(COLLOCATE_TO_FILE, tmp_path)
    assert files[0] == files[1]


def test_single_row_evaluate_does_not_depend_on_the_thread_variables(tmp_path):
    # a one-row product is no exception to the cap: without it, the bits of
    # this evaluate differ between one and two OpenBLAS threads
    values = outputs_under_both_thread_settings(EVALUATE_ONE_ROW_TO_FILE, tmp_path)
    assert len(values[0]) == 20 * 459 * 8
    assert values[0] == values[1]


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


def mgs_orthonormalize(V, M, rel_tol=1e-10):
    """Modified Gram-Schmidt with one reorthogonalisation pass, the reference
    for ``m_orthonormalize``'s CholeskyQR2."""
    V = np.array(V, dtype=float, copy=True)

    def mnorm(v):
        return float(np.sqrt(max(v @ (M @ v), 0.0)))

    original = [mnorm(V[:, j]) for j in range(V.shape[1])]
    for j in range(V.shape[1]):
        v = V[:, j]
        for _pass in range(2):
            for i in range(j):
                v = v - (V[:, i] @ (M @ v)) * V[:, i]
        nrm = mnorm(v)
        if original[j] == 0.0 or nrm <= rel_tol * original[j]:
            raise RankDeficiencyError(j)
        v = v / nrm
        nz = np.nonzero(v)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        V[:, j] = v
    return V


@st.composite
def block_and_mass(draw):
    n = draw(st.integers(1, 12))
    s = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = rng.standard_normal((n, n))
    return rng.standard_normal((n, s)), C @ C.T + n * np.eye(n)


class TestCholeskyQR:
    # the Gram-Schmidt loop is the oracle: same span column by column, same
    # signs and M-orthonormal columns, all to 1e-10
    @given(block_and_mass())
    def test_matches_gram_schmidt(self, case):
        V, M = case
        got = m_orthonormalize(V, M)
        want = mgs_orthonormalize(V, M)
        s = V.shape[1]
        assert np.abs(got.T @ M @ got - np.eye(s)).max() <= 1e-10
        # cross Gram = I: column j spans the same direction, with the same sign
        assert np.abs(got.T @ M @ want - np.eye(s)).max() <= 1e-10

    @given(block_and_mass(), st.data())
    def test_dependent_column_is_reported_like_gram_schmidt(self, case, data):
        V, M = case
        s = V.shape[1]
        j = data.draw(st.integers(0, s))
        c = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=j, max_size=j))
        V = np.insert(V, j, V[:, :j] @ np.array(c, dtype=float), axis=1)
        with pytest.raises(RankDeficiencyError) as want:
            mgs_orthonormalize(V, M)
        with pytest.raises(RankDeficiencyError) as got:
            m_orthonormalize(V, M)
        assert got.value.column == want.value.column == j
