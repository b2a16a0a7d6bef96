import base64
import dataclasses
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigcolloc import (
    ClusterCoverageError,
    ClusterCrossingError,
    ConfigError,
    DecaySequence,
    DegenerateBasisError,
    EigenspaceBasis,
    FamilyValidationError,
    MultiIndex,
    ParameterDimensionError,
    assemble_at,
    canonical_basis,
    collocate,
    designed_crossing_family,
    evaluate,
    evaluate_cluster_values,
    evaluate_many,
    family_to_dict,
    load_collocated,
    model_diffusion_1d,
    multi_index_set,
    orthonormalize_at,
    principal_angles,
    SolverError,
    anisotropic_set,
    combination_terms,
    grid_points,
    save_collocated,
    save_family,
    solve_gevp,
    synthetic_family,
)
from eigcolloc import collocation, eigensolver
from eigcolloc.collocation import (
    PointSolution,
    _target_bases,
    collocated_from_dict,
    collocated_to_dict,
)
from eigcolloc.eigensolver import CHUNK, ReducedFamily
from eigcolloc.eigenspace import exterior_gap
from eigcolloc.sparse_grid import ORIGIN


def mi(*levels):
    return MultiIndex.from_dense(levels)


def line_set(max_level, dim=1):
    idx = [ORIGIN]
    for l in range(1, max_level + 1):
        levels = [0] * dim
        levels[dim - 1] = l
        idx.append(MultiIndex.from_dense(levels))
    return multi_index_set(idx)


def constant_family():
    # one zero term: affine in name only, constant in value
    B0 = np.diag([1.0, 3.0, 7.0])
    return synthetic_family(B0, [np.zeros((3, 3))], np.eye(3), DecaySequence((0.01,)))


class TestCollocate:
    def test_origin_set_gives_constant_interpolant(self):
        fam = model_diffusion_1d(20, 0.3, 2.0, 3)
        cb = collocate(fam, [1], multi_index_set([ORIGIN]))
        assert set(cb.point_data) == {()}
        for y in ([0.0, 0.0, 0.0], [0.9, -0.9, 0.4]):
            assert np.allclose(evaluate(cb, y), cb.ref_vectors, atol=1e-14)

    def test_constant_family_constant_everywhere(self):
        cb = collocate(constant_family(), [1, 2], line_set(2))
        rng = np.random.default_rng(0)
        for pt, sol in cb.point_data.items():
            assert np.allclose(sol.basis.vectors, cb.ref_vectors, atol=1e-12)
        for _ in range(5):
            y = rng.uniform(-1, 1, 1)
            assert np.allclose(evaluate(cb, y), cb.ref_vectors, atol=1e-12)

    def test_repeat_is_bit_identical(self):
        fam = model_diffusion_1d(15, 0.3, 2.0, 2)
        A = line_set(2)
        a = collocate(fam, [2], A)
        b = collocate(fam, [2], A)
        for pt in a.point_data:
            assert np.array_equal(
                a.point_data[pt].basis.vectors, b.point_data[pt].basis.vectors
            )

    def test_point_data_are_views_of_the_stack(self, tmp_path):
        # each nodal basis is kept once: in the stack the coefficients are made from
        fam = model_diffusion_1d(12, 0.3, 2.0, 2)
        cb = collocate(fam, [1, 2], anisotropic_set([2.0, 3.0], 1.5))
        sols = list(cb.point_data.values())
        for get in (lambda sol: sol.basis.vectors, lambda sol: sol.cluster_values):
            base = get(sols[0]).base
            assert base is not None and all(get(sol).base is base for sol in sols)
        # a reload holds the coefficient tables and no nodal data at all
        save_collocated(cb, tmp_path / "basis.json")
        back = load_collocated(tmp_path / "basis.json")
        assert back.point_data == {}
        assert back.diagnostics["n_points"] == len(cb.point_data)
        for table, fresh in zip(back._coefs, cb._coefs):
            assert np.array_equal(table, fresh)
        # a replace of it carries the tables
        Y = np.random.default_rng(3).uniform(-1.0, 1.0, size=(9, 2))
        copy = dataclasses.replace(back, diagnostics={})
        assert copy.diagnostics == {} and copy.point_data == {}
        assert np.array_equal(evaluate_many(copy, Y), evaluate_many(back, Y))
        for y in Y:
            assert np.array_equal(evaluate_cluster_values(copy, y), evaluate_cluster_values(back, y))
        # and point data given to it rebuild them
        rebuilt = dataclasses.replace(back, point_data=cb.point_data)
        for table, fresh in zip(rebuilt._coefs, cb._coefs):
            assert np.array_equal(table, fresh)

    def test_diagnostics_recorded(self):
        fam = model_diffusion_1d(15, 0.3, 2.0, 2)
        cb = collocate(fam, [1], line_set(2))
        assert 0 < cb.diagnostics["min_gram_sigma_min"] <= 1.0 + 1e-12
        assert cb.diagnostics["min_relative_exterior_gap"] > 0
        assert cb.diagnostics["n_points"] == len(cb.point_data)

    def test_cluster_needs_exterior_eigenvalue(self):
        fam = constant_family()
        with pytest.raises(ClusterCoverageError):
            collocate(fam, [3], multi_index_set([ORIGIN]))

    def test_active_dimensions_must_exist(self):
        fam = model_diffusion_1d(10, 0.3, 2.0, 1)
        with pytest.raises(FamilyValidationError):
            collocate(fam, [1], multi_index_set([ORIGIN, mi(0, 1)]))

    def test_exterior_crossing_detected(self):
        # cluster {2} of the designed family touches eigenvalue 3 at y=0
        fam = designed_crossing_family()
        with pytest.raises(ClusterCrossingError):
            collocate(fam, [2], line_set(1))

    def test_degenerate_basis_reports_point(self, monkeypatch):
        # force the failure path with an artificially strict threshold
        fam = model_diffusion_1d(15, 0.3, 2.0, 1)
        monkeypatch.setattr(collocation, "GRAM_SIGMA_THRESHOLD", 1.0)
        with pytest.raises(DegenerateBasisError) as err:
            collocate(fam, [1], line_set(3))
        assert err.value.point is not None
        assert err.value.sigma_min < 1.0

    def test_solver_error_reports_point(self, monkeypatch):
        fam = model_diffusion_1d(15, 0.3, 2.0, 1)
        A = line_set(2)

        def fails(self, y, k):
            # the dense reference solve passes; the other point solves fail
            raise SolverError("synthetic failure")

        monkeypatch.setattr(ReducedFamily, "_solve_point", fails)
        with pytest.raises(SolverError, match="synthetic failure at point") as err:
            collocate(fam, [1], A)
        assert str(grid_points(A)[0]) in str(err.value)

    def test_unknown_target_rejected(self):
        fam = constant_family()
        with pytest.raises(ConfigError):
            collocate(fam, [1], multi_index_set([ORIGIN]), target="sorted")

    def test_empty_index_set_rejected(self):
        with pytest.raises(ConfigError, match="empty index set"):
            collocate(constant_family(), [1], multi_index_set([]))

    @pytest.mark.parametrize("target", ["canonical", "raw"])
    def test_nodes_store_the_target_basis(self, target, monkeypatch):
        # the nodes and the Monte Carlo truths share one rule per target
        fam = model_diffusion_1d(14, 0.3, 2.0, 2)
        cache = ReducedFamily(fam)
        cb = collocate(fam, [1, 2], anisotropic_set([2.0, 3.0], 1.5), target, _cache=cache)
        for pt, sol in cb.point_data.items():
            decomp = cache.solve(pt, 3)
            bases, sigma, _ = _target_bases(
                [decomp], cb.ref_vectors, cb.cluster, fam.mass, target
            )
            assert np.array_equal(bases[0], sol.basis.vectors)
            assert sigma[0] == sol.basis.gram_sigma_min
        # the acceptance rule: every raw basis, a canonical one above the threshold
        decomps = [cache.solve(pt, 3) for pt in cb.point_data]
        sigma = _target_bases(decomps, cb.ref_vectors, cb.cluster, fam.mass, target)[1]
        for threshold in (collocation.GRAM_SIGMA_THRESHOLD, float(np.median(sigma)), 2.0):
            monkeypatch.setattr(collocation, "GRAM_SIGMA_THRESHOLD", threshold)
            _, _, ok = _target_bases(decomps, cb.ref_vectors, cb.cluster, fam.mass, target)
            expected = sigma >= threshold if target == "canonical" else np.ones_like(ok)
            assert ok.dtype == bool and np.array_equal(ok, expected)


def switching_family(c):
    """Diagonal family on one parameter, mass I: the lowest eigenvector is e1
    for y1 < c and e2 for y1 > c, where the lowest two eigenvalues cross."""
    B0 = np.diag([2.0, 2.0 + 2.0 * c, 10.0, 20.0])
    B1 = np.diag([1.0, -1.0, 0.0, 0.0])
    return synthetic_family(B0, [B1], np.eye(4), DecaySequence((0.1,)))


def first_fault(fam, J, A):
    """(error class, point) of the first point the per-point loop of
    ``collocate`` rejected: gap first, then the canonical basis."""
    k = max(J) + 1
    cols = [j - 1 for j in J]
    ref = solve_gevp(fam.B0, fam.mass, k=k).vectors[:, cols]
    for pt in grid_points(A):
        decomp = solve_gevp(assemble_at(fam, pt), fam.mass, k=k)
        if exterior_gap(decomp.values, J) <= 0.0:
            return ClusterCrossingError, pt
        try:
            canonical_basis(decomp, ref, J, fam.mass)
        except DegenerateBasisError:
            return DegenerateBasisError, pt
    return None


class TestChunkedErrors:
    # a 1D grid of 513 points: chunk 2 holds points 256..511, sorted by y1
    A = line_set(31)

    def points(self):
        pts = grid_points(self.A)
        assert CHUNK < 384 < 2 * CHUNK <= len(pts)
        return pts

    def test_degenerate_point_in_the_second_chunk(self):
        pts = self.points()
        fam = switching_family(0.5 * (pts[383][0] + pts[384][0]))
        assert first_fault(fam, [1], self.A) == (DegenerateBasisError, pts[384])
        with pytest.raises(DegenerateBasisError) as err:
            collocate(fam, [1], self.A)
        assert err.value.point == pts[384]
        # the raw target has no basis check and passes
        assert len(collocate(fam, [1], self.A, target="raw").point_data) == len(pts)

    def test_crossing_point_in_the_second_chunk(self):
        # the lowest eigenvalues coincide exactly at point 384, where the
        # basis is degenerate as well, and so is it at the points after it:
        # at one point the gap error comes first
        pts = self.points()
        y = pts[384][0]
        B0 = np.diag([2.0 + y, 2.0, 10.0, 20.0])
        B1 = np.diag([0.0, 1.0, 0.0, 0.0])
        fam = synthetic_family(B0, [B1], np.eye(4), DecaySequence((0.1,)))
        assert first_fault(fam, [1], self.A) == (ClusterCrossingError, pts[384])
        ref = solve_gevp(fam.B0, fam.mass, k=2).vectors[:, :1]
        at_crossing = solve_gevp(assemble_at(fam, pts[384]), fam.mass, k=2)
        with pytest.raises(DegenerateBasisError):
            canonical_basis(at_crossing, ref, [1], fam.mass)
        with pytest.raises(ClusterCrossingError, match=re.escape(f"at point {pts[384]}")):
            collocate(fam, [1], self.A)

    @pytest.mark.parametrize(
        "failing, expected", [(300, SolverError), (500, DegenerateBasisError)]
    )
    def test_failed_solve_against_a_degenerate_point(self, monkeypatch, failing, expected):
        # a failed solve before the degenerate point raises; one after it,
        # in the same chunk, does not hide it
        pts = self.points()
        fam = switching_family(0.5 * (pts[383][0] + pts[384][0]))
        real = ReducedFamily._solve_point

        def fails_at_one_point(self, y, k):
            if np.array_equal(y, pts[failing]):
                raise SolverError("synthetic failure")
            return real(self, y, k)

        monkeypatch.setattr(ReducedFamily, "_solve_point", fails_at_one_point)
        with pytest.raises(expected) as err:
            collocate(fam, [1], self.A)
        if expected is SolverError:
            assert f"synthetic failure at point {pts[failing]}" in str(err.value)
        else:
            assert err.value.point == pts[384]


class TestEvaluate:
    def test_linear_in_stored_data(self):
        fam = model_diffusion_1d(12, 0.3, 2.0, 2)
        cb = collocate(fam, [1], line_set(2))
        scaled = {
            pt: PointSolution(
                basis=EigenspaceBasis(
                    2.0 * sol.basis.vectors, sol.basis.gram_sigma_min
                ),
                cluster_values=sol.cluster_values,
            )
            for pt, sol in cb.point_data.items()
        }
        cb2 = dataclasses.replace(cb, point_data=scaled)
        y = [0.37, -0.61]
        # doubling is an exact float operation, so equality is exact
        assert np.array_equal(evaluate(cb2, y), 2.0 * evaluate(cb, y))

    def test_matches_direct_solve_between_nodes(self):
        # only dimension 1 is active, so the interpolant targets f(y1, 0);
        # compare against the direct solve with the second coordinate at 0
        fam = model_diffusion_1d(40, 0.3, 2.0, 2)
        cb = collocate(fam, [1], line_set(8))
        y = np.array([0.42, 0.0])
        approx = evaluate(cb, y)
        decomp = solve_gevp(assemble_at(fam, y), fam.mass, k=1)
        truth = canonical_basis(decomp, cb.ref_vectors, [1], fam.mass)
        assert np.abs(approx - truth.vectors).max() < 1e-6

    def test_cluster_value_interpolation(self):
        fam = model_diffusion_1d(25, 0.3, 2.0, 1)
        cb = collocate(fam, [1, 2], line_set(8))
        y = [0.55]
        vals = evaluate_cluster_values(cb, y)
        direct = solve_gevp(assemble_at(fam, y), fam.mass, k=3).values[:2]
        assert vals == pytest.approx(direct, rel=1e-6)

    def test_extrapolation_refused(self):
        from eigcolloc import ExtrapolationError

        cb = collocate(model_diffusion_1d(10, 0.3, 2.0, 1), [1], line_set(1))
        with pytest.raises(ExtrapolationError):
            evaluate(cb, [1.2])

    def test_inactive_trailing_coordinates_allowed(self):
        fam = model_diffusion_1d(10, 0.3, 2.0, 3)
        cb = collocate(fam, [1], line_set(2))  # only dimension 1 active
        a = evaluate(cb, [0.5])
        b = evaluate(cb, [0.5, 0.9, -0.2])
        assert np.array_equal(a, b)


class TestEvaluateMany:
    def test_rows_match_single_evaluations(self):
        fam = model_diffusion_1d(16, 0.3, 2.0, 3)
        cb = collocate(fam, [1, 2], anisotropic_set([2.0, 3.0, 4.0], 2.0))
        Y = np.random.default_rng(2).uniform(-1.0, 1.0, size=(9, 3))
        many = evaluate_many(cb, Y)
        assert many.shape == (9, fam.dim, 2)
        # one matrix product against one per row: only the summation order differs
        for y, row in zip(Y, many):
            one = evaluate(cb, y)
            assert np.abs(row - one).max() <= 1e-13 * np.abs(one).max()

    @pytest.mark.parametrize("columns", [0, 3, 5])
    def test_empty_batch(self, columns):
        fam = model_diffusion_1d(16, 0.3, 2.0, 3)
        cb = collocate(fam, [1, 2], anisotropic_set([2.0, 3.0, 4.0], 2.0))
        assert evaluate_many(cb, np.empty((0, columns))).shape == (0, fam.dim, 2)

    def test_point_longer_than_the_family_is_named(self):
        # the third coordinate belongs to no term of the family; solve_many
        # refuses the same point with the same message
        fam = model_diffusion_1d(10, 0.3, 2.0, 2)
        cb = collocate(fam, [1], anisotropic_set([2.0, 3.0], 1.0))
        message = re.escape("parameter point (0.5, 0.5, 7.0) has 3 components, family has 2 terms")
        for call in (evaluate, evaluate_cluster_values):
            with pytest.raises(ParameterDimensionError, match=message):
                call(cb, [0.5, 0.5, 7.0])
        with pytest.raises(ParameterDimensionError, match=message):
            evaluate_many(cb, [[0.5, 0.5, 7.0], [0.1, 0.2, 0.3]])
        with pytest.raises(ParameterDimensionError, match=message):
            ReducedFamily(fam).solve((0.5, 0.5, 7.0), 2)


class TestCarriedSolves:
    def test_carried_solves_equal_fresh_ones(self):
        # the first set activates one dimension and the second three, so the
        # carried points are found under keys padded with two zeros
        fam = model_diffusion_1d(14, 0.3, 2.0, 3)
        rho = [1.5, 3.0, 3.0]
        small, large = anisotropic_set(rho, 0.9), anisotropic_set(rho, 1.2)
        assert small.M_active == 1 and large.M_active == 3
        cache = ReducedFamily(fam)
        first = collocate(fam, [1, 2], small, _cache=cache)
        carried = collocate(fam, [1, 2], large, _cache=cache)
        fresh = collocate(fam, [1, 2], large)
        # the reference solve is the grid's origin point, served from the memo
        assert cache.reused == 2 + len(first.point_data)
        assert cache.solves == len(fresh.point_data)
        assert carried.point_data.keys() == fresh.point_data.keys()
        for pt, sol in fresh.point_data.items():
            other = carried.point_data[pt]
            assert np.array_equal(other.basis.vectors, sol.basis.vectors)
            assert np.array_equal(other.cluster_values, sol.cluster_values)
            assert other.basis.gram_sigma_min == sol.basis.gram_sigma_min
        assert carried.diagnostics == fresh.diagnostics
        assert np.array_equal(carried.ref_vectors, fresh.ref_vectors)
        y = [0.3, -0.7, 0.1]
        assert np.array_equal(evaluate(carried, y), evaluate(fresh, y))

    def test_targets_share_one_solve_per_point(self):
        fam = model_diffusion_1d(10, 0.2, 2.0, 1)
        cache = ReducedFamily(fam)
        canonical = collocate(fam, [1], line_set(2), _cache=cache)
        raw = collocate(fam, [1], line_set(2), target="raw", _cache=cache)
        assert raw.target == "raw"
        assert cache.solves == len(canonical.point_data)
        assert cache.reused == 2 + len(canonical.point_data)
        fresh = collocate(fam, [1], line_set(2), target="raw")
        for pt, sol in fresh.point_data.items():
            assert np.array_equal(raw.point_data[pt].basis.vectors, sol.basis.vectors)

    def test_reference_is_the_first_solve_and_dense(self, monkeypatch):
        # the reference solve comes first and is dense; the grid's origin
        # point is served from the memo and every other point is one call of
        # the point kernel
        fam = model_diffusion_1d(14, 0.3, 2.0, 3)
        real, real_point = eigensolver.solve_gevp, ReducedFamily._solve_point
        calls = []

        def record(K, M=None, k=None):
            calls.append("dense" if M is not None else "reduced")
            return real(K, M, k=k)

        def record_point(self, y, k):
            calls.append("point")
            return real_point(self, y, k)

        monkeypatch.setattr(eigensolver, "solve_gevp", record)
        monkeypatch.setattr(ReducedFamily, "_solve_point", record_point)
        A = anisotropic_set([1.5, 3.0, 3.0], 1.2)
        cb = collocate(fam, [1, 2], A)
        assert (0.0, 0.0, 0.0) in cb.point_data
        assert calls == ["dense"] + ["point"] * (len(cb.point_data) - 1)
        origin = real(fam.B0, fam.mass, k=3)
        assert np.array_equal(cb.ref_vectors, origin.vectors[:, :2])
        assert np.array_equal(cb.ref_values, origin.values[:2])


class TestOrthonormalizeAt:
    def test_reference_point_recovers_refs_up_to_sign(self):
        # top level 4 has a node at 0, so the interpolant is exact at y=0
        fam = model_diffusion_1d(20, 0.3, 2.0, 2)
        cb = collocate(fam, [1, 2], line_set(4))
        U = orthonormalize_at(cb, [0.0, 0.0])
        for j in range(2):
            s = np.sign(U[:, j] @ fam.mass @ cb.ref_vectors[:, j])
            assert np.allclose(s * U[:, j], cb.ref_vectors[:, j], atol=1e-9)

    def test_gram_is_identity(self):
        fam = model_diffusion_1d(20, 0.3, 2.0, 2)
        cb = collocate(fam, [1, 2], line_set(3))
        U = orthonormalize_at(cb, [0.7, -0.2])
        assert np.allclose(U.T @ fam.mass @ U, np.eye(2), atol=1e-10)

    def test_span_preserved(self):
        fam = model_diffusion_1d(20, 0.3, 2.0, 2)
        cb = collocate(fam, [1, 2], line_set(3))
        y = [0.3, 0.8]
        raw = evaluate(cb, y)
        U = orthonormalize_at(cb, y)
        assert principal_angles(raw, U, fam.mass).max() < 1e-10


class TestRawTarget:
    def test_stores_sorted_eigenvectors(self):
        fam = model_diffusion_1d(15, 0.3, 2.0, 1)
        cb = collocate(fam, [1, 2], line_set(2), target="raw")
        # the solve collocate makes, one point at a time;
        # tests/test_eigensolver.py holds it to the dense solve of the
        # assembled pencil
        for pt, sol in cb.point_data.items():
            decomp = ReducedFamily(fam).solve(pt, 3)
            assert np.array_equal(sol.basis.vectors, decomp.vectors[:, :2])

    def test_raw_equals_canonical_far_from_crossings(self):
        # simple isolated eigenvalue: both targets span the same line
        fam = model_diffusion_1d(15, 0.3, 2.0, 1)
        a = collocate(fam, [1], line_set(3), target="canonical")
        b = collocate(fam, [1], line_set(3), target="raw")
        for pt in a.point_data:
            X = a.point_data[pt].basis.vectors
            Y = b.point_data[pt].basis.vectors
            assert principal_angles(X, Y, fam.mass).max() < 1e-9


class TestPersistence:
    def test_round_trip_evaluates_identically(self, tmp_path):
        fam = model_diffusion_1d(12, 0.3, 2.0, 2)
        cb = collocate(fam, [1], multi_index_set([ORIGIN, mi(1), mi(0, 1)]))
        path = tmp_path / "basis.json"
        save_collocated(cb, path)
        back = load_collocated(path)
        rng = np.random.default_rng(1)
        for _ in range(5):
            y = rng.uniform(-1, 1, 2)
            assert np.array_equal(evaluate(cb, y), evaluate(back, y))

    @settings(max_examples=25)
    @given(
        st.integers(4, 12), st.integers(1, 3), st.floats(0.0, 2.5),
        st.integers(0, 2**32 - 1),
    )
    def test_reload_evaluates_bit_identically(self, n_elements, n_terms, budget, seed):
        fam = model_diffusion_1d(n_elements, 0.3, 2.0, n_terms)
        cb = collocate(fam, [1], anisotropic_set([2.0, 3.0, 4.0][:n_terms], budget))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "basis.json")
            save_collocated(cb, path)
            back = load_collocated(path)
        Y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(6, n_terms))
        assert np.array_equal(evaluate_many(cb, Y), evaluate_many(back, Y))
        for y in Y:
            assert np.array_equal(evaluate(cb, y), evaluate(back, y))
            assert np.array_equal(
                evaluate_cluster_values(cb, y), evaluate_cluster_values(back, y)
            )

    def test_saved_bytes_are_one_dumps(self, tmp_path):
        fam = model_diffusion_1d(8, 0.2, 2.0, 2)
        cb = collocate(fam, [1], line_set(2))
        path = tmp_path / "basis.json"
        save_collocated(cb, path)
        # compact separators: no space after a comma or a colon
        compact = {"separators": (",", ":")}
        assert path.read_bytes() == json.dumps(collocated_to_dict(cb), **compact).encode("utf-8")
        path = tmp_path / "family.json"
        save_family(fam, path)
        assert path.read_bytes() == json.dumps(family_to_dict(fam), **compact).encode("utf-8")

    def test_tampered_family_detected(self, tmp_path):
        fam = model_diffusion_1d(8, 0.2, 2.0, 1)
        cb = collocate(fam, [1], line_set(1))
        doc = collocated_to_dict(cb)
        # double the first stored value of B0 in its packed little-endian bytes
        data = doc["family"]["B0"]["data"]
        values = np.frombuffer(base64.b64decode(data["base64"]), dtype="<f8").copy()
        values[0] *= 2.0
        data["base64"] = base64.b64encode(values.tobytes()).decode("ascii")
        with pytest.raises(ConfigError, match="family hash mismatch"):
            collocated_from_dict(json.loads(json.dumps(doc)))

    def test_tampered_family_indices_detected(self):
        fam = model_diffusion_1d(8, 0.2, 2.0, 1)
        doc = collocated_to_dict(collocate(fam, [1], line_set(1)))
        # row 0 of the tridiagonal term holds columns 0 and 1; move the
        # second entry to column 2, which keeps the layout well formed
        assert doc["family"]["terms"][0]["indices"][:2] == [0, 1]
        doc["family"]["terms"][0]["indices"][1] = 2
        with pytest.raises(ConfigError, match="family hash mismatch"):
            collocated_from_dict(json.loads(json.dumps(doc)))

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigError):
            collocated_from_dict({"format": "something-else"})

    def test_terms_follow_the_index_set(self):
        fam = model_diffusion_1d(8, 0.2, 2.0, 2)
        cb = collocate(fam, [1], anisotropic_set([2.0, 3.0], 1.5))
        assert cb.terms == tuple(combination_terms(cb.A))
        # derived from A, not a field
        with pytest.raises(TypeError, match="terms"):
            dataclasses.replace(cb, terms=cb.terms[:-1])

    def test_point_coverage_validated(self):
        fam = model_diffusion_1d(8, 0.2, 2.0, 1)
        cb = collocate(fam, [1], line_set(1))
        broken = dict(cb.point_data)
        broken.pop(next(iter(broken)))
        with pytest.raises(FamilyValidationError):
            dataclasses.replace(cb, point_data=broken)
