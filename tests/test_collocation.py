import dataclasses
import json
import math
import os
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
    assemble_at,
    canonical_basis,
    collocate,
    designed_crossing_family,
    evaluate,
    evaluate_cluster_values,
    evaluate_many,
    load_collocated,
    model_diffusion_1d,
    multi_index_set,
    orthonormalize_at,
    principal_angles,
    SolverError,
    anisotropic_set,
    grid_points,
    save_collocated,
    solve_gevp,
    synthetic_family,
)
from eigcolloc import collocation
from eigcolloc.collocation import (
    PointSolution,
    _SolveCache,
    collocated_from_dict,
    collocated_to_dict,
)
from eigcolloc.eigensolver import ReducedFamily
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

    def test_degenerate_basis_reports_point(self):
        # force the failure path with an artificially strict threshold
        fam = model_diffusion_1d(15, 0.3, 2.0, 1)
        with pytest.raises(DegenerateBasisError) as err:
            collocate(fam, [1], line_set(3), sigma_threshold=1.0)
        assert err.value.point is not None
        assert err.value.sigma_min < 1.0

    def test_solver_error_reports_point(self, monkeypatch):
        fam = model_diffusion_1d(15, 0.3, 2.0, 1)
        A = line_set(2)
        real = collocation.solve_gevp

        def fails_off_origin(K, M, k=None):
            # the dense reference solve passes; the reduced point solves fail
            if M is None:
                raise SolverError("synthetic failure")
            return real(K, M, k=k)

        monkeypatch.setattr(collocation, "solve_gevp", fails_off_origin)
        with pytest.raises(SolverError, match="synthetic failure at point") as err:
            collocate(fam, [1], A)
        assert str(grid_points(A)[0]) in str(err.value)

    def test_unknown_target_rejected(self):
        fam = constant_family()
        with pytest.raises(ConfigError):
            collocate(fam, [1], multi_index_set([ORIGIN]), target="sorted")


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


class TestCarriedSolves:
    def test_carried_solves_equal_fresh_ones(self):
        # the first set activates one dimension and the second three, so the
        # carried points are found under keys padded with two zeros
        fam = model_diffusion_1d(14, 0.3, 2.0, 3)
        rho = [1.5, 3.0, 3.0]
        small, large = anisotropic_set(rho, 0.9), anisotropic_set(rho, 1.2)
        assert small.M_active == 1 and large.M_active == 3
        cache = _SolveCache()
        first = collocate(fam, [1, 2], small, _cache=cache)
        carried = collocate(fam, [1, 2], large, _cache=cache)
        fresh = collocate(fam, [1, 2], large)
        assert cache.reused == 1 + len(first.point_data)
        assert cache.solves == 1 + len(fresh.point_data)
        assert carried.point_data.keys() == fresh.point_data.keys()
        for pt, sol in fresh.point_data.items():
            other = carried.point_data[pt]
            assert np.array_equal(other.basis.vectors, sol.basis.vectors)
            assert np.array_equal(other.cluster_values, sol.cluster_values)
            assert other.basis.gram_sigma_min == sol.basis.gram_sigma_min
        for pt in first.point_data:
            padded = pt + (0.0, 0.0)
            assert carried.point_data[padded] is first.point_data[pt]
        assert carried.diagnostics == fresh.diagnostics
        assert np.array_equal(carried.ref_vectors, fresh.ref_vectors)
        y = [0.3, -0.7, 0.1]
        assert np.array_equal(evaluate(carried, y), evaluate(fresh, y))

    def test_targets_keep_their_own_points(self):
        fam = model_diffusion_1d(10, 0.2, 2.0, 1)
        cache = _SolveCache()
        canonical = collocate(fam, [1], line_set(2), _cache=cache)
        raw = collocate(fam, [1], line_set(2), target="raw", _cache=cache)
        assert raw.target == "raw"
        assert cache.solves == 1 + 2 * len(canonical.point_data)
        fresh = collocate(fam, [1], line_set(2), target="raw")
        for pt, sol in fresh.point_data.items():
            assert np.array_equal(raw.point_data[pt].basis.vectors, sol.basis.vectors)


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
        # the solve collocate makes; tests/test_eigensolver.py holds it to
        # the dense solve of the assembled pencil
        reduced = ReducedFamily(fam)
        for pt, sol in cb.point_data.items():
            decomp = reduced.lift(solve_gevp(reduced.at(pt), None, k=3))
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

    def test_tampered_family_detected(self, tmp_path):
        fam = model_diffusion_1d(8, 0.2, 2.0, 1)
        cb = collocate(fam, [1], line_set(1))
        doc = collocated_to_dict(cb)
        doc["family"]["B0"][0][0] *= 2.0
        with pytest.raises(ConfigError):
            collocated_from_dict(json.loads(json.dumps(doc)))

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigError):
            collocated_from_dict({"format": "something-else"})

    def test_point_coverage_validated(self):
        fam = model_diffusion_1d(8, 0.2, 2.0, 1)
        cb = collocate(fam, [1], line_set(1))
        broken = dict(cb.point_data)
        broken.pop(next(iter(broken)))
        with pytest.raises(FamilyValidationError):
            dataclasses.replace(cb, point_data=broken)
