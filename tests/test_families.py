import json

import numpy as np
import pytest
import scipy.linalg

from eigcolloc import (
    AffineOperatorFamily,
    DecaySequence,
    DecayViolationError,
    FamilyValidationError,
    ParameterDimensionError,
    assemble_at,
    designed_crossing_family,
    dirichlet_laplace_eigenvalue_1d,
    family_from_dict,
    family_hash,
    family_to_dict,
    load_family,
    model_diffusion_1d,
    model_diffusion_2d,
    save_family,
    synthetic_family,
    verify_decay,
)
from eigcolloc.families import _weighted_matrices_1d, wavenumber_pairs


def small_family(n_terms=2, n=5, seed=0):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    B0 = R @ R.T + n * np.eye(n)
    Q = rng.standard_normal((n, n))
    mass = Q @ Q.T + n * np.eye(n)
    terms = []
    for _ in range(n_terms):
        T = rng.standard_normal((n, n))
        terms.append(0.05 * (T + T.T))
    return synthetic_family(B0, terms, mass, DecaySequence((0.1,) * n_terms))


class TestDecaySequence:
    def test_rejects_nonpositive_entries(self):
        with pytest.raises(FamilyValidationError):
            DecaySequence((0.1, 0.0))
        with pytest.raises(FamilyValidationError):
            DecaySequence((-0.2,))

    def test_rejects_sum_at_least_one(self):
        with pytest.raises(DecayViolationError):
            DecaySequence((0.6, 0.5))

    def test_rejects_nan_entries(self):
        # NaN is not positive, and a NaN total is not below one either
        with pytest.raises(FamilyValidationError, match="positive"):
            DecaySequence((0.1, float("nan")))

    def test_rejects_bad_exponent(self):
        with pytest.raises(FamilyValidationError):
            DecaySequence((0.1,), p_exponent=0.0)
        with pytest.raises(FamilyValidationError):
            DecaySequence((0.1,), p_exponent=1.5)

    def test_norms(self):
        ks = DecaySequence((0.3, 0.1), p_exponent=0.5)
        assert ks.total == pytest.approx(0.4)
        # (0.3^0.5 + 0.1^0.5)^2
        assert ks.lp_norm() == pytest.approx((0.3**0.5 + 0.1**0.5) ** 2)


class TestFamilyValidation:
    def test_asymmetric_term_rejected(self):
        B0 = np.eye(3)
        bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(FamilyValidationError):
            synthetic_family(B0, [bad], np.eye(3), DecaySequence((0.1,)))

    def test_indefinite_b0_rejected(self):
        B0 = np.diag([1.0, -1.0])
        with pytest.raises(FamilyValidationError):
            synthetic_family(B0, [], np.eye(2), DecaySequence(()))

    def test_term_count_mismatch(self):
        with pytest.raises(FamilyValidationError):
            synthetic_family(np.eye(2), [np.eye(2)], np.eye(2), DecaySequence(()))

    def test_shape_mismatch(self):
        with pytest.raises(FamilyValidationError):
            AffineOperatorFamily(
                dim=3, B0=np.eye(2), B_terms=(), mass=np.eye(3),
                kappa=DecaySequence(()),
            )

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True])
    def test_dim_is_a_positive_integer(self, dim):
        # int() would truncate 2.5 and take true for 1; dim 0 has no matrix to check
        with pytest.raises(FamilyValidationError, match="dim must be a positive integer"):
            AffineOperatorFamily(
                dim=dim, B0=np.eye(1), B_terms=(), mass=np.eye(1), kappa=DecaySequence(()),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("matrix", ["B0", "term 1", "mass"])
    def test_non_finite_entry_rejected(self, matrix, value):
        # a NaN passes both the symmetry comparison and the Cholesky check
        fam = small_family()
        B0, terms, mass = fam.B0.copy(), [B.copy() for B in fam.B_terms], fam.mass.copy()
        target = {"B0": B0, "term 1": terms[1], "mass": mass}[matrix]
        target[2, 2] = value
        with pytest.raises(FamilyValidationError, match=f"{matrix} has a non-finite entry"):
            synthetic_family(B0, terms, mass, fam.kappa)


class TestAssembleAt:
    def test_affine_combination(self):
        fam = small_family()
        y = np.array([0.4, -0.7])
        expect = fam.B0 + 0.4 * fam.B_terms[0] - 0.7 * fam.B_terms[1]
        assert np.array_equal(assemble_at(fam, y), expect)

    def test_short_vector_pads_with_zero(self):
        fam = small_family()
        assert np.array_equal(assemble_at(fam, [0.5]), fam.B0 + 0.5 * fam.B_terms[0])
        assert np.array_equal(assemble_at(fam, []), fam.B0)

    def test_too_long_vector_rejected(self):
        fam = small_family()
        with pytest.raises(ParameterDimensionError):
            assemble_at(fam, [0.1, 0.2, 0.3])


class TestDiffusion1D:
    def test_unperturbed_matrices_n4(self):
        fam = model_diffusion_1d(4, 0.0)
        assert fam.n_terms == 0
        expect_K = np.array([[8.0, -4.0, 0.0], [-4.0, 8.0, -4.0], [0.0, -4.0, 8.0]])
        h = 0.25
        expect_M = h / 6.0 * np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
        assert np.allclose(fam.B0, expect_K, atol=1e-14)
        assert np.allclose(fam.mass, expect_M, atol=1e-16)

    def test_eigenvalue_formula_matches_dense_solve(self):
        n = 12
        fam = model_diffusion_1d(n, 0.0)
        vals = scipy.linalg.eigvalsh(fam.B0, fam.mass)
        for k in range(1, n):
            assert vals[k - 1] == pytest.approx(
                dirichlet_laplace_eigenvalue_1d(k, n), rel=1e-12
            )

    def test_claimed_decay_dominates_measured(self):
        fam = model_diffusion_1d(30, 0.3, 2.0, 4)
        rep = verify_decay(fam)
        assert rep.ok
        for claimed, measured in zip(rep.claimed, rep.measured):
            assert 0.0 < measured <= claimed + 1e-12

    def test_perturbed_assembly_stays_positive(self):
        # ellipticity: kappa sum < 1 keeps B(y) positive definite at corners
        fam = model_diffusion_1d(20, 0.3, 2.0, 4)
        for corner in ([1, 1, 1, 1], [-1, -1, -1, -1], [1, -1, 1, -1]):
            vals = scipy.linalg.eigvalsh(assemble_at(fam, corner), fam.mass)
            assert vals[0] > 0

    def test_zero_scale_means_no_terms(self):
        fam = model_diffusion_1d(10, 0.0, 2.0, 5)
        assert fam.n_terms == 0

    def test_decay_sum_guard(self):
        with pytest.raises(DecayViolationError):
            model_diffusion_1d(10, 0.9, 1.0, 8)


class TestDiffusion2D:
    def test_wavenumber_enumeration(self):
        assert wavenumber_pairs(6) == [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]

    def test_unperturbed_spectrum_is_sum_of_1d(self):
        n = 8
        fam = model_diffusion_2d(n, 0.0)
        vals = scipy.linalg.eigvalsh(fam.B0, fam.mass)
        oned = [dirichlet_laplace_eigenvalue_1d(k, n) for k in range(1, n)]
        sums = sorted(a + b for a in oned for b in oned)
        assert np.allclose(vals, sums, rtol=1e-11)

    def test_first_eigenvalue_near_continuum(self):
        fam = model_diffusion_2d(16, 0.0)
        v0 = scipy.linalg.eigvalsh(fam.B0, fam.mass)[0]
        assert v0 == pytest.approx(2 * np.pi**2, rel=5e-3)

    def test_decay_bounds_hold(self):
        fam = model_diffusion_2d(8, 0.2, 2.0, 3)
        rep = verify_decay(fam)
        assert rep.ok

    def test_no_negative_zeros(self):
        # the zeros of the Kronecker products are stored as +0.0; every
        # other entry is the scaled Kronecker sum
        fam = model_diffusion_2d(8, 0.2, 2.0, 3)
        for m, (k1, k2) in enumerate(wavenumber_pairs(3)):
            B = fam.B_terms[m]
            assert not np.any(np.signbit(B) & (B == 0.0))
            Kw1, Mw1 = _weighted_matrices_1d(8, k1)
            Kw2, Mw2 = _weighted_matrices_1d(8, k2)
            scaled = fam.kappa.kappa[m] * (np.kron(Kw1, Mw2) + np.kron(Mw1, Kw2))
            assert np.any(np.signbit(scaled) & (scaled == 0.0))
            assert np.array_equal(B, scaled)
            nonzero = scaled != 0.0
            assert B[nonzero].tobytes() == scaled[nonzero].tobytes()
        for B in (fam.B0, fam.mass):
            assert not np.any(np.signbit(B) & (B == 0.0))


class TestCrossingFamily:
    def test_middle_pair_crosses_at_origin(self):
        fam = designed_crossing_family()
        v0 = np.linalg.eigvalsh(assemble_at(fam, [0.0]))
        assert v0[1] == pytest.approx(2.0, abs=1e-12)
        assert v0[2] == pytest.approx(2.0, abs=1e-12)
        # off the origin the pair splits symmetrically
        for y in (-0.5, 0.25, 0.8):
            v = np.linalg.eigvalsh(assemble_at(fam, [y]))
            assert v[2] - v[1] > 0.2 * abs(y)

    def test_cluster_stays_isolated(self):
        fam = designed_crossing_family()
        for y in np.linspace(-1, 1, 21):
            v = np.linalg.eigvalsh(assemble_at(fam, [y]))
            assert v[1] - v[0] > 0.3
            assert v[3] - v[2] > 0.5

    def test_claimed_bound_holds(self):
        assert verify_decay(designed_crossing_family()).ok


class TestSerialization:
    def test_round_trip_preserves_matrices(self):
        fam = small_family()
        doc = family_to_dict(fam)
        back = family_from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(back.B0, fam.B0)
        assert np.array_equal(back.mass, fam.mass)
        for a, b in zip(back.B_terms, fam.B_terms):
            assert np.array_equal(a, b)
        assert back.kappa == fam.kappa

    def test_file_round_trip(self, tmp_path):
        fam = model_diffusion_1d(6, 0.2, 2.0, 2)
        path = tmp_path / "family.json"
        save_family(fam, path)
        back = load_family(path)
        assert np.array_equal(back.B0, fam.B0)
        assert back.kappa.p_exponent == fam.kappa.p_exponent

    def test_defaults_for_optional_keys(self):
        doc = {
            "dim": 2,
            "mass": [[1.0, 0.0], [0.0, 1.0]],
            "B0": [[2.0, 0.0], [0.0, 3.0]],
            "terms": [],
            "kappa": [],
        }
        fam = family_from_dict(doc)
        assert fam.kappa.p_exponent == 1.0

    def test_alpha0_key_is_ignored_and_not_written(self):
        # older documents carry an alpha0 key that no computation read
        fam = model_diffusion_1d(6, 0.2, 2.0, 2)
        doc = family_to_dict(fam)
        assert "alpha0" not in doc
        back = family_from_dict({**doc, "alpha0": 2.0})
        assert family_to_dict(back) == doc

    def test_malformed_document(self):
        with pytest.raises(FamilyValidationError):
            family_from_dict({"dim": 2})

    def test_hash_distinguishes_families(self):
        a = model_diffusion_1d(6, 0.2, 2.0, 2)
        b = model_diffusion_1d(6, 0.25, 2.0, 2)
        assert family_hash(a) == family_hash(model_diffusion_1d(6, 0.2, 2.0, 2))
        assert family_hash(a) != family_hash(b)
