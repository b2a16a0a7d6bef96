import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigcolloc import (
    ClusterCoverageError,
    ConfigError,
    ClusterSelection,
    DecayViolationError,
    DegenerateBasisError,
    FamilyValidationError,
    IsolationPreconditionError,
    SpectralDecomposition,
    assemble_at,
    canonical_basis,
    check_isolation,
    isolation_parameter,
    model_diffusion_1d,
    model_diffusion_2d,
    principal_angles,
    solve_gevp,
    spectral_projector_apply,
    synthetic_family,
    weyl_envelope,
)
from eigcolloc import DecaySequence
from eigcolloc.eigensolver import ReducedFamily
from eigcolloc.eigenspace import exterior_gap


class TestClusterSelection:
    def test_valid(self):
        c = ClusterSelection((2, 3, 5))
        assert c.S == 3 and c.lo == 2 and c.hi == 5
        assert ClusterSelection(tuple(np.array([2, 3]))).J == (2, 3)

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(FamilyValidationError):
            ClusterSelection((3, 2))
        with pytest.raises(FamilyValidationError):
            ClusterSelection((2, 2))
        with pytest.raises(FamilyValidationError):
            ClusterSelection(())
        with pytest.raises(FamilyValidationError):
            ClusterSelection((0, 1))

    @pytest.mark.parametrize("J", [(1.5, 2.7), (True, 2), ("1", "2")])
    def test_rejects_indices_that_are_not_integers(self, J):
        # int() would truncate 1.5 and take true for 1
        with pytest.raises(FamilyValidationError, match="must be integers"):
            ClusterSelection(J)


class TestWeylEnvelope:
    def test_single_value(self):
        assert weyl_envelope([2.0], 0.5) == [(1.0, 3.0)]

    def test_zero_kappa_degenerate(self):
        env = weyl_envelope([1.0, 4.0], 0.0)
        assert env == [(1.0, 1.0), (4.0, 4.0)]

    def test_kappa_at_one_rejected(self):
        with pytest.raises(DecayViolationError):
            weyl_envelope([1.0], 1.0)

    def test_values_must_ascend(self):
        with pytest.raises(FamilyValidationError):
            weyl_envelope([2.0, 1.0], 0.1)

    def test_sampled_eigenvalues_respect_envelopes(self):
        # spot check on the 1D model; the full 100-sample sweep runs in the
        # acceptance suite
        fam = model_diffusion_1d(40, 0.3, 2.0, 4)
        vals0 = solve_gevp(fam.B0, fam.mass, k=6).values
        env = weyl_envelope(list(vals0), fam.kappa.total)
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.uniform(-1, 1, fam.n_terms)
            vals = solve_gevp(assemble_at(fam, y), fam.mass, k=6).values
            for i, (lo, hi) in enumerate(env):
                assert lo - 1e-12 * vals0[i] <= vals[i] <= hi + 1e-12 * vals0[i]


class TestIsolationParameter:
    def test_formula_value(self):
        assert isolation_parameter(1.0, 0.1) == pytest.approx(0.7 / 1.1, abs=1e-15)

    def test_zero_kappa_passthrough(self):
        assert isolation_parameter(0.8, 0.0) == 0.8

    def test_second_worked_value(self):
        # 0.25 > 2/9, so delta = (0.25 - 2.25*0.1)/1.1
        assert isolation_parameter(0.25, 0.1) == pytest.approx(0.025 / 1.1, abs=1e-15)

    def test_precondition_violated(self):
        with pytest.raises(IsolationPreconditionError):
            isolation_parameter(0.2, 0.1)  # threshold is 2/9 ~ 0.222

    def test_invalid_kappa(self):
        with pytest.raises(DecayViolationError):
            isolation_parameter(1.0, 1.0)

    @pytest.mark.parametrize("kappa_sum", [0.0, 0.1])
    def test_nan_gap_is_not_certified(self, kappa_sum):
        with pytest.raises(IsolationPreconditionError):
            isolation_parameter(math.nan, kappa_sum)

    @pytest.mark.parametrize("kappa_sum", [0.0, 0.1, 0.5])
    def test_infinite_gap_stays_infinite(self, kappa_sum):
        assert isolation_parameter(math.inf, kappa_sum) == math.inf
        with pytest.raises(IsolationPreconditionError):
            isolation_parameter(-math.inf, kappa_sum)

    @pytest.mark.parametrize(
        "delta0, kappa_sum", [(1.0, 0.1), (0.25, 0.1), (3.7, 0.3), (1e300, 0.5)]
    )
    def test_finite_gap_keeps_the_formula_bits(self, delta0, kappa_sum):
        # the tau-weights, and so the index sets, are built from these bits
        want = (delta0 - (delta0 + 2.0) * kappa_sum) / (1.0 + kappa_sum)
        assert isolation_parameter(delta0, kappa_sum) == want


class TestExteriorGap:
    VALUES = [1.0, 2.0, 5.0, 5.5]

    def test_nearer_neighbour_wins(self):
        assert exterior_gap(self.VALUES, [2]) == 1.0
        assert exterior_gap(self.VALUES, [3]) == 0.5

    def test_absent_neighbours_count_as_infinite(self):
        assert exterior_gap(self.VALUES, [1, 2]) == 3.0
        assert exterior_gap(self.VALUES, [3, 4]) == 3.0
        assert exterior_gap(self.VALUES[:3], [2, 3]) == 1.0
        assert math.isinf(exterior_gap(self.VALUES, [1, 2, 3, 4]))


class TestCheckIsolation:
    def test_constant_family_exact_gap(self):
        fam = synthetic_family(
            np.diag([1.0, 2.0, 5.0]), [], np.eye(3), DecaySequence(())
        )
        rep = check_isolation(fam, [1, 2], delta=1.0, n_samples=10, seed=0)
        assert rep.isolated
        assert rep.delta_observed == pytest.approx(1.5, abs=1e-12)
        for _, gap, mx in rep.samples:
            assert gap == pytest.approx(3.0, abs=1e-12)
            assert mx == pytest.approx(2.0, abs=1e-12)

    def test_whole_spectrum_is_trivially_isolated(self):
        fam = synthetic_family(
            np.diag([1.0, 2.0, 5.0]), [], np.eye(3), DecaySequence(())
        )
        rep = check_isolation(fam, [1, 2, 3], delta=100.0, n_samples=5, seed=0)
        assert rep.isolated
        assert math.isinf(rep.delta_observed)

    def test_2d_model_cluster_gap_near_analytic(self):
        # continuum relative gap around the degenerate pair {2,3} on the square
        # is (8 - 5)/5 = 0.6; coarse mesh and small c perturb it mildly
        fam = model_diffusion_2d(10, 0.05, 2.0, 2)
        rep = check_isolation(fam, [2, 3], delta=0.3, n_samples=25, seed=1)
        assert rep.isolated
        assert rep.delta_observed == pytest.approx(0.6, abs=0.1)

    def test_out_of_range_cluster(self):
        fam = synthetic_family(np.eye(2), [], np.eye(2), DecaySequence(()))
        with pytest.raises(ClusterCoverageError):
            check_isolation(fam, [3], delta=0.1, n_samples=2, seed=0)

    @pytest.mark.parametrize("n_samples, seed", [(0, 0), (-3, 0), (2.5, 0), (5, -1)])
    def test_rejects_bad_sample_count_or_seed(self, n_samples, seed):
        # zero samples would certify isolation with delta_observed = inf
        fam = synthetic_family(np.diag([1.0, 2.0, 5.0]), [], np.eye(3), DecaySequence(()))
        with pytest.raises(ConfigError):
            check_isolation(fam, [1], delta=0.1, n_samples=n_samples, seed=seed)

    def test_report_serializes(self):
        fam = synthetic_family(
            np.diag([1.0, 2.0, 5.0]), [], np.eye(3), DecaySequence(())
        )
        rep = check_isolation(fam, [1, 2, 3], delta=0.1, n_samples=3, seed=0)
        doc = rep.to_dict()
        assert doc["delta_observed"] is None  # inf maps to null
        assert doc["n_samples"] == 3 and len(doc["samples"]) == 3


def loop_check_isolation(family, J, n_samples, seed):
    """The per-sample loop ``check_isolation`` ran before it read its solves
    from ``ReducedFamily.solve_many``; kept as the reference, one point solve
    at a time: (samples, worst)."""
    cluster = ClusterSelection(tuple(J))
    k = min(cluster.hi + 1, family.dim)
    reduced = ReducedFamily(family)
    rng = np.random.default_rng(seed)
    samples = []
    worst = math.inf
    for _ in range(n_samples):
        y = rng.uniform(-1.0, 1.0, size=family.n_terms)
        vals = reduced.solve(y, k).values
        gap = exterior_gap(vals, cluster)
        mx = float(vals[cluster.hi - 1])
        worst = min(worst, gap / mx)
        samples.append((tuple(y), gap, mx))
    return tuple(samples), worst


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 14), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2),
    st.integers(1, 12), st.integers(0, 2**32 - 1),
)
def test_check_isolation_equals_the_per_sample_loop(n_elements, n_terms, lo, width,
                                                    n_samples, seed):
    fam = model_diffusion_1d(n_elements, 0.3, 2.0, n_terms)
    J = list(range(lo, min(lo + width, fam.dim) + 1))
    rep = check_isolation(fam, J, delta=0.1, n_samples=n_samples, seed=seed)
    samples, worst = loop_check_isolation(fam, J, n_samples, seed)
    # bit for bit: the same sample stream and the same solves
    assert rep.samples == samples
    assert rep.delta_observed == worst


def projector_fixture(seed=0, n=7, cluster=(2, 3)):
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((n, n))
    K = R + R.T + 2 * n * np.eye(n)
    Q = rng.standard_normal((n, n))
    M = Q @ Q.T + n * np.eye(n)
    decomp = solve_gevp(K, M)
    return decomp, M, ClusterSelection(cluster), rng


class TestSpectralProjector:
    def test_fixes_its_range(self):
        decomp, M, cluster, _ = projector_fixture()
        for j in cluster.J:
            u = decomp.vectors[:, j - 1]
            assert np.allclose(spectral_projector_apply(decomp, cluster, M, u), u,
                               atol=1e-11)

    def test_annihilates_complement(self):
        decomp, M, cluster, _ = projector_fixture()
        for j in range(1, decomp.k + 1):
            if j in cluster.J:
                continue
            u = decomp.vectors[:, j - 1]
            out = spectral_projector_apply(decomp, cluster, M, u)
            assert np.abs(out).max() < 1e-11

    def test_idempotent(self):
        decomp, M, cluster, rng = projector_fixture(seed=2)
        v = rng.standard_normal(decomp.vectors.shape[0])
        once = spectral_projector_apply(decomp, cluster, M, v)
        twice = spectral_projector_apply(decomp, cluster, M, once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_m_self_adjoint(self):
        decomp, M, cluster, rng = projector_fixture(seed=3)
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        Pa = spectral_projector_apply(decomp, cluster, M, a)
        Pb = spectral_projector_apply(decomp, cluster, M, b)
        assert Pa @ M @ b == pytest.approx(a @ M @ Pb, abs=1e-10)

    def test_missing_index(self):
        decomp, M, _, _ = projector_fixture()
        part = SpectralDecomposition(decomp.values[:2], decomp.vectors[:, :2])
        with pytest.raises(ClusterCoverageError):
            spectral_projector_apply(part, [3], M, np.zeros(7))


class TestCanonicalBasis:
    def test_identity_at_reference_point(self):
        decomp, M, cluster, _ = projector_fixture()
        refs = decomp.vectors[:, [j - 1 for j in cluster.J]]
        basis = canonical_basis(decomp, refs, cluster, M)
        assert np.allclose(basis.vectors, refs, atol=1e-12)
        assert basis.gram_sigma_min == pytest.approx(1.0, abs=1e-10)

    def test_sign_flip_invariance(self):
        decomp, M, cluster, _ = projector_fixture(seed=4)
        refs = decomp.vectors[:, [j - 1 for j in cluster.J]]
        flipped = decomp.vectors.copy()
        flipped[:, cluster.J[0] - 1] *= -1.0
        alt = SpectralDecomposition(decomp.values, flipped)
        a = canonical_basis(decomp, refs, cluster, M)
        b = canonical_basis(alt, refs, cluster, M)
        assert np.allclose(a.vectors, b.vectors, atol=1e-12)

    def test_orthogonal_remix_invariance(self):
        decomp, M, cluster, rng = projector_fixture(seed=5)
        refs = decomp.vectors[:, [j - 1 for j in cluster.J]]
        G = rng.standard_normal((cluster.S, cluster.S))
        Q = np.linalg.qr(G)[0]
        mixed = decomp.vectors.copy()
        cols = [j - 1 for j in cluster.J]
        mixed[:, cols] = mixed[:, cols] @ Q
        alt = SpectralDecomposition(decomp.values, mixed)
        a = canonical_basis(decomp, refs, cluster, M)
        b = canonical_basis(alt, refs, cluster, M)
        assert np.allclose(a.vectors, b.vectors, atol=1e-10)
        assert a.gram_sigma_min == pytest.approx(b.gram_sigma_min, abs=1e-10)

    def test_degenerate_when_subspace_turns_orthogonal(self):
        # cluster span e2 but reference e1: Gram matrix is exactly zero
        decomp = SpectralDecomposition(
            np.array([1.0, 2.0]), np.eye(2)[:, [1, 0]]
        )
        refs = np.eye(2)[:, [0]]
        with pytest.raises(DegenerateBasisError) as err:
            canonical_basis(decomp, refs, [1], np.eye(2))
        assert err.value.sigma_min == 0.0

    def test_output_spans_cluster_subspace(self):
        decomp, M, cluster, _ = projector_fixture(seed=6)
        # reference vectors from a nearby but different operator
        rng = np.random.default_rng(7)
        refs = decomp.vectors[:, [j - 1 for j in cluster.J]]
        refs = refs + 0.05 * rng.standard_normal(refs.shape)
        basis = canonical_basis(decomp, refs, cluster, M)
        U = decomp.vectors[:, [j - 1 for j in cluster.J]]
        angles = principal_angles(basis.vectors, U, M)
        assert angles.max() < 1e-8

    @given(
        st.integers(3, 12),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_invariant_under_rotation_of_cluster_vectors(self, n, S, seed):
        # the basis depends on the cluster subspace only, not on the choice of
        # eigenvectors spanning it: rotate them by a random S x S orthogonal Q
        lo = 1 + seed % (n - S + 1)
        decomp, M, cluster, rng = projector_fixture(
            seed=seed, n=n, cluster=tuple(range(lo, lo + S))
        )
        cols = [j - 1 for j in cluster.J]
        refs = decomp.vectors[:, cols] + 0.1 * rng.standard_normal((n, S))
        Q = np.linalg.qr(rng.standard_normal((S, S)))[0]
        rotated = decomp.vectors.copy()
        rotated[:, cols] = rotated[:, cols] @ Q
        turned = SpectralDecomposition(values=decomp.values, vectors=rotated)
        a = canonical_basis(decomp, refs, cluster, M).vectors
        b = canonical_basis(turned, refs, cluster, M).vectors
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


class TestPrincipalAngles:
    def test_same_span_gives_zero(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 3))
        mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        angles = principal_angles(X, X @ mix, np.eye(8))
        assert angles.max() < 1e-10

    def test_orthogonal_spans(self):
        X = np.eye(4)[:, [0]]
        Y = np.eye(4)[:, [1]]
        assert principal_angles(X, Y, np.eye(4))[-1] == pytest.approx(np.pi / 2)

    def test_rank_deficient_block_is_turned_fully_away(self):
        # a doubled column spans one direction only; the missing one counts
        # as pi/2 whichever side it is on
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 1))
        X = np.hstack([x, 2.0 * x])
        Y = np.hstack([x, rng.standard_normal((6, 1))])
        M = np.diag(np.arange(1.0, 7.0))
        for a, b in ((X, Y), (Y, X)):
            angles = principal_angles(a, b, M)
            assert len(angles) == 2
            assert angles[0] < 1e-10
            assert angles[-1] == math.pi / 2

    def test_known_rotation_angle(self):
        theta = 0.3
        X = np.array([[1.0], [0.0]])
        Y = np.array([[np.cos(theta)], [np.sin(theta)]])
        assert principal_angles(X, Y, np.eye(2))[0] == pytest.approx(theta, abs=1e-12)
