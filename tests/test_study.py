import dataclasses
import json
import math

import numpy as np
import pytest

from eigcolloc import (
    ConfigError,
    DecaySequence,
    SolverError,
    StageError,
    StudyConfig,
    assemble_at,
    canonical_basis,
    collocate,
    compute_tau_weights,
    anisotropic_set,
    estimate_error,
    fit_rate,
    model_diffusion_1d,
    multi_index_set,
    principal_angles,
    run_convergence_study,
    run_crossing_demo,
    solve_gevp,
    synthetic_family,
)
from eigcolloc import study
from eigcolloc.families import family_hash, save_family
from eigcolloc.sparse_grid import ORIGIN, MultiIndex
from eigcolloc.study import build_family, load_config, resolve_weights, _write_csv


def line_set(max_level, dim=1):
    idx = [ORIGIN]
    for l in range(1, max_level + 1):
        levels = [0] * dim
        levels[dim - 1] = l
        idx.append(MultiIndex.from_dense(levels))
    return multi_index_set(idx)


class TestTauWeights:
    def test_matches_formula_for_p_one(self):
        kappa = tuple(0.3 * m ** -2.0 for m in range(1, 5))
        seq = DecaySequence(kappa, 1.0)
        rho = compute_tau_weights(seq, delta=0.5, epsilon=0.5)
        norm1 = sum(kappa)
        scale = 0.5 * (1.0 - norm1) / (2.0 * norm1 * (1.0 + 1.0 / 0.5))
        for r, km in zip(rho, kappa):
            tau = scale  # p = 1 makes the kappa_m factor drop out
            assert abs(r - (tau + math.sqrt(1.0 + tau * tau))) < 1e-14
        # all dimensions share one radius when p = 1
        assert max(rho) - min(rho) < 1e-15
        assert abs(rho[0] - 1.118020) < 1e-5

    def test_sub_one_exponent_gives_growing_radii(self):
        seq = DecaySequence((0.3, 0.075, 0.3 / 9.0), 0.5)
        rho = compute_tau_weights(seq, delta=0.5, epsilon=0.5)
        assert all(b > a for a, b in zip(rho, rho[1:]))
        assert all(r > 1.0 for r in rho)

    def test_empty_sequence(self):
        assert compute_tau_weights(DecaySequence(()), 0.5, 0.5) == []

    def test_rejects_bad_epsilon(self):
        seq = DecaySequence((0.2,))
        for eps in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ConfigError):
                compute_tau_weights(seq, 0.5, eps)

    def test_rejects_bad_delta(self):
        seq = DecaySequence((0.2,))
        for delta in (0.0, -1.0):
            with pytest.raises(ConfigError):
                compute_tau_weights(seq, delta, 0.5)


class TestStudyConfig:
    def minimal(self):
        return {"model": "diffusion1d", "cluster": [1], "budgets": [1.0]}

    def test_defaults(self):
        cfg = StudyConfig.from_dict(self.minimal())
        assert cfg.metric == "vector-l2"
        assert cfg.n_mc == 200
        assert cfg.seed == 0
        assert cfg.target == "canonical"
        assert cfg.weights_mode == "tau"
        assert cfg.epsilon == 0.5
        assert cfg.weights_delta is None

    def test_rejects_unknown_keys(self):
        doc = self.minimal()
        doc["mystery"] = 1
        with pytest.raises(ConfigError):
            StudyConfig.from_dict(doc)

    def test_rejects_missing_keys(self):
        doc = self.minimal()
        del doc["cluster"]
        with pytest.raises(ConfigError):
            StudyConfig.from_dict(doc)

    def test_rejects_bad_budgets(self):
        doc = self.minimal()
        doc["budgets"] = [1.0, 1.0]
        with pytest.raises(ConfigError):
            StudyConfig.from_dict(doc)
        doc["budgets"] = []
        with pytest.raises(ConfigError):
            StudyConfig.from_dict(doc)

    def test_rejects_bad_names(self):
        for key, value in (
            ("model", "heat3d"),
            ("metric", "manhattan"),
        ):
            doc = self.minimal()
            doc[key] = value
            with pytest.raises(ConfigError):
                StudyConfig.from_dict(doc)
        doc = self.minimal()
        doc["weights"] = {"mode": "magic"}
        with pytest.raises(ConfigError):
            StudyConfig.from_dict(doc)

    def test_rejects_bad_counts(self):
        doc = self.minimal()
        doc["n_mc"] = 0
        with pytest.raises(ConfigError):
            StudyConfig.from_dict(doc)
        doc = self.minimal()
        doc["seed"] = -1
        with pytest.raises(ConfigError, match="seed must be at least 0"):
            StudyConfig.from_dict(doc)

    def test_round_trip_tau_mode(self):
        doc = self.minimal()
        doc["weights"] = {"mode": "tau", "epsilon": 0.25, "delta": 0.7}
        cfg = StudyConfig.from_dict(doc)
        assert StudyConfig.from_dict(cfg.to_dict()) == cfg

    def test_round_trip_explicit_mode(self):
        doc = self.minimal()
        doc["weights"] = {"mode": "explicit", "rho": [1.5, 2.5]}
        doc["metric"] = "subspace-angle"
        doc["n_mc"] = 50
        cfg = StudyConfig.from_dict(doc)
        assert cfg.rho_explicit == (1.5, 2.5)
        assert StudyConfig.from_dict(cfg.to_dict()) == cfg

    def test_load_config_reads_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.minimal()), encoding="utf-8")
        cfg = load_config(path)
        assert cfg.model == "diffusion1d"
        assert cfg.budgets == (1.0,)


class TestBuildFamily:
    def test_diffusion1d(self):
        cfg = StudyConfig.from_dict(
            {
                "model": "diffusion1d",
                "model_params": {"n_elements": 8, "decay_scale": 0.2, "n_terms": 2},
                "cluster": [1],
                "budgets": [1.0],
            }
        )
        fam = build_family(cfg)
        assert fam.dim == 7
        assert fam.n_terms == 2

    def test_defaults_for_unset_model_params(self):
        for model, dim in (("diffusion1d", 99), ("diffusion2d", 225)):
            cfg = StudyConfig.from_dict({"model": model, "cluster": [1], "budgets": [1.0]})
            fam = build_family(cfg)
            assert fam.dim == dim
            assert fam.n_terms == 0

    def test_diffusion2d(self):
        cfg = StudyConfig.from_dict(
            {
                "model": "diffusion2d",
                "model_params": {"n_per_side": 5, "decay_scale": 0.1, "n_terms": 3},
                "cluster": [2, 3],
                "budgets": [1.0],
            }
        )
        fam = build_family(cfg)
        assert fam.dim == 16
        assert fam.n_terms == 3

    @pytest.mark.parametrize(
        "model,params",
        [
            ("diffusion1d", {"n_per_side": 5}),
            ("diffusion2d", {"n_elements": 8}),
            ("synthetic-file", {"n_terms": 2}),
            ("builtin-crossing", {"n_terms": 2}),
        ],
    )
    def test_rejects_model_params_the_model_does_not_read(self, model, params):
        doc = {"model": model, "model_params": params, "cluster": [1], "budgets": [1.0]}
        with pytest.raises(ConfigError, match="unknown model_params keys"):
            StudyConfig.from_dict(doc)

    def test_builtin_crossing(self):
        cfg = StudyConfig.from_dict(
            {"model": "builtin-crossing", "cluster": [2, 3], "budgets": [1.0]}
        )
        fam = build_family(cfg)
        assert fam.dim == 4
        assert fam.n_terms == 1

    def test_synthetic_file_round_trip(self, tmp_path):
        fam = model_diffusion_1d(6, 0.2, 2.0, 1)
        path = tmp_path / "fam.json"
        save_family(fam, path)
        cfg = StudyConfig.from_dict(
            {
                "model": "synthetic-file",
                "model_params": {"family_file": str(path)},
                "cluster": [1],
                "budgets": [1.0],
            }
        )
        loaded = build_family(cfg)
        assert family_hash(loaded) == family_hash(fam)

    def test_synthetic_file_requires_path(self):
        cfg = StudyConfig.from_dict(
            {"model": "synthetic-file", "cluster": [1], "budgets": [1.0]}
        )
        with pytest.raises(ConfigError):
            build_family(cfg)


class TestResolveWeights:
    def test_explicit_passthrough(self):
        cfg = StudyConfig.from_dict(
            {
                "model": "builtin-crossing",
                "cluster": [2, 3],
                "budgets": [1.0],
                "weights": {"mode": "explicit", "rho": [math.e]},
            }
        )
        fam = build_family(cfg)
        assert resolve_weights(cfg, fam) == [math.e]

    def test_explicit_too_many(self):
        cfg = StudyConfig.from_dict(
            {
                "model": "builtin-crossing",
                "cluster": [2, 3],
                "budgets": [1.0],
                "weights": {"mode": "explicit", "rho": [1.5, 1.5]},
            }
        )
        fam = build_family(cfg)
        with pytest.raises(ConfigError):
            resolve_weights(cfg, fam)

    def test_tau_requires_delta(self):
        cfg = StudyConfig.from_dict(
            {
                "model": "diffusion1d",
                "model_params": {"n_elements": 8, "decay_scale": 0.2, "n_terms": 1},
                "cluster": [1],
                "budgets": [1.0],
            }
        )
        fam = build_family(cfg)
        with pytest.raises(ConfigError):
            resolve_weights(cfg, fam)

    def test_tau_delegates_to_formula(self):
        cfg = StudyConfig.from_dict(
            {
                "model": "diffusion1d",
                "model_params": {"n_elements": 8, "decay_scale": 0.2, "n_terms": 3},
                "cluster": [1],
                "budgets": [1.0],
                "weights": {"mode": "tau", "epsilon": 0.4, "delta": 0.6},
            }
        )
        fam = build_family(cfg)
        assert resolve_weights(cfg, fam) == compute_tau_weights(fam.kappa, 0.6, 0.4)


class TestEstimateError:
    def constant_family(self):
        B0 = np.diag([1.0, 3.0, 7.0])
        return synthetic_family(
            B0, [np.zeros((3, 3))], np.eye(3), DecaySequence((0.01,))
        )

    def test_constant_family_is_exact(self):
        fam = self.constant_family()
        cb = collocate(fam, [1], line_set(1))
        est = estimate_error(cb, "vector-l2", 30, seed=7)
        assert est.value < 1e-10
        assert est.n_samples == 30
        assert est.n_failures == 0
        est_angle = estimate_error(cb, "subspace-angle", 30, seed=7)
        assert est_angle.value < 1e-6

    def test_origin_only_matches_hand_computation(self):
        fam = model_diffusion_1d(12, 0.25, 2.0, 2)
        cb = collocate(fam, [1], multi_index_set([ORIGIN]))
        est = estimate_error(cb, "vector-l2", 20, seed=11)
        # replay the same sample stream and accumulate the energy norm directly
        rng = np.random.default_rng(11)
        u0 = cb.point_data[()].basis.vectors
        total = 0.0
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, size=fam.n_terms)
            decomp = solve_gevp(assemble_at(fam, y), fam.mass, k=1)
            truth = canonical_basis(decomp, cb.ref_vectors, [1], fam.mass)
            diff = u0 - truth.vectors
            total += float(np.sum(diff * (fam.B0 @ diff)))
        assert abs(est.value - math.sqrt(total / 20.0)) < 1e-12
        assert est.n_samples == 20

    def test_subspace_angle_is_largest_principal_angle(self):
        fam = model_diffusion_1d(12, 0.25, 2.0, 2)
        cb = collocate(fam, [1], multi_index_set([ORIGIN]))
        est = estimate_error(cb, "subspace-angle", 20, seed=11)
        rng = np.random.default_rng(11)
        u0 = cb.point_data[()].basis.vectors
        total = 0.0
        for _ in range(20):
            y = rng.uniform(-1.0, 1.0, size=fam.n_terms)
            decomp = solve_gevp(assemble_at(fam, y), fam.mass, k=1)
            truth = canonical_basis(decomp, cb.ref_vectors, [1], fam.mass)
            total += principal_angles(u0, truth.vectors, fam.mass)[-1] ** 2
        assert est.value == pytest.approx(math.sqrt(total / 20.0), rel=1e-8)
        assert est.n_samples == 20

    def test_one_draw_is_the_stream_of_per_sample_draws(self):
        # estimate_error draws its samples as one (n_mc, n_terms) array; the
        # values are those of n_mc successive draws of n_terms each
        rng = np.random.default_rng(5)
        rows = np.stack([rng.uniform(-1.0, 1.0, size=3) for _ in range(40)])
        assert np.array_equal(
            np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, 3)), rows
        )

    def test_rejects_unknown_metric(self):
        fam = self.constant_family()
        cb = collocate(fam, [1], line_set(1))
        with pytest.raises(ConfigError):
            estimate_error(cb, "hausdorff", 5, seed=0)

    def test_isolated_failures_are_recorded(self, monkeypatch):
        fam = model_diffusion_1d(10, 0.2, 2.0, 1)
        cb = collocate(fam, [1], line_set(2))
        real = study.solve_gevp
        calls = {"n": 0}

        def flaky(K, M, k=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise SolverError("synthetic failure")
            return real(K, M, k=k)

        monkeypatch.setattr(study, "solve_gevp", flaky)
        est = study.estimate_error(cb, "vector-l2", 20, seed=0)
        assert est.n_failures == 1
        assert est.n_samples == 19

    def test_too_many_failures_abort(self, monkeypatch):
        fam = model_diffusion_1d(10, 0.2, 2.0, 1)
        cb = collocate(fam, [1], line_set(2))

        def broken(K, M, k=None):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(study, "solve_gevp", broken)
        with pytest.raises(SolverError):
            study.estimate_error(cb, "vector-l2", 10, seed=0)


class TestFitRate:
    def test_recovers_power_law(self):
        card = [2, 4, 8, 16]
        errors = [3.0 * n ** -1.5 for n in card]
        rate, reason = fit_rate(card, errors)
        assert reason is None
        assert abs(rate - 1.5) < 1e-10

    def test_single_budget(self):
        rate, reason = fit_rate([4], [0.1])
        assert rate is None and reason

    def test_nonpositive_errors(self):
        for bad in (0.0, -1e-3, math.nan):
            rate, reason = fit_rate([2, 4], [0.1, bad])
            assert rate is None and reason

    def test_noise_floor(self):
        rate, reason = fit_rate([2, 4], [1e-15, 1e-16])
        assert rate is None and "noise" in reason

    def test_identical_sizes(self):
        rate, reason = fit_rate([4, 4], [0.2, 0.1])
        assert rate is None and reason


class TestCsvWriter:
    def test_pinned_format(self, tmp_path):
        path = tmp_path / "t.csv"
        _write_csv(path, ["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
        content = path.read_bytes().decode("utf-8")
        assert content == "a,b\n1,0.5\n2,0.3333333333333333\n"


def study_config(**overrides):
    doc = {
        "model": "diffusion1d",
        "model_params": {"n_elements": 20, "decay_scale": 0.3, "n_terms": 2},
        "cluster": [1],
        "budgets": [0.3, 0.8],
        "n_mc": 25,
        "seed": 3,
        "weights": {"mode": "tau", "delta": 0.5},
    }
    doc.update(overrides)
    return StudyConfig.from_dict(doc)


class TestConvergenceStudy:
    def test_records_and_outputs(self, tmp_path):
        cfg = study_config()
        result = run_convergence_study(cfg, out_dir=tmp_path)
        assert len(result.records) == 2
        cards = [r.card_A for r in result.records]
        errors = [r.error for r in result.records]
        assert cards[1] > cards[0]
        assert all(e > 0 for e in errors)
        assert errors[1] < errors[0]
        assert result.r_hat is not None and result.r_hat > 0
        for rec in result.records:
            assert rec.card_X <= rec.card_A ** 2

        lines = (tmp_path / "study.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,card_A,card_X,error,seconds"
        assert len(lines) == 3
        for line, rec in zip(lines[1:], result.records):
            cells = line.split(",")
            assert float(cells[0]) == rec.budget
            assert int(cells[1]) == rec.card_A
            assert int(cells[2]) == rec.card_X
            assert float(cells[3]) == rec.error

        summary = json.loads((tmp_path / "study.json").read_text(encoding="utf-8"))
        assert summary["config"] == cfg.to_dict()
        assert summary["r_hat"] == result.r_hat
        assert len(summary["diagnostics"]) == 2
        for diag in summary["diagnostics"]:
            assert diag["mc_failures"] == 0
            assert diag["min_gram_sigma_min"] > 0
            assert diag["card_X_formula"] >= 1

    def test_deterministic_up_to_timing(self, tmp_path):
        cfg = study_config()
        run_convergence_study(cfg, out_dir=tmp_path / "a")
        run_convergence_study(cfg, out_dir=tmp_path / "b")

        def masked(path):
            lines = path.read_text(encoding="utf-8").splitlines()
            return [",".join(l.split(",")[:-1]) for l in lines]

        assert masked(tmp_path / "a" / "study.csv") == masked(tmp_path / "b" / "study.csv")

    def test_csv_matches_a_study_without_reuse(self, tmp_path):
        # every budget collocated and estimated from scratch, with nothing
        # carried over, gives the same rows bit for bit
        cfg = study_config(budgets=[0.3, 0.8, 1.4], metric="subspace-angle")
        run_convergence_study(cfg, out_dir=tmp_path)
        lines = (tmp_path / "study.csv").read_text(encoding="utf-8").splitlines()[1:]
        fam = build_family(cfg)
        rho = resolve_weights(cfg, fam)
        for line, L in zip(lines, cfg.budgets):
            A = anisotropic_set(rho, L)
            cb = collocate(fam, cfg.cluster, A)
            est = estimate_error(cb, cfg.metric, cfg.n_mc, cfg.seed)
            row = [repr(float(L)), str(len(A)), str(len(cb.point_data)), repr(est.value)]
            assert line.split(",")[:-1] == row

    def test_diagnostics_count_made_and_reused_solves(self, tmp_path):
        cfg = study_config(budgets=[0.3, 0.8, 1.4])
        result = run_convergence_study(cfg, out_dir=tmp_path)
        summary = json.loads((tmp_path / "study.json").read_text(encoding="utf-8"))
        assert summary["diagnostics"] == json.loads(json.dumps(list(result.diagnostics)))
        previous = 0
        for rec, diag in zip(result.records, result.diagnostics):
            # the origin solve, one per grid point and one per sample
            assert diag["solves"] + diag["reused_solves"] == 1 + rec.card_X + cfg.n_mc
            carried = 0 if previous == 0 else 1 + previous + cfg.n_mc
            assert diag["reused_solves"] == carried
            previous = rec.card_X

    def test_no_output_dir_writes_nothing(self):
        cfg = study_config(budgets=[0.3], n_mc=5)
        result = run_convergence_study(cfg)
        assert result.csv_path is None
        assert result.summary_path is None
        assert len(result.records) == 1

    def test_model_stage_failure_is_tagged(self):
        cfg = study_config(model="synthetic-file", model_params={})
        with pytest.raises(StageError) as excinfo:
            run_convergence_study(cfg)
        assert excinfo.value.stage == "model"
        assert excinfo.value.budget_index is None

    def test_weights_stage_failure_is_tagged(self):
        cfg = study_config(weights={"mode": "tau"})
        with pytest.raises(StageError) as excinfo:
            run_convergence_study(cfg)
        assert excinfo.value.stage == "weights"

    def test_estimate_stage_failure_is_tagged(self, monkeypatch):
        cfg = study_config(budgets=[0.3], n_mc=2)

        def boom(*args, **kwargs):
            raise ValueError("synthetic")

        monkeypatch.setattr(study, "estimate_error", boom)
        with pytest.raises(StageError) as excinfo:
            run_convergence_study(cfg)
        assert excinfo.value.stage == "estimate"
        assert excinfo.value.budget_index == 0

    def test_point_solve_failure_names_stage_budget_and_point(self, monkeypatch):
        from eigcolloc import collocation

        cfg = study_config(budgets=[0.3], n_mc=2)
        real = collocation.solve_gevp

        def fails_off_origin(K, M, k=None):
            if M is None:
                raise SolverError("synthetic failure")
            return real(K, M, k=k)

        monkeypatch.setattr(collocation, "solve_gevp", fails_off_origin)
        with pytest.raises(StageError) as excinfo:
            run_convergence_study(cfg)
        assert excinfo.value.stage == "collocate"
        assert excinfo.value.budget_index == 0
        assert "synthetic failure at point (" in str(excinfo.value)


class TestCrossingDemo:
    def config(self):
        return StudyConfig.from_dict(
            {
                "model": "builtin-crossing",
                "cluster": [2, 3],
                "budgets": [1.0, 3.0],
                "metric": "subspace-angle",
                "n_mc": 40,
                "seed": 1,
                "weights": {"mode": "explicit", "rho": [math.e]},
            }
        )

    def test_projected_beats_raw(self, tmp_path):
        result = run_crossing_demo(self.config(), out_dir=tmp_path)
        assert len(result.records) == 2
        last = result.records[-1]
        assert last.error_canonical < result.records[0].error_canonical
        assert last.error_raw > last.error_canonical
        assert result.final_ratio is not None and result.final_ratio > 1.0

        lines = (tmp_path / "crossing.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,card_A,card_X,error_canonical,error_raw,seconds"
        assert len(lines) == 3
        summary = json.loads((tmp_path / "crossing.json").read_text(encoding="utf-8"))
        assert summary["final_error_ratio_raw_over_canonical"] == result.final_ratio

    def test_error_columns_equal_single_target_studies(self):
        # one sweep serves both entry points: each demo column is, bit for
        # bit, the error column of a study of that target alone
        cfg = self.config()
        demo = run_crossing_demo(cfg)
        for target in ("canonical", "raw"):
            single = run_convergence_study(dataclasses.replace(cfg, target=target))
            assert [getattr(r, f"error_{target}") for r in demo.records] == [
                r.error for r in single.records
            ]
            assert [r.card_X for r in demo.records] == [r.card_X for r in single.records]

    @pytest.mark.parametrize("failing", ["canonical", "raw"])
    def test_estimate_failure_names_the_target(self, monkeypatch, failing):
        real = study.estimate_error

        def fails_for_target(cb, *args, **kwargs):
            if cb.target == failing:
                raise ValueError("synthetic")
            return real(cb, *args, **kwargs)

        monkeypatch.setattr(study, "estimate_error", fails_for_target)
        with pytest.raises(StageError) as excinfo:
            run_crossing_demo(self.config())
        assert excinfo.value.stage == f"estimate-{failing}"
        assert excinfo.value.budget_index == 0

    def test_no_crossing_keeps_columns_comparable(self, tmp_path):
        # gapped spectrum: sorted eigenvectors stay smooth, so raw interpolation
        # works about as well as the projected basis
        B0 = np.diag([1.0, 2.0, 3.0, 6.0])
        B1 = np.zeros((4, 4))
        B1[1, 2] = B1[2, 1] = 0.2
        B1[0, 1] = B1[1, 0] = 0.15
        B1[2, 3] = B1[3, 2] = 0.15
        fam = synthetic_family(B0, [B1], np.eye(4), DecaySequence((0.2,)))
        path = tmp_path / "fam.json"
        save_family(fam, path)
        cfg = StudyConfig.from_dict(
            {
                "model": "synthetic-file",
                "model_params": {"family_file": str(path)},
                "cluster": [2, 3],
                "budgets": [1.0, 2.0, 3.0],
                "metric": "subspace-angle",
                "n_mc": 30,
                "seed": 2,
                "weights": {"mode": "explicit", "rho": [math.e]},
            }
        )
        result = run_crossing_demo(cfg)
        last = result.records[-1]
        assert last.error_canonical < 1e-3
        assert last.error_raw < 1e-3
        assert result.final_ratio < 10.0
