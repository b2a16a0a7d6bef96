import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from eigcolloc import ConfigError, StudyConfig, load_collocated, model_diffusion_1d
from eigcolloc.cli import build_parser, main
from eigcolloc.families import family_hash


def write_config(tmp_path, name="cfg.json", **overrides):
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
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_under_both_thread_settings(tmp_path, *args) -> list:
    """The output directories of ``eigcolloc *args --out DIR``, run in a fresh
    process, which reads the thread variables at start-up, with
    OPENBLAS_NUM_THREADS=1 and with the thread variables unset."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from eigcolloc.cli import main; sys.exit(main(sys.argv[1:]))"
    outs = []
    for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        outs.append(tmp_path / name)
        subprocess.run(
            [sys.executable, "-c", script, *args, "--out", str(outs[-1])],
            env={**env, **threads}, check=True, capture_output=True,
        )
    return outs


N199_PARAMS = {"n_elements": 200, "decay_scale": 0.3, "decay_rate": 3.0, "n_terms": 6,
               "p_exponent": 0.5}


def study_columns(out) -> list:
    """The columns of ``study.csv`` in ``out`` up to the error, row by row."""
    lines = (out / "study.csv").read_text(encoding="utf-8").splitlines()
    return [line.split(",")[:4] for line in lines]


class TestParser:
    def test_prog_name(self):
        assert build_parser().prog == "eigcolloc"

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for word in ("check", "collocate", "study", "crossing-demo"):
            assert word in out

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestCheck:
    def test_isolated_cluster_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "decay bounds: ok" in text
        assert "certified isolation delta" in text
        doc = json.loads((out / "check.json").read_text(encoding="utf-8"))
        assert doc["decay"]["ok"] is True
        assert doc["delta0"] > 0
        assert doc["delta_certified"] > 0
        assert doc["isolation"]["isolated"] is True

    def test_unreachable_delta_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, delta_requested=10.0)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 1
        assert "NOT isolated" in capsys.readouterr().out

    def test_whole_spectrum_cluster_has_no_certificate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model_params={"n_elements": 4, "decay_scale": 0.2, "n_terms": 1},
            cluster=[1, 2, 3],
            n_mc=20,
        )
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "no certified isolation" in text
        doc = json.loads((out / "check.json").read_text(encoding="utf-8"))
        assert doc["delta0"] is None
        assert doc["delta_certified"] is None

    def test_cluster_beyond_dimension_is_reported(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            model="builtin-crossing",
            model_params={},
            cluster=[5],
            weights={"mode": "explicit", "rho": [2.0]},
        )
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: cluster index 5 exceeds dimension 4" in err
        assert not (out / "check.json").exists()

    def test_seed_override_lands_in_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        doc = json.loads((out / "check.json").read_text(encoding="utf-8"))
        assert doc["isolation"]["seed"] == 5


class TestCollocate:
    def test_writes_loadable_basis(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["collocate", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "basis written to" in printed
        cb = load_collocated(out / "basis.json")
        fam = model_diffusion_1d(20, 0.3, 2.0, 2)
        assert family_hash(cb.family) == family_hash(fam)
        # the file holds the coefficient tables: the grid size is a diagnostic
        assert cb.point_data == {}
        assert f"collocated {cb.diagnostics['n_points']} points (#A={len(cb.A)}," in printed
        assert cb.diagnostics["n_points"] >= len(cb.A) >= 1

    def test_budget_flag_overrides_schedule(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["collocate", "--config", cfg, "--out", str(out), "--budget", "0.0"]
        )
        assert code == 0
        assert "#A=1" in capsys.readouterr().out
        cb = load_collocated(out / "basis.json")
        assert cb.A.to_json_list() == [{}] and cb.diagnostics["n_points"] == 1
        assert cb.point_data == {}

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs to run on",
    )
    def test_basis_does_not_depend_on_the_cpu_count(self, tmp_path):
        # a chunk's point solves run on one thread per CPU, each on one
        # OpenBLAS thread: a fresh process pinned to one CPU writes the bytes
        # of one that may use them all
        cfg = write_config(tmp_path, model_params=N199_PARAMS, budgets=[0.8], n_mc=5,
                           seed=0)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = (
            "import sys; from eigcolloc.cli import main; from eigcolloc import eigensolver; "
            "print(eigensolver._nproc(), file=sys.stderr); "
            "sys.exit(main(sys.argv[1:]))"
        )
        first = min(os.sched_getaffinity(0))
        workers, bases = [], []
        for name, pin in (("one", lambda: os.sched_setaffinity(0, {first})), ("all", None)):
            done = subprocess.run(
                [sys.executable, "-c", script, "collocate", "--config", cfg,
                 "--out", str(tmp_path / name)],
                env=env, check=True, capture_output=True, text=True, preexec_fn=pin,
            )
            workers.append(int(done.stderr.split()[0]))
            bases.append((tmp_path / name / "basis.json").read_bytes())
        assert workers == [1, len(os.sched_getaffinity(0))]
        assert bases[0] == bases[1]


class TestStudy:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fitted rate" in text
        diagnostics = json.loads((out / "study.json").read_text(encoding="utf-8"))["diagnostics"]
        for diag in diagnostics:
            assert f"solves: grid={diag['grid_solves']} mc={diag['mc_solves']} " in text
        assert (out / "study.csv").exists()
        assert (out / "study.json").exists()
        lines = (out / "study.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,card_A,card_X,error,seconds"
        assert len(lines) == 3

    def test_errors_do_not_depend_on_the_thread_variables(self, tmp_path):
        # the solves and the products of the interpolant run on one OpenBLAS
        # thread whatever the environment says, so the error column is the
        # same with the variable set to 1 and unset
        cfg = write_config(tmp_path, model_params=N199_PARAMS, budgets=[0.5, 1.25],
                           n_mc=70, seed=7)
        columns = [study_columns(out) for out in run_under_both_thread_settings(
            tmp_path, "study", "--config", cfg)]
        assert len(columns[0]) == 3
        assert columns[0] == columns[1]

    @pytest.mark.parametrize("overrides", [
        # 1D, n = 459, three cluster vectors: the banded route
        {"model_params": {"n_elements": 460, "decay_scale": 0.3, "decay_rate": 3.0,
                          "n_terms": 4, "p_exponent": 0.5},
         "cluster": [1, 2, 3], "budgets": [0.3], "n_mc": 30, "seed": 0,
         "weights": {"mode": "tau", "delta": 0.2}},
        # 2D, n = 529: the dense route
        {"model": "diffusion2d",
         "model_params": {"n_per_side": 24, "decay_scale": 0.1, "decay_rate": 2.0,
                          "n_terms": 4, "p_exponent": 0.5},
         "cluster": [1], "budgets": [0.5], "n_mc": 5, "seed": 0,
         "weights": {"mode": "tau", "delta": 0.5}},
    ], ids=["banded-n459", "dense-n529"])
    def test_projections_and_metric_share_the_thread_setting(self, tmp_path, overrides):
        # on either route and at any size the projection of each chunk of
        # grid nodes and the truths and metric of each chunk of samples run
        # on one OpenBLAS thread too, so the basis file and the error are the
        # same with the variable set to 1 and unset
        cfg = write_config(tmp_path, **overrides)
        bases = [(out / "basis.json").read_bytes() for out in run_under_both_thread_settings(
            tmp_path / "collocate", "collocate", "--config", cfg)]
        assert bases[0] == bases[1]
        columns = [study_columns(out) for out in run_under_both_thread_settings(
            tmp_path / "study", "study", "--config", cfg)]
        assert len(columns[0]) == 1 + len(overrides["budgets"])
        assert columns[0] == columns[1]

    def test_requires_config(self, capsys):
        assert main(["study"]) == 1
        assert "error:" in capsys.readouterr().err


class TestCrossingDemo:
    def test_default_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["crossing-demo", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "final raw/canonical error ratio" in text
        assert (out / "crossing.csv").exists()
        doc = json.loads((out / "crossing.json").read_text(encoding="utf-8"))
        assert doc["final_error_ratio_raw_over_canonical"] > 10.0
        # last two budgets of the default schedule show the raw stagnation
        raws = [rec["error_raw"] for rec in doc["records"]]
        assert raws[-1] >= raws[-2]
        canon = [rec["error_canonical"] for rec in doc["records"]]
        assert all(b < a for a, b in zip(canon, canon[1:]))


class TestErrorPaths:
    def test_nonexistent_config(self, capsys):
        assert main(["study", "--config", "/nonexistent/cfg.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mystery=1)
        assert main(["study", "--config", cfg]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_threads_config_key_is_unknown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, threads=1)
        assert main(["collocate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "error: unknown config keys: ['threads']" in capsys.readouterr().err

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["collocate", "--config", cfg, "--out", str(tmp_path), "--threads", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "collocate", "study", "crossing-demo"])
    @pytest.mark.parametrize("target", ["sorted", ["x"]])
    def test_unknown_target_is_reported(self, tmp_path, capsys, command, target):
        # before the family is built, by every command that reads a config
        cfg = write_config(tmp_path, target=target)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"error: unknown target {target!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "weights,message",
        [
            ({"mode": "tau", "delta": 0.5, "rho": [3.0]}, "for mode 'tau': ['rho']"),
            (
                {"mode": "explicit", "rho": [2.0], "delta": 0.5, "epsilon": 0.9},
                "for mode 'explicit': ['delta', 'epsilon']",
            ),
        ],
        ids=["tau-rho", "explicit-delta-epsilon"],
    )
    def test_weights_key_its_mode_does_not_read_is_reported(
        self, tmp_path, capsys, weights, message
    ):
        cfg = write_config(tmp_path, weights=weights)
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"error: unknown weights keys {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_is_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["check", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"]) == 1
        assert "error: seed must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("weights", [1]),
        ("cluster", 1),
        ("budgets", ["x"]),
        ("n_mc", "many"),
        ("seed", -1),
        ("model_params", {"n_element": 400}),
        ("model_params", {"n_elements": "x"}),
        ("model_params", {"decay_scale": None}),
        ("threads", 1),
        # numbers that would truncate, booleans and misspelt weights keys
        ("n_mc", 2.5),
        ("seed", 1.9),
        ("cluster", [1.7]),
        ("n_mc", True),
        ("cluster", [True]),
        ("model_params", {"n_elements": 12.7}),
        ("weights", {"mode": "tau", "epsilom": 0.3}),
        # json reads NaN and Infinity; a budget is finite and at least 0
        ("budgets", [float("nan")]),
        ("budgets", [float("inf")]),
        ("budgets", [-1.0, 0.5]),
        # a list is a JSON list: a string is not split into its characters
        ("budgets", "05"),
        ("cluster", "12"),
        ("weights", {"mode": "explicit", "rho": "23"}),
    ],
)
class TestMalformedConfigValue:
    def test_from_dict_raises_config_error(self, key, value):
        doc = {"model": "diffusion1d", "cluster": [1], "budgets": [1.0], key: value}
        with pytest.raises(ConfigError):
            StudyConfig.from_dict(doc)

    def test_cli_reports_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "collocate"])
def test_model_param_of_the_wrong_type_is_reported(tmp_path, capsys, command):
    cfg = write_config(tmp_path, model_params={"n_elements": "x", "n_terms": 2})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: malformed config value: model_params.n_elements = 'x' is not int" in err
    assert "Traceback" not in err


def test_model_params_take_the_types_of_their_defaults():
    doc = {"model": "diffusion1d", "cluster": [1], "budgets": [1.0],
           "model_params": {"n_elements": "12", "decay_rate": 3}}
    params = StudyConfig.from_dict(doc).model_params
    assert params == {"n_elements": 12, "decay_rate": 3.0}
    assert type(params["n_elements"]) is int and type(params["decay_rate"]) is float


def test_config_that_is_not_json_is_reported(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{\"model\": ", encoding="utf-8")
    assert main(["study", "--config", str(path)]) == 1
    assert "error: config is not valid JSON" in capsys.readouterr().err
