import json

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
        assert "basis written to" in capsys.readouterr().out
        cb = load_collocated(out / "basis.json")
        fam = model_diffusion_1d(20, 0.3, 2.0, 2)
        assert family_hash(cb.family) == family_hash(fam)
        assert len(cb.point_data) >= 1

    def test_budget_flag_overrides_schedule(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["collocate", "--config", cfg, "--out", str(out), "--budget", "0.0"]
        )
        assert code == 0
        assert "#A=1" in capsys.readouterr().out
        cb = load_collocated(out / "basis.json")
        assert set(cb.point_data) == {()}


class TestStudy:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "fitted rate" in text
        assert (out / "study.csv").exists()
        assert (out / "study.json").exists()
        lines = (out / "study.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "L,card_A,card_X,error,seconds"
        assert len(lines) == 3

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
