"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import eigcolloc as ec  # noqa: E402
from eigcolloc.collocation import PointSolution  # noqa: E402
from eigcolloc.eigenspace import EigenspaceBasis  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _table(kind):
    return {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[kind]}


def test_metric_tables_match_benchmark_json():
    assert _table("end_to_end") == run.END_TO_END
    assert _table("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.SPECS)


def _bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_emitted_metrics_match_benchmark_json(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    emitted = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert emitted == {name: unit for name, (unit, _) in _table(kind).items()}
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
    work_root = os.path.join(ROOT, ".perfbench_work")
    if os.path.isdir(work_root):
        assert not [d for d in os.listdir(work_root) if d.startswith(workload)]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sparse-hd", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ---------------------------------------------------------------------------
# Each check fails on a corrupted basis or a perturbed error sequence
# ---------------------------------------------------------------------------

SPEC = {**workloads.SPECS["sparse-hd"], **workloads.SMALL["sparse-hd"]}


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("work"))
    return workloads.task_collocate(ec, SPEC, 5, work, rec=None)


def _corrupt(cb, transform):
    data = {
        pt: PointSolution(
            basis=EigenspaceBasis(transform(sol.basis.vectors), sol.basis.gram_sigma_min),
            cluster_values=sol.cluster_values,
        )
        for pt, sol in cb.point_data.items()
    }
    return dataclasses.replace(cb, point_data=data)


def test_checks_pass_on_program_output(result):
    found = workloads.run_checks(ec, "sparse-hd", SPEC, 5, result)
    assert found and all(c.ok for c in found), [c for c in found if not c.ok]


def test_checks_fail_on_corrupted_basis(result):
    bad = _corrupt(result["cb"], lambda V: np.roll(V, 1, axis=0))
    found = workloads.run_checks(ec, "sparse-hd", SPEC, 5, {**result, "cb": bad})
    failed = {c.name.rsplit("-", 1)[0] for c in found if not c.ok}
    assert {"node", "node-eval"} <= failed


def test_node_check_detects_small_corruption(result):
    cb = result["cb"]
    y = sorted(cb.point_data)[1]
    V = cb.point_data[y].basis.vectors
    J = SPEC["cluster"]
    assert checks.check_node("n", cb.family, J, cb.ref_vectors, y, V).ok
    assert not checks.check_node("n", cb.family, J, cb.ref_vectors, y, V * (1 + 1e-6)).ok


def test_off_grid_check_detects_corrupted_basis(result):
    cb = result["cb"]
    y = result["Y"][0]
    J = SPEC["cluster"]
    assert checks.check_off_grid("o", cb.family, J, y, ec.evaluate(cb, y), SPEC["angle_tol"]).ok
    bad = _corrupt(cb, lambda V: V + 0.05 * np.roll(V, 3, axis=0))
    assert not checks.check_off_grid(
        "o", cb.family, J, y, ec.evaluate(bad, y), SPEC["angle_tol"]).ok


def test_origin_checks_detect_perturbed_reference(result):
    cb = result["cb"]
    J = SPEC["cluster"]
    exact = [workloads.origin_values(SPEC, max(J))[j - 1] for j in J]
    assert checks.check_origin_values("v", cb.ref_values, exact).ok
    assert not checks.check_origin_values("v", cb.ref_values * (1 + 1e-8), exact).ok
    assert checks.check_reference_span("s", cb.family, J, cb.ref_vectors).ok
    rolled = np.roll(cb.ref_vectors, 2, axis=0)
    assert not checks.check_reference_span("s", cb.family, J, rolled).ok


def test_reload_check_detects_one_ulp(result):
    value = result["outputs"][0]
    assert checks.check_bit_identical("r", value, value.copy()).ok
    bumped = value.copy()
    bumped[0, 0] = np.nextafter(bumped[0, 0], np.inf)
    assert not checks.check_bit_identical("r", value, bumped).ok


def test_error_sequence_checks():
    card_A = [5, 19, 53]
    errors = [2.0e-2, 4.2e-3, 6.1e-4]
    rate = checks.fitted_rate(card_A, errors)
    assert all(c.ok for c in checks.check_error_sequence(card_A, errors, rate))

    def failing(errs, reported):
        return {c.name for c in checks.check_error_sequence(card_A, errs, reported) if not c.ok}

    assert failing([2.0e-2, 6.1e-4, 4.2e-3], rate) == {"errors-decrease", "rate-reported"}
    slow = [2.0e-2, 1.6e-2, 1.3e-2]
    assert failing(slow, checks.fitted_rate(card_A, slow)) == {"rate"}
    assert failing(errors, rate * (1 + 1e-6)) == {"rate-reported"}
    assert failing([2.0e-2, 0.0, 0.0], None) == {"errors-decrease", "rate", "rate-reported"}
