"""One round of a benchmark workload, run in a fresh process by run.py.

A round sets up (imports, family, weights, index set, grid), runs the timed
task, then checks the outputs outside the timed region.  Set-up ends at the
first eigensolve and is timed from the parent's launch of this process
(``--t0``, a ``time.monotonic`` reading: CLOCK_MONOTONIC, shared by all
processes on Linux).  The round prints one JSON object as the last line of
its standard output.

    python3 perfbench/workloads.py --workload sparse-hd --seed 1 \\
        --work DIR --t0 T [--setup-only] [--trace] [--small]
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import checks
from instrument import Recorder, SetupDone, install
from run import THREAD_PREFIXES

# Sizes and why each workload exists are in README.md.  ``angle_tol`` bounds
# the largest principal angle between the interpolated and the reference
# cluster span at off-grid points; README.md states how it was chosen.
SPECS = {
    "study-1d": {
        "model": "diffusion1d",
        "params": {"n_elements": 200, "decay_scale": 0.3, "decay_rate": 3.0,
                   "n_terms": 6, "p_exponent": 0.5},
        "cluster": [1],
        "budgets": [0.5, 1.25],
        "n_mc": 70,
        # the query batch is the Monte Carlo sample set of estimate_error
        "batch": "study.estimate_error",
        "check_nodes": 4,
        "check_off_grid": 4,
        "angle_tol": 1e-3,
    },
    "build-2d": {
        "model": "diffusion2d",
        "params": {"n_per_side": 21, "decay_scale": 0.1, "decay_rate": 2.0,
                   "n_terms": 8, "p_exponent": 0.5},
        "cluster": [2, 3],
        "budget": 0.6,
        "queries": 2000,
        "batch": "collocation.evaluate",
        "check_nodes": 2,
        "check_off_grid": 2,
        "reload": True,
        "angle_tol": 1e-2,
    },
    "sparse-hd": {
        "model": "diffusion1d",
        "params": {"n_elements": 40, "decay_scale": 0.3, "decay_rate": 3.0,
                   "n_terms": 16, "p_exponent": 0.5},
        "cluster": [1],
        "budget": 2.0,
        "queries": 50,
        "batch": "collocation.evaluate",
        "check_nodes": 4,
        "check_off_grid": 4,
        "angle_tol": 1e-3,
    },
}

# Reduced sizes for the benchmark's own tests.
SMALL = {
    "study-1d": {"params": {**SPECS["study-1d"]["params"], "n_elements": 40},
                 "budgets": [0.5, 1.0], "n_mc": 10},
    "build-2d": {"params": {**SPECS["build-2d"]["params"], "n_per_side": 8},
                 "queries": 10},
    "sparse-hd": {"params": {**SPECS["sparse-hd"]["params"], "n_terms": 8},
                  "budget": 1.0, "queries": 10},
}

def origin_values(spec, count: int) -> list[float]:
    p = spec["params"]
    if spec["model"] == "diffusion1d":
        return checks.laplace_eigenvalues_1d(p["n_elements"], count)
    return checks.tensor_eigenvalues_2d(p["n_per_side"], count)


def isolation_delta(ec, spec) -> float:
    """Certified isolation level from closed-form origin eigenvalues.

    The relative gap is taken as ``eigcolloc check`` takes it; the acceptance
    rate study derives its tau-weight delta the same way.
    """
    J = spec["cluster"]
    lo, hi = min(J), max(J)
    vals = origin_values(spec, hi + 1)
    gap = vals[hi] - vals[hi - 1]
    if lo >= 2:
        gap = min(gap, vals[lo - 1] - vals[lo - 2])
    p = spec["params"]
    kappa_sum = sum(
        p["decay_scale"] * m ** -p["decay_rate"] for m in range(1, p["n_terms"] + 1)
    )
    return ec.isolation_parameter(gap / vals[hi - 1], kappa_sum)


def build_family(ec, spec):
    p = spec["params"]
    if spec["model"] == "diffusion1d":
        return ec.model_diffusion_1d(**p)
    return ec.model_diffusion_2d(**p)


# ---------------------------------------------------------------------------
# Tasks: set-up runs until the first eigensolve, then the timed part follows.
# Each returns what the checks need.
# ---------------------------------------------------------------------------

def task_study(ec, spec, seed, work, rec):
    config = {
        "model": spec["model"],
        "model_params": spec["params"],
        "cluster": spec["cluster"],
        "budgets": spec["budgets"],
        "n_mc": spec["n_mc"],
        "seed": seed,
        "weights": {"mode": "tau", "delta": isolation_delta(ec, spec)},
    }
    path = os.path.join(work, "study-config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = os.path.join(work, "study")
    rc = ec.cli.main(["study", "--config", path, "--out", out])
    return {"ops": 1, "failed": int(rc != 0), "cb": rec.last_collocated, "out": out}


def task_collocate(ec, spec, seed, work, rec):
    family = build_family(ec, spec)
    rho = ec.compute_tau_weights(family.kappa, isolation_delta(ec, spec), 0.5)
    A = ec.anisotropic_set(rho, spec["budget"])
    X = ec.grid_points(A)
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-1.0, 1.0, size=(spec["queries"], family.n_terms))
    cb = ec.collocate(family, spec["cluster"], A)
    outputs = [ec.evaluate(cb, y) for y in Y]
    result = {"ops": 1 + len(Y), "failed": 0, "cb": cb, "X": X, "Y": Y, "outputs": outputs}
    if spec.get("reload"):
        # the batch again on the saved-and-reloaded basis; both must agree bit for bit
        path = os.path.join(work, "basis.json")
        ec.save_collocated(cb, path)
        reloaded = ec.load_collocated(path)
        result.update(basis_path=path, reloaded=[ec.evaluate(reloaded, y) for y in Y])
        result["ops"] += 2 + len(Y)
    return result


TASKS = {"study-1d": task_study, "build-2d": task_collocate, "sparse-hd": task_collocate}


# ---------------------------------------------------------------------------
# Checks, outside the timed region
# ---------------------------------------------------------------------------

def run_checks(ec, name, spec, seed, result) -> list:
    cb = result["cb"]
    if cb is None:
        return [checks.Check("collocated", False, "no collocation ran")]
    family, J = cb.family, spec["cluster"]
    expected = [origin_values(spec, max(J))[j - 1] for j in J]
    found = [checks.check_origin_values("origin-values", cb.ref_values, expected),
             checks.check_reference_span("reference-span", family, J, cb.ref_vectors)]
    rng = np.random.default_rng([seed, 1])
    points = result.get("X") or sorted(cb.point_data)
    for i in rng.choice(len(points), size=min(spec["check_nodes"], len(points)), replace=False):
        y = points[int(i)]
        found.append(checks.check_node(
            f"node-{i}", family, J, cb.ref_vectors, y, cb.point_data[y].basis.vectors))
        # Gauss-Legendre levels are not nested, so the combination interpolant
        # does not reproduce nodal data; at a node it is held to the angle bound
        found.append(checks.check_off_grid(
            f"node-eval-{i}", family, J, y, ec.evaluate(cb, y), spec["angle_tol"]))
    if name == "study-1d":
        off = rng.uniform(-1.0, 1.0, size=(spec["check_off_grid"], family.n_terms))
        pairs = [(y, ec.evaluate(cb, y)) for y in off]
        found.extend(study_output_checks(result["out"]))
    else:
        pairs = list(zip(result["Y"], result["outputs"]))[: spec["check_off_grid"]]
    for k, (y, value) in enumerate(pairs):
        found.append(checks.check_off_grid(
            f"off-grid-{k}", family, J, y, value, spec["angle_tol"]))
    if "reloaded" in result:
        found.append(checks.check_bit_identical(
            "reload", np.asarray(result["outputs"]), np.asarray(result["reloaded"])))
    return found


def study_output_checks(out_dir) -> list:
    try:
        with open(os.path.join(out_dir, "study.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(os.path.join(out_dir, "study.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [checks.Check("study-outputs", False, str(exc))]
    if lines[0] != "L,card_A,card_X,error,seconds":
        return [checks.Check("study-outputs", False, f"CSV header {lines[0]!r}")]
    rows = [line.split(",") for line in lines[1:]]
    card_A = [int(r[1]) for r in rows]
    errors = [float(r[3]) for r in rows]
    return checks.check_error_sequence(card_A, errors, summary.get("r_hat"))


# ---------------------------------------------------------------------------

def manifest(ec) -> dict:
    """Environment of this round: versions, BLAS and thread settings."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps", encoding="utf-8") as fh:
        loaded = sorted({
            os.path.basename(line.split()[-1]) for line in fh
            if "blas" in line.lower() and ".so" in line
        })
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eigcolloc": ec.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_loaded": loaded,
        "thread_env": {k: v for k, v in os.environ.items() if k.startswith(THREAD_PREFIXES)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)
    spec = {**SPECS[args.workload], **(SMALL[args.workload] if args.small else {})}

    rec = Recorder(traced=args.trace, stop_at_first_solve=args.setup_only)
    ec = install(rec)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(ec.__file__).startswith(src + os.sep):
        print(f"eigcolloc imported from {ec.__file__}, not {src}", file=sys.stderr)
        return 2
    try:
        result = TASKS[args.workload](ec, spec, args.seed, args.work, rec)
    except SetupDone:
        print(json.dumps({"setup_s": rec.first_solve - args.t0}))
        return 0
    end = time.monotonic()
    rec.active = False
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    found = run_checks(ec, args.workload, spec, args.seed, result)
    basis_path = result.get("basis_path")
    if basis_path is None and result["cb"] is not None:
        basis_path = os.path.join(args.work, "basis.json")
        ec.save_collocated(result["cb"], basis_path)
    failed_checks = [c for c in found if not c.ok]
    for c in failed_checks:
        print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    doc = {
        "setup_s": rec.first_solve - args.t0,
        "wall_s": end - rec.first_solve,
        "build_s": rec.seconds("collocation.collocate"),
        "evals": rec.batch_count(spec["batch"]),
        "eval_s": rec.seconds(spec["batch"]),
        "basis_bytes": os.path.getsize(basis_path) if basis_path else 0,
        "peak_rss_bytes": peak_kb * 1024,
        "attempted": result["ops"] + len(found),
        "failed": result["failed"] + len(failed_checks),
        "checks": [c.__dict__ for c in found],
        "manifest": manifest(ec),
    }
    if args.trace:
        doc["layers"] = rec.layer_metrics(rec.first_solve, end)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
