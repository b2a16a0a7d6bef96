#!/usr/bin/env python3
"""Benchmark of the eigcolloc collocation pipeline; README.md describes it.

    python3 perfbench/run.py --workload study-1d|build-2d|sparse-hd \\
        --seed N --seconds S --trace 0|1

Every round runs in a fresh process (perfbench/workloads.py) launched with
the BLAS and OpenMP thread variables removed from its environment, so the
program runs with its defaults.  An untraced run first times set-up alone in
a few processes, then repeats whole rounds while the next one is expected
to end within ``--seconds``, and reports medians over rounds.  A traced run alternates untraced and
traced rounds and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study-1d", "build-2d", "sparse-hd")
THREAD_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO_", "NUMEXPR_", "VECLIB_")
# Set-up-only processes per untraced run, after one warm-up process whose
# figure is dropped (it fills the bytecode and file caches).
SETUP_REPEATS = 3
# Every process of a run must end before this many seconds have passed.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "evals_per_s": ("1/s", "higher"),
    "basis_mb": ("MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _layer_table() -> dict:
    table = {}
    for name in (
        "families.assemble_at", "families.family_hash", "eigensolver.solve_gevp",
        "eigenspace.canonical_basis", "sparse_grid.anisotropic_set",
        "sparse_grid.grid_points", "sparse_grid.combination_terms",
        "sparse_grid.combination_interpolate", "collocation.collocate",
        "collocation.evaluate", "collocation.save_collocated",
        "collocation.load_collocated", "study.run_convergence_study",
        "study.estimate_error",
    ):
        table[name + ".calls"] = ("count", "lower")
        table[name + ".s"] = ("s", "lower")
    table.update({
        "families.model_diffusion.s": ("s", "lower"),
        "eigensolver.solve_gevp.p50_ms": ("ms", "lower"),
        "eigensolver.solve_gevp.distinct": ("count", "lower"),
        "eigensolver.solve_gevp.distinct_ratio": ("ratio", "higher"),
        "sparse_grid.grid_points.points": ("count", "lower"),
        "sparse_grid.combination_interpolate.products": ("count", "lower"),
        "collocation.collocate.points": ("count", "lower"),
        "collocation.save_collocated.bytes": ("bytes", "lower"),
        "study.estimate_error.samples": ("count", "higher"),
        "study.estimate_error.failures": ("count", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.untraced_wall_s": ("s", "lower"),
        "trace.overhead_pct": ("%", "lower"),
        "trace.accounted_pct": ("%", "higher"),
    })
    return table


PER_LAYER = _layer_table()


class RoundError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, work, small, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.small = small
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(THREAD_PREFIXES)}
        self.removed = {k: v for k, v in os.environ.items() if k.startswith(THREAD_PREFIXES)}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # bytecode caching is what installed packages get
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def round(self, setup_only=False, trace=False) -> dict:
        """Run one fresh process; return its JSON result."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--work", self.work]
        flags = [("--setup-only", setup_only), ("--trace", trace), ("--small", self.small)]
        cmd += [flag for flag, on in flags if on]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RoundError("run deadline passed")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)], env=self.env, cwd=ROOT, capture_output=True,
                text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise RoundError(f"round exceeded the run deadline: {exc}") from None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RoundError(f"round exited with code {proc.returncode}")
        return json.loads(lines[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def repeat(step, seconds: float) -> list:
    """Run whole steps while the next one, at the mean step time, fits in seconds."""
    results = []
    start = time.monotonic()
    while True:
        results.append(step())
        elapsed = time.monotonic() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list]:
    runner.round(setup_only=True)
    setups = [runner.round(setup_only=True)["setup_s"] for _ in range(SETUP_REPEATS)]
    rounds = repeat(runner.round, seconds)
    setups += [r["setup_s"] for r in rounds]
    print("setup_s samples: " + " ".join(f"{v:.4f}" for v in setups))
    values = {
        "setup_s": _median(setups),
        "wall_s": _median(r["wall_s"] for r in rounds),
        "build_s": _median(r["build_s"] for r in rounds),
        "evals_per_s": _median(r["evals"] / r["eval_s"] for r in rounds),
        "basis_mb": _median(r["basis_bytes"] for r in rounds) / 1e6,
        "peak_rss_mb": _median(r["peak_rss_bytes"] for r in rounds) / 1e6,
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}, rounds


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list]:
    pairs = repeat(lambda: (runner.round(), runner.round(trace=True)), seconds)
    plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
    values = {k: _median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    values["trace.untraced_wall_s"] = _median(r["wall_s"] for r in plain)
    values["trace.overhead_pct"] = 100.0 * (
        values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
    )
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "eigcolloc", "__init__.py")):
        print(f"no eigcolloc sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    runner = Runner(args.workload, args.seed, work, args.small, deadline)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, rounds = measure(runner, args.seconds)
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    manifest = {**rounds[-1]["manifest"], "removed_thread_env": runner.removed,
                "rounds": len(rounds)}
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for k, r in enumerate(rounds):
        kind = "traced" if "layers" in r else "untraced"
        print(f"round {k} {kind}: setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f} "
              f"build_s={r['build_s']:.4f} evals={r['evals']} eval_s={r['eval_s']:.4f}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
