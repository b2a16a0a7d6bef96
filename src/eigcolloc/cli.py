"""Command-line driver for diagnostics, collocation runs, and studies."""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

from .collocation import collocate, save_collocated
from .eigensolver import ReducedFamily
from .eigenspace import (
    check_isolation,
    exterior_gap,
    isolation_parameter,
    _as_cluster,
)
from .errors import ClusterCoverageError, EigcollocError, IsolationPreconditionError
from .sparse_grid import anisotropic_set
from .study import (
    StudyConfig,
    build_family,
    load_config,
    resolve_weights,
    run_convergence_study,
    run_crossing_demo,
)
from .families import verify_decay

logger = logging.getLogger("eigcolloc")

DEFAULT_CROSSING_CONFIG = {
    "model": "builtin-crossing",
    "cluster": [2, 3],
    "metric": "subspace-angle",
    "weights": {"mode": "explicit", "rho": [math.e]},
    "budgets": [2.0, 4.0, 6.0, 9.0],
    "n_mc": 200,
    "seed": 0,
}


def _load_study_config(args, default: dict | None = None) -> StudyConfig:
    if args.config is not None:
        config = load_config(args.config)
    elif default is not None:
        config = StudyConfig.from_dict(default)
    else:
        raise EigcollocError("--config is required for this subcommand")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_check(args) -> int:
    config = _load_study_config(args)
    family = build_family(config)
    cluster = _as_cluster(config.cluster)
    if cluster.hi > family.dim:
        raise ClusterCoverageError(f"cluster index {cluster.hi} exceeds dimension {family.dim}")
    decay = verify_decay(family)
    k = min(cluster.hi + 1, family.dim)
    vals = ReducedFamily(family).solve((), k).values
    delta0 = exterior_gap(vals, cluster) / vals[cluster.hi - 1]
    certified = None
    certified_reason = None
    if math.isinf(delta0):
        certified_reason = "cluster sits at the spectrum edge; gap unbounded"
    else:
        try:
            certified = isolation_parameter(delta0, family.kappa.total)
        except IsolationPreconditionError as exc:
            certified_reason = str(exc)
    delta_used = config.delta_requested
    if delta_used is None:
        delta_used = certified if certified is not None else 0.0
    report = check_isolation(
        family, cluster, delta_used, n_samples=config.n_mc, seed=config.seed
    )
    doc = {
        "model": config.model,
        "cluster": list(cluster.J),
        "decay": decay.to_dict(),
        "kappa_sum": family.kappa.total,
        "origin_values": [float(v) for v in vals],
        "delta0": None if math.isinf(delta0) else float(delta0),
        "delta_certified": certified,
        "delta_certified_reason": certified_reason,
        "isolation": report.to_dict(),
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "check.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    ok = decay.ok and report.isolated
    obs = report.delta_observed
    print(f"decay bounds: {'ok' if decay.ok else 'VIOLATED at ' + str(decay.violations)}")
    print(f"delta0 at origin: {'inf' if math.isinf(delta0) else f'{delta0:.6g}'}")
    if certified is not None:
        print(f"certified isolation delta: {certified:.6g}")
    else:
        print(f"no certified isolation: {certified_reason}")
    print(
        f"observed delta over {report.n_samples} samples: "
        f"{'inf' if math.isinf(obs) else f'{obs:.6g}'} "
        f"({'isolated' if report.isolated else 'NOT isolated'} vs {delta_used:.6g})"
    )
    print(f"report written to {path}")
    return 0 if ok else 1


def _cmd_collocate(args) -> int:
    config = _load_study_config(args)
    family = build_family(config)
    rho = resolve_weights(config, family)
    budget = args.budget if args.budget is not None else config.budgets[-1]
    A = anisotropic_set(rho, budget)
    cb = collocate(family, config.cluster, A, target=config.target)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "basis.json")
    save_collocated(cb, path)
    print(
        f"collocated {len(cb.point_data)} points (#A={len(A)}, budget {budget:g}), "
        f"min gram sigma {cb.diagnostics['min_gram_sigma_min']:.3e}"
    )
    print(f"basis written to {path}")
    return 0


def _cmd_study(args) -> int:
    config = _load_study_config(args)
    result = run_convergence_study(config, out_dir=args.out)
    for rec, diag in zip(result.records, result.diagnostics):
        print(
            f"L={rec.budget:g} #A={rec.card_A} #X={rec.card_X} "
            f"error={rec.error:.6e} solves: grid={diag['grid_solves']} "
            f"mc={diag['mc_solves']} ({rec.seconds:.2f}s)"
        )
    if result.r_hat is not None:
        print(f"fitted rate: {result.r_hat:.3f}")
    else:
        print(f"rate not fitted: {result.r_hat_reason}")
    print(f"outputs: {result.csv_path}, {result.summary_path}")
    return 0


def _cmd_crossing_demo(args) -> int:
    config = _load_study_config(args, default=DEFAULT_CROSSING_CONFIG)
    result = run_crossing_demo(config, out_dir=args.out)
    for rec in result.records:
        print(
            f"L={rec.budget:g} #A={rec.card_A} canonical={rec.error_canonical:.6e} "
            f"raw={rec.error_raw:.6e}"
        )
    if result.final_ratio is not None:
        print(f"final raw/canonical error ratio: {result.final_ratio:.1f}x")
    print(f"outputs: {result.csv_path}, {result.summary_path}")
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="path to a JSON study config")
    sub.add_argument("--out", default=".", help="output directory (default: cwd)")
    sub.add_argument("--seed", type=int, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigcolloc",
        description=(
            "Sparse collocation of parameter-dependent eigenspaces: "
            "diagnostics, basis construction, and convergence studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", help="ellipticity, decay, and isolation report")
    _add_common(p)
    p.set_defaults(func=_cmd_check)
    p = sub.add_parser("collocate", help="build and persist a collocated basis")
    _add_common(p)
    p.add_argument("--budget", type=float, help="index-set budget (default: last of schedule)")
    p.set_defaults(func=_cmd_collocate)
    p = sub.add_parser("study", help="run a convergence study")
    _add_common(p)
    p.set_defaults(func=_cmd_study)
    p = sub.add_parser(
        "crossing-demo",
        help="compare projected-basis vs raw-eigenvector interpolation at a crossing",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_crossing_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr
    )
    try:
        return args.func(args)
    except EigcollocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
