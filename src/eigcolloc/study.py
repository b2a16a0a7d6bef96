"""Convergence-study harness: configs, error estimation, CSV/JSON reporting.

A study sweeps a schedule of budgets; per budget it builds the anisotropic
index set, collocates, and estimates the interpolation error by Monte Carlo
against direct solves.  The same seed is reused across budgets (common random
numbers), so error columns are comparable between rows.
"""
from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from .collocation import TARGETS, CollocatedEigenbasis, _target_bases, collocate, evaluate_many
from .eigensolver import ReducedFamily, _nproc, _point_environment, _serial_blas
from .eigenspace import _as_cluster, _box_samples, _check_sampling, _euclidean_angles
from .errors import ConfigError, SolverError, StageError
from .families import (
    AffineOperatorFamily,
    DecaySequence,
    designed_crossing_family,
    load_family,
    model_diffusion_1d,
    model_diffusion_2d,
)
from .sparse_grid import anisotropic_set, point_count_bound

logger = logging.getLogger("eigcolloc")

METRICS = ("vector-l2", "subspace-angle")
# the model_params keys build_family reads, with their defaults, per model
_MODEL_PARAMS = {
    "diffusion1d": {"n_elements": 100, "decay_scale": 0.0, "decay_rate": 2.0,
                    "n_terms": 0, "p_exponent": 1.0},
    "diffusion2d": {"n_per_side": 16, "decay_scale": 0.0, "decay_rate": 2.0,
                    "n_terms": 0, "p_exponent": 1.0},
    "synthetic-file": {"family_file": None},
    "builtin-crossing": {},
}
MODELS = tuple(_MODEL_PARAMS)


def compute_tau_weights(kappa: DecaySequence, delta: float, epsilon: float) -> list[float]:
    """Per-dimension radii rho_m derived from the analyticity widths tau_m.

    tau_m = (1-eps)(1-|kappa|_1) kappa_m^(p-1) / (2 |kappa|_p (1 + 1/delta)),
    rho_m = tau_m + sqrt(1 + tau_m^2); always > 1, growing with m when p < 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("epsilon must lie in (0, 1)")
    if delta <= 0.0:
        raise ConfigError("delta must be positive")
    p = kappa.p_exponent
    if not kappa.kappa:
        return []
    norm1 = kappa.total
    normp = kappa.lp_norm()
    scale = (1.0 - epsilon) * (1.0 - norm1) / (2.0 * normp * (1.0 + 1.0 / delta))
    out = []
    for km in kappa.kappa:
        tau = scale * km ** (p - 1.0)
        out.append(tau + math.sqrt(1.0 + tau * tau))
    return out


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _convert(value, kind: type, name: str):
    """``kind(value)``, but a bool is no number and a fractional number no int."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"malformed config value: {name} = {value!r} is not {kind.__name__}")


@dataclass(frozen=True)
class StudyConfig:
    """Validated study description; see ``from_dict`` for the JSON layout."""

    model: str
    model_params: dict
    cluster: tuple[int, ...]
    budgets: tuple[float, ...]
    metric: str = "vector-l2"
    n_mc: int = 200
    seed: int = 0
    target: str = "canonical"
    delta_requested: float | None = None
    weights_mode: str = "tau"
    epsilon: float = 0.5
    weights_delta: float | None = None
    rho_explicit: tuple[float, ...] = ()

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        defaults = _MODEL_PARAMS[self.model]
        unread = set(self.model_params) - set(defaults)
        if unread:
            raise ConfigError(f"unknown model_params keys for {self.model}: {sorted(unread)}")
        # each number is converted to the type of its default: int or float
        params = {
            key: value if defaults[key] is None
            else _convert(value, type(defaults[key]), f"model_params.{key}")
            for key, value in self.model_params.items()
        }
        object.__setattr__(self, "model_params", params)
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.target not in TARGETS:
            raise ConfigError(f"unknown target {self.target!r}")
        if not self.budgets:
            raise ConfigError("budget schedule must not be empty")
        if not all(math.isfinite(b) and b >= 0.0 for b in self.budgets):
            raise ConfigError(f"budgets must be finite and at least 0: {list(self.budgets)}")
        if any(b <= a for a, b in zip(self.budgets, self.budgets[1:])):
            raise ConfigError("budgets must be strictly increasing")
        _check_sampling(self.n_mc, self.seed, "n_mc")
        if self.weights_mode not in ("tau", "explicit"):
            raise ConfigError(f"unknown weights mode {self.weights_mode!r}")
        _as_cluster(self.cluster)  # validates index layout

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        known = {
            "model", "model_params", "cluster", "budgets", "metric", "n_mc",
            "seed", "target", "delta_requested", "weights",
        }
        try:
            unknown = set(doc) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            weights = doc.get("weights", {"mode": "tau"})
            mode = weights.get("mode", "tau")
            # a key its mode does not read would be dropped from the echo in
            # study.json; __post_init__ names an unknown mode
            read = {"tau": ("epsilon", "delta"), "explicit": ("rho",)}
            unknown = set(weights) - {"mode", *read.get(mode, ("epsilon", "delta", "rho"))}
            if unknown:
                raise ConfigError(f"unknown weights keys for mode {mode!r}: {sorted(unknown)}")
            fields = dict(
                model=doc["model"],
                model_params=dict(doc.get("model_params", {})),
                cluster=tuple(_convert(j, int, "cluster") for j in doc["cluster"]),
                budgets=tuple(_convert(b, float, "budgets") for b in doc["budgets"]),
                metric=doc.get("metric", "vector-l2"),
                n_mc=_convert(doc.get("n_mc", 200), int, "n_mc"),
                seed=_convert(doc.get("seed", 0), int, "seed"),
                target=doc.get("target", "canonical"),
                delta_requested=(
                    None if doc.get("delta_requested") is None
                    else _convert(doc["delta_requested"], float, "delta_requested")
                ),
                weights_mode=mode,
                epsilon=_convert(weights.get("epsilon", 0.5), float, "weights.epsilon"),
                weights_delta=(
                    None if weights.get("delta") is None
                    else _convert(weights["delta"], float, "weights.delta")
                ),
                rho_explicit=tuple(
                    _convert(r, float, "weights.rho") for r in weights.get("rho", ())
                ),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key: {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        return cls(**fields)

    def to_dict(self) -> dict:
        weights: dict = {"mode": self.weights_mode}
        if self.weights_mode == "tau":
            weights["epsilon"] = self.epsilon
            if self.weights_delta is not None:
                weights["delta"] = self.weights_delta
        else:
            weights["rho"] = list(self.rho_explicit)
        return {
            "model": self.model,
            "model_params": dict(self.model_params),
            "cluster": list(self.cluster),
            "budgets": list(self.budgets),
            "metric": self.metric,
            "n_mc": self.n_mc,
            "seed": self.seed,
            "target": self.target,
            "delta_requested": self.delta_requested,
            "weights": weights,
        }


def load_config(path) -> StudyConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return StudyConfig.from_dict(doc)


def build_family(config: StudyConfig) -> AffineOperatorFamily:
    defaults = _MODEL_PARAMS[config.model]
    p = {key: config.model_params.get(key, value) for key, value in defaults.items()}
    if config.model == "synthetic-file":
        if not p["family_file"]:
            raise ConfigError("synthetic-file model needs model_params.family_file")
        return load_family(p["family_file"])
    if config.model == "builtin-crossing":
        return designed_crossing_family()
    model = model_diffusion_1d if config.model == "diffusion1d" else model_diffusion_2d
    return model(**p)


def resolve_weights(config: StudyConfig, family: AffineOperatorFamily) -> list[float]:
    """Anisotropy radii for the index sets, from tau formula or explicit list."""
    if config.weights_mode == "explicit":
        rho = list(config.rho_explicit)
        if len(rho) > family.n_terms:
            raise ConfigError(
                f"{len(rho)} explicit weights for a {family.n_terms}-term family"
            )
        return rho
    delta = config.weights_delta
    if delta is None:
        raise ConfigError("weights mode 'tau' needs weights.delta")
    return compute_tau_weights(family.kappa, delta, config.epsilon)


# ---------------------------------------------------------------------------
# Monte Carlo error estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorEstimate:
    value: float
    n_samples: int
    n_failures: int


def estimate_error(
    cb: CollocatedEigenbasis, metric: str, n_mc: int, seed: int,
    *, _cache: ReducedFamily | None = None,
) -> ErrorEstimate:
    """Root-mean-square interpolation error over seeded uniform samples.

    Each sample gets a direct eigensolve of the family reduced once to
    standard form (``ReducedFamily.solve_many``, one chunk at a time); the
    reference is the basis of the interpolant's own target, made from the
    same origin vectors by the rule that made its grid nodes
    (``_target_bases``), so both sides target the identical object.  The
    interpolant is evaluated at a chunk of samples in one batch
    (``evaluate_many``); a chunk's truths and metric run under the BLAS
    thread setting of the solves (``_serial_blas()``).  Metric 'vector-l2' sums
    squared energy norms of the columnwise differences; 'subspace-angle' uses
    the largest principal angle between the interpolated and the true cluster
    span.  ``_cache`` is internal: a budget sweep passes its
    ``ReducedFamily``, so that the direct solves of the samples, which every
    budget shares, are made once.

    Samples whose direct solve or reference construction fails are skipped and
    counted; more than 10% failures aborts.
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    family = cb.family
    Y = _box_samples(n_mc, seed, family.n_terms, "n_mc")
    cache = ReducedFamily(family, carry=False) if _cache is None else _cache
    total = 0.0
    used = 0
    for start, decomps in cache.solve_many(Y, cb.cluster.hi):
        chunk = Y[start:start + len(decomps)]
        with _serial_blas():
            for approx, truth in zip(evaluate_many(cb, chunk), _truth_bases(cb, decomps)):
                if truth is None:
                    continue
                if metric == "vector-l2":
                    diff = approx - truth
                    total += float(np.sum(diff * (family.B0 @ diff)))
                else:
                    # principal_angles with the mass factor the reduction already holds
                    LT = cache.LT
                    angle = _euclidean_angles(LT @ approx, LT @ truth)[-1]
                    total += angle * angle
                used += 1
    failures = len(Y) - used
    if failures > 0.1 * n_mc:
        raise SolverError(
            f"{failures} of {n_mc} direct solves failed during error estimation"
        )
    value = math.sqrt(total / used) if used else math.nan
    return ErrorEstimate(value=value, n_samples=used, n_failures=failures)


def _truth_bases(cb, decomps) -> list:
    """The target basis of each direct solve in ``decomps``, or None.

    None stands for a sample whose solve failed (a ``SolverError`` entry) or
    whose basis the target does not accept (``_target_bases``).
    """
    truths = [None] * len(decomps)
    solved = [i for i, d in enumerate(decomps) if not isinstance(d, SolverError)]
    if solved:
        bases, _, ok = _target_bases(
            [decomps[i] for i in solved], cb.ref_vectors, cb.cluster, cb.family.mass, cb.target
        )
        for i, basis, keep in zip(solved, bases, ok):
            if keep:
                truths[i] = basis
    return truths


# ---------------------------------------------------------------------------
# Studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorRecord:
    budget: float
    card_A: int
    card_X: int
    error: float
    seconds: float


@dataclass(frozen=True)
class StudyResult:
    records: tuple
    r_hat: float | None
    r_hat_reason: str | None
    csv_path: str | None
    summary_path: str | None
    diagnostics: tuple = field(default_factory=tuple)


def fit_rate(card_A, errors) -> tuple[float | None, str | None]:
    """Least-squares slope of log(error) against log(#A); sign flipped.

    Returns (rate, None) or (None, reason) when the data cannot support a fit:
    fewer than two budgets, repeated set sizes, or errors at solver noise.
    """
    if len(card_A) < 2:
        return None, "need at least two budgets to fit a rate"
    if any(not (e > 0.0) for e in errors):
        return None, "nonpositive error values"
    if min(errors) < 1e-13:
        return None, "errors at solver-noise level, fit is meaningless"
    if len(set(card_A)) < 2:
        return None, "identical set sizes across budgets"
    slope = np.polyfit(np.log(np.asarray(card_A, dtype=float)), np.log(errors), 1)[0]
    return float(-slope), None


def _csv_cell(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


@contextlib.contextmanager
def _stage(name: str, budget_index: int | None = None):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, budget_index, str(exc)) from exc


def _sweep(config: StudyConfig, targets: tuple[str, ...]):
    """Collocate and estimate the error once per target at every budget.

    Yields ``(budget, card_A, card_X, card_X_formula, runs, seconds, counts)``
    per budget, where ``runs`` maps each target to its ``(basis,
    ErrorEstimate)`` and ``counts`` holds the budget's eigensolves made
    (``solves``) and served again from the memo (``reused_solves``), the
    solves made by the collocate and the estimate stages (``grid_solves``,
    ``mc_solves``, which add up to ``solves``) and the seconds of those two
    stages (``collocate_s``, ``estimate_s``), summed over the targets.  One
    ``ReducedFamily`` carries the reduction, the origin solve, the grid point
    solves and the Monte Carlo solves across the budgets and the targets; it
    is the only state the sweep carries.
    Failures are tagged with the stages 'model', 'weights', 'index-set',
    'collocate' and 'estimate'; with more than one target the last two carry
    the target, as in 'collocate-raw'.
    """
    with _stage("model"):
        family = build_family(config)
    with _stage("weights"):
        rho = resolve_weights(config, family)
    cache = ReducedFamily(family)
    for i, L in enumerate(config.budgets):
        t0 = time.perf_counter()
        before = (cache.solves, cache.reused)
        with _stage("index-set", i):
            A = anisotropic_set(rho, L)
            card_X_formula = point_count_bound(A)
        runs = {}
        stages = dict.fromkeys(("grid_solves", "mc_solves", "collocate_s", "estimate_s"), 0)
        for target in targets:
            tag = f"-{target}" if len(targets) > 1 else ""
            t, made = time.perf_counter(), cache.solves
            with _stage("collocate" + tag, i):
                cb = collocate(family, config.cluster, A, target=target, _cache=cache)
            stages["collocate_s"] += time.perf_counter() - t
            stages["grid_solves"] += cache.solves - made
            t, made = time.perf_counter(), cache.solves
            with _stage("estimate" + tag, i):
                est = estimate_error(cb, config.metric, config.n_mc, config.seed, _cache=cache)
            stages["estimate_s"] += time.perf_counter() - t
            stages["mc_solves"] += cache.solves - made
            runs[target] = (cb, est)
        seconds = time.perf_counter() - t0
        counts = {
            "solves": cache.solves - before[0],
            "reused_solves": cache.reused - before[1],
            **stages,
        }
        card_A = len(A)
        card_X = len(cb.point_data)
        if card_X > card_A * card_A:
            raise StageError(
                "index-set", i, f"grid size {card_X} exceeds (#A)^2 = {card_A * card_A}"
            )
        logger.info(
            "budget %g: #A=%d #X=%d %s (%.2fs)", L, card_A, card_X,
            " ".join(f"{t}={est.value:.6e}" for t, (_, est) in runs.items()), seconds,
        )
        yield float(L), card_A, card_X, card_X_formula, runs, seconds, counts


def _environment(family) -> dict:
    """Versions, processors and BLAS threads of this process and the point
    solver of ``family``, for a summary."""
    from . import __version__

    return {
        "eigcolloc": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": _nproc(),
        **_point_environment(family),
    }


def _write_outputs(
    config: StudyConfig, out_dir, name: str,
    header: list[str], records: list, family, **summary,
) -> tuple[str | None, str | None]:
    """``name``.csv, one row per record (its fields, in order), and a JSON
    summary ``name``.json; both paths.

    The summary holds the environment in which ``family`` was solved.
    """
    if out_dir is None:
        return None, None
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, name + ".csv")
    _write_csv(csv_path, header, [list(vars(r).values()) for r in records])
    summary_path = os.path.join(out_dir, name + ".json")
    doc = {
        "config": config.to_dict(),
        "environment": _environment(family),
        "records": [vars(r) for r in records],
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({**doc, **summary}, fh, indent=2)
    return csv_path, summary_path


def run_convergence_study(config: StudyConfig, out_dir=None) -> StudyResult:
    """Sweep the budget schedule, estimate errors, fit the rate, write outputs.

    Writes ``study.csv`` (columns L,card_A,card_X,error,seconds) and
    ``study.json`` (config echo, per-budget diagnostics, fitted rate) when
    ``out_dir`` is given.
    """
    records = []
    diagnostics = []
    for L, card_A, card_X, card_X_formula, runs, seconds, counts in _sweep(
        config, (config.target,)
    ):
        cb, est = runs[config.target]
        records.append(ErrorRecord(L, card_A, card_X, est.value, seconds))
        diagnostics.append(
            {
                "budget": L,
                "card_X_formula": card_X_formula,
                "mc_failures": est.n_failures,
                **cb.diagnostics,
                **counts,
            }
        )
    r_hat, reason = fit_rate([r.card_A for r in records], [r.error for r in records])
    csv_path, summary_path = _write_outputs(
        config, out_dir, "study",
        ["L", "card_A", "card_X", "error", "seconds"], records, cb.family,
        r_hat=r_hat, r_hat_reason=reason, diagnostics=diagnostics,
    )
    return StudyResult(
        records=tuple(records),
        r_hat=r_hat,
        r_hat_reason=reason,
        csv_path=csv_path,
        summary_path=summary_path,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class CrossingRecord:
    budget: float
    card_A: int
    card_X: int
    error_canonical: float
    error_raw: float
    seconds: float


@dataclass(frozen=True)
class CrossingResult:
    records: tuple
    final_ratio: float | None
    csv_path: str | None
    summary_path: str | None


def run_crossing_demo(config: StudyConfig, out_dir=None) -> CrossingResult:
    """Interpolate the same cluster twice per budget: projected basis vs raw.

    Raw means individually sorted eigenvectors, which jump at eigenvalue
    crossings inside the cluster; the projected basis does not.  Both error
    columns use the same metric, samples, and seed, so rows are comparable.
    Writes ``crossing.csv`` and ``crossing.json`` when ``out_dir`` is given.
    """
    records = []
    for L, card_A, card_X, _, runs, seconds, _ in _sweep(config, ("canonical", "raw")):
        (cb, canonical), (_, raw) = runs["canonical"], runs["raw"]
        records.append(CrossingRecord(L, card_A, card_X, canonical.value, raw.value, seconds))
    last = records[-1]
    ratio = last.error_raw / last.error_canonical if last.error_canonical > 0 else None
    csv_path, summary_path = _write_outputs(
        config, out_dir, "crossing",
        ["L", "card_A", "card_X", "error_canonical", "error_raw", "seconds"], records,
        cb.family, final_error_ratio_raw_over_canonical=ratio,
    )
    return CrossingResult(
        records=tuple(records),
        final_ratio=ratio,
        csv_path=csv_path,
        summary_path=summary_path,
    )
