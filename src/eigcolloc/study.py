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
from dataclasses import MISSING, dataclass, field, fields

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
    "synthetic-file": {"family_file": ""},
    "builtin-crossing": {},
}
# the weights keys each mode reads, with their defaults; resolve_weights has
# one branch per mode
_WEIGHTS = {
    "tau": {"mode": "tau", "epsilon": 0.5, "delta": None},
    "explicit": {"mode": "explicit", "rho": ()},
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
    """``kind(value)``, but a bool is no number, a fractional number no int
    and only a str a str."""
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional or kind is str and type(value) is not str):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"malformed config value: {name} = {value!r} is not {kind.__name__}")


def _read_list(value, kind: type, name: str) -> tuple:
    """A JSON list (or a tuple) of ``kind``, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"malformed config value: {name} = {value!r} is not a list")
    return tuple(_convert(v, kind, name) for v in value)


def _read(value, default, name: str):
    """``value`` converted to the kind of ``default``: its type, a list of
    floats for a tuple, a float or None for None."""
    if isinstance(default, tuple):
        return _read_list(value, float, name)
    if default is None:
        return None if value is None else _convert(value, float, name)
    return _convert(value, type(default), name)


def _read_table(values, defaults: dict, name: str, owner: str) -> dict:
    """The keys of ``values``, each read by ``_read`` against its default."""
    if not isinstance(values, dict):
        raise ConfigError(f"malformed config value: {name} = {values!r} is not an object")
    unread = set(values) - set(defaults)
    if unread:
        raise ConfigError(f"unknown {name} keys for {owner}: {sorted(unread)}")
    return {key: _read(value, defaults[key], f"{name}.{key}") for key, value in values.items()}


@dataclass(frozen=True, kw_only=True)
class StudyConfig:
    """Validated study description, read from the JSON layout of the README.

    Every field is converted and checked here, however the config was made:
    lists become tuples, numbers the types of their defaults, and ``weights``
    holds its mode and every key that mode reads that has a default.
    """

    model: str
    model_params: dict = field(default_factory=dict)
    cluster: tuple[int, ...]
    budgets: tuple[float, ...]
    metric: str = "vector-l2"
    n_mc: int = 200
    seed: int = 0
    target: str = "canonical"
    delta_requested: float | None = None
    weights: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        weights = self.weights
        mode = weights.get("mode", "tau") if isinstance(weights, dict) else "tau"
        if mode not in tuple(_WEIGHTS):  # a tuple: a mode may be unhashable
            raise ConfigError(f"unknown weights mode {mode!r}")
        converted = dict(
            model_params=_read_table(
                self.model_params, _MODEL_PARAMS[self.model], "model_params", self.model
            ),
            cluster=_read_list(self.cluster, int, "cluster"),
            budgets=_read_list(self.budgets, float, "budgets"),
            n_mc=_convert(self.n_mc, int, "n_mc"),
            seed=_convert(self.seed, int, "seed"),
            delta_requested=_read(self.delta_requested, None, "delta_requested"),
            # the mode and the keys it reads that have a default are filled in
            weights={
                **{key: d for key, d in _WEIGHTS[mode].items() if d is not None},
                **_read_table(weights, _WEIGHTS[mode], "weights", f"mode {mode!r}"),
            },
        )
        for name, value in converted.items():
            object.__setattr__(self, name, value)
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
        _as_cluster(self.cluster)  # validates index layout

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"malformed config: {doc!r} is not an object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in doc:
                raise ConfigError(f"missing config key: {f.name!r}")
        return cls(**doc)

    def to_dict(self) -> dict:
        """The fields as JSON reads them back (tuples as lists): the config
        echo of study.json."""
        return json.loads(json.dumps({f.name: getattr(self, f.name) for f in fields(self)}))


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
    weights = config.weights
    if weights["mode"] == "explicit":
        rho = list(weights["rho"])
        if len(rho) > family.n_terms:
            raise ConfigError(
                f"{len(rho)} explicit weights for a {family.n_terms}-term family"
            )
        return rho
    if weights.get("delta") is None:
        raise ConfigError("weights mode 'tau' needs weights.delta")
    return compute_tau_weights(family.kappa, weights["delta"], weights["epsilon"])


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
