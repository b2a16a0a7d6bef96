"""Timing of eigcolloc's public functions from outside the program.

``install`` replaces each listed function with a wrapper in every eigcolloc
module that binds it, so re-exports such as ``eigcolloc.study.solve_gevp``
are caught too.  Every wrapped call becomes a span (id, parent id, name,
start, end); a span's self time is its duration minus the time its child
spans cover.  Spans stay in memory until the round ends.

An untraced round wraps only ``solve_gevp`` (its first call ends set-up),
``collocate``, ``evaluate`` and ``estimate_error`` (for build time and
batch throughput); a traced round wraps every function in ``TRACED``.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import statistics
import time
from collections import defaultdict

MODULES = (
    "eigcolloc",
    "eigcolloc.families",
    "eigcolloc.eigensolver",
    "eigcolloc.eigenspace",
    "eigcolloc.sparse_grid",
    "eigcolloc.collocation",
    "eigcolloc.study",
    "eigcolloc.cli",
)

TRACED = {
    "families": ("assemble_at", "family_hash", "model_diffusion_1d", "model_diffusion_2d"),
    "eigensolver": ("solve_gevp",),
    "eigenspace": ("canonical_basis",),
    "sparse_grid": (
        "anisotropic_set", "grid_points", "combination_terms", "combination_interpolate",
    ),
    "collocation": ("collocate", "evaluate", "save_collocated", "load_collocated"),
    "study": ("run_convergence_study", "estimate_error"),
}

UNTRACED = {
    "eigensolver": ("solve_gevp",),
    "collocation": ("collocate", "evaluate"),
    "study": ("estimate_error",),
}

# CLOCK_MONOTONIC on Linux: one clock for all processes, so a child can time
# its set-up from the moment the parent launched it
clock = time.monotonic


class SetupDone(BaseException):
    """Raised at the first eigensolve when only set-up is being timed.

    A BaseException, so that the program's stage wrappers and the CLI's error
    handler, which catch Exception, let it through.
    """


class Recorder:
    """Spans and counters of one round; ``active`` gates what is recorded."""

    def __init__(self, traced: bool, stop_at_first_solve: bool = False):
        self.traced = traced
        self.stop_at_first_solve = stop_at_first_solve
        self.active = True
        self.first_solve = None
        self.spans = []  # (id, parent id or -1, name, start, end, self seconds)
        self.counts = defaultdict(float)
        self.last_collocated = None
        self._stack = []  # [id, child seconds]
        self._next_id = 0
        self._products = {}
        self._distinct = set()

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name == "eigensolver.solve_gevp":
                self._first_solve()
            if not self.active:
                return fn(*args, **kwargs)
            if self.traced:
                self._before(name, args)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((span_id, parent, name, start, end, end - start - frame[1]))
            self._after(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _first_solve(self):
        if self.first_solve is None:
            self.first_solve = clock()
            if self.stop_at_first_solve:
                raise SetupDone

    def _before(self, name, args):
        if name == "eigensolver.solve_gevp":
            # equal matrices are the same parameter point, whichever path
            # (grid, Monte Carlo sample, origin) assembled them
            self._distinct.add(hashlib.sha1(memoryview(args[0]).tobytes()).digest())
        elif name == "sparse_grid.combination_interpolate":
            terms, M = args[0], args[1]
            tag = (len(terms), id(terms[0]), id(terms[-1]), M)
            if tag not in self._products:
                total = 0
                for t in terms:
                    prod = 1
                    for m in range(1, M + 1):
                        prod *= t.gamma.level(m) + 1
                    total += prod
                self._products[tag] = total
            self.counts[name + ".products"] += self._products[tag]

    def _after(self, name, args, result):
        if name == "collocation.collocate":
            self.last_collocated = result
            self.counts[name + ".points"] += len(result.point_data)
        elif name == "sparse_grid.grid_points":
            self.counts[name + ".points"] += len(result)
        elif name == "collocation.save_collocated":
            self.counts[name + ".bytes"] += os.path.getsize(args[1])
        elif name == "study.estimate_error":
            self.counts[name + ".samples"] += result.n_samples
            self.counts[name + ".failures"] += result.n_failures

    # -- summaries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def batch_count(self, name: str) -> int:
        """Items a function processed: MC samples for estimate_error, else calls."""
        if name == "study.estimate_error":
            return int(self.counts[name + ".samples"] + self.counts[name + ".failures"])
        return self.calls(name)

    def seconds(self, name: str) -> float:
        """Total wall time of the named function's spans."""
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def self_seconds(self, name: str) -> float:
        return sum(s[5] for s in self.spans if s[2] == name)

    def covered(self, start: float, end: float) -> float:
        """Time of [start, end] covered by root spans, i.e. by layer self times."""
        return sum(
            max(0.0, min(s[4], end) - max(s[3], start)) for s in self.spans if s[1] == -1
        )

    def layer_metrics(self, wall_start: float, wall_end: float) -> dict:
        """Per-layer metrics of a traced round, keyed as in BENCHMARK.json."""
        out = {}
        for module, names in TRACED.items():
            for fn in names:
                if not fn.startswith("model_diffusion"):
                    full = f"{module}.{fn}"
                    out[full + ".calls"] = self.calls(full)
                    out[full + ".s"] = self.self_seconds(full)
        out["families.model_diffusion.s"] = self.self_seconds(
            "families.model_diffusion_1d"
        ) + self.self_seconds("families.model_diffusion_2d")
        solves = [s[4] - s[3] for s in self.spans if s[2] == "eigensolver.solve_gevp"]
        out["eigensolver.solve_gevp.p50_ms"] = 1e3 * statistics.median(solves) if solves else 0.0
        out["eigensolver.solve_gevp.distinct"] = len(self._distinct)
        out["eigensolver.solve_gevp.distinct_ratio"] = (
            len(self._distinct) / len(solves) if solves else 0.0
        )
        for key in (
            "sparse_grid.grid_points.points",
            "sparse_grid.combination_interpolate.products",
            "collocation.collocate.points",
            "collocation.save_collocated.bytes",
            "study.estimate_error.samples",
            "study.estimate_error.failures",
        ):
            out[key] = self.counts[key]
        wall = wall_end - wall_start
        out["trace.wall_s"] = wall
        out["trace.accounted_pct"] = 100.0 * self.covered(wall_start, wall_end) / wall
        return out


def install(recorder: Recorder):
    """Wrap the recorder's functions in every eigcolloc module; return the package."""
    modules = [importlib.import_module(m) for m in MODULES]
    for short, names in (TRACED if recorder.traced else UNTRACED).items():
        home = importlib.import_module(f"eigcolloc.{short}")
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapper = recorder.wrap(f"{short}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    return modules[0]
