"""Span tracing of rapkit layers, installed from outside the package.

``Tracer.install`` wraps each traced function at every ``rapkit.*``
module binding that holds the same function object, so calls made inside
the package (``instance._pm_within`` calling ``max_matching``, ``lp``
calling ``check_feasible``, ``cli`` calling the solvers) are seen too.
Each call records a span (name, start, end, parent, caller) in memory.
``uninstall`` puts the original objects back.

Outcome counts are read from the wrapped functions' public return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

TRACED = {
    "graph_core": ("max_matching", "allowed_edges", "matching_covered_components", "components"),
    "instance": ("check_feasible", "verify_solution", "prune_to_minimal", "uniformize",
                 "balanced_completion"),
    "lp": ("build_lp", "solve_lp"),
    "decompose": ("birkhoff_decompose",),
    "rounding": ("prepare", "solve_lp_round"),
    "ear": ("ear_decomposition", "solve_ear"),
    "exact": ("solve_exact", "lower_bounds"),
    "cli": ("main", "parse_instance"),
}
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
MATCHING = "graph_core.max_matching"

# Callers of max_matching seen on the three workloads; any other caller is
# counted under "other".
MATCHING_CALLERS = (
    "instance._pm_within",
    "instance.check_feasible",
    "ear._lex_min_pm",
    "decompose.birkhoff_decompose",
    "other",
)

# outcome counter -> unit
OUTCOMES = {
    "lp.pivots": "count",
    "lp.matrix_mb": "MB-computed",
    "lp.nnz_frac": "frac",
    "decompose.terms": "count",
    "rounding.iterations": "count",
    "rounding.kept_frac": "frac",
    "ear.ears": "count",
    "ear.trivial_frac": "frac",
    "instance.verify_solution.scenarios": "count",
    "exact.matchings": "count",
}


def _caller(frame) -> str:
    """``module.function`` of the nearest named function in ``frame``'s chain.

    Generator expressions, comprehensions and lambdas are skipped, so a
    call made inside ``all(... for f in ...)`` is charged to the function
    that holds the expression.
    """
    while frame.f_code.co_name.startswith("<") and frame.f_back is not None:
        frame = frame.f_back
    module = frame.f_globals.get("__name__", "?").rpartition(".")[2]
    return f"{module}.{frame.f_code.co_name}"


class Tracer:
    def __init__(self) -> None:
        # one row per call: [name, start, end, parent index, caller]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._lp_sizes: list[tuple[int, int, int]] = []  # (nbytes, nonzeros, size) per build_lp

    def _on_return(self, name: str, result: Any) -> None:
        t = self.totals
        if name == "lp.solve_lp":
            t["lp.pivots"] += result.iterations
        elif name == "lp.build_lp":
            a = result.a_matrix
            self._lp_sizes.append((a.nbytes, int((a != 0).sum()), a.size))
        elif name == "decompose.birkhoff_decompose":
            t["decompose.terms"] += len(result.terms)
        elif name == "rounding.solve_lp_round":
            records = result[1].records
            t["rounding.iterations"] += len(records)
            t["rounding.sampled"] += sum(len(r.sampled) for r in records)
            t["rounding.added"] += sum(len(r.added) for r in records)
        elif name == "ear.ear_decomposition":
            t["ear.ears"] += len(result.ears)
            t["ear.trivial"] += sum(1 for ear in result.ears if ear.trivial)
        elif name == "instance.verify_solution":
            t["instance.verify_solution.scenarios"] += len(result.matchings)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_return = self._on_return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = _caller(sys._getframe(1))
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, caller])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            on_return(name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "rapkit" or key.startswith("rapkit.")]
        for mod_name, fn_names in TRACED.items():
            home = sys.modules[f"rapkit.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.totals.clear()
        self._lp_sizes.clear()

    def summary(self) -> dict[str, float]:
        """Counts and self times of the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in TRACED_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for caller in MATCHING_CALLERS:
            out[f"{MATCHING}.from.{caller}.calls"] = 0
        exact_matchings = 0
        for i, (name, start, end, parent, caller) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            if name == MATCHING:
                key = caller if caller in MATCHING_CALLERS else "other"
                out[f"{MATCHING}.from.{key}.calls"] += 1
                p = parent
                while p >= 0 and spans[p][0] != "exact.solve_exact":
                    p = spans[p][3]
                exact_matchings += p >= 0
        t = self.totals
        for key in ("lp.pivots", "decompose.terms", "rounding.iterations", "ear.ears",
                    "instance.verify_solution.scenarios"):
            out[key] = t.get(key, 0)
        out["exact.matchings"] = exact_matchings
        sizes = self._lp_sizes
        out["lp.matrix_mb"] = max((b for b, _, _ in sizes), default=0) / 2**20
        out["lp.nnz_frac"] = (sum(nz for _, nz, _ in sizes) / sum(n for _, _, n in sizes)
                              if sizes else 0.0)
        out["rounding.kept_frac"] = (t["rounding.added"] / t["rounding.sampled"]
                                     if t.get("rounding.sampled") else 0.0)
        out["ear.trivial_frac"] = t["ear.trivial"] / t["ear.ears"] if t.get("ear.ears") else 0.0
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        with path.open("w") as fh:
            for i, (name, start, end, parent, caller) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "caller": caller}) + "\n")
