"""Outside-in span tracing of the balregret layers.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent) while the tracer
is active.  Callers that bound a function with ``from ... import`` or kept
it in a module-level table (``master.ADVERSARY_METHODS``) hold their own
reference, so every module attribute and table entry that is the original
function is replaced too.  Nothing under ``src/`` is edited; ``uninstall``
puts every original back.

Spans stay in memory; ``write_spans`` dumps them as JSON lines at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("core", "milp", "balancing", "adversarial", "master", "polyalg",
          "evaluation", "instances", "cli")

# Span fields: name, start, end, parent index (-1 at top level), attrs.
NAME, START, END, PARENT, ATTRS = range(5)


def _standard_form_shape(model, fixed) -> tuple[int, int]:
    """Rows and columns of the standard form ``milp._standardize`` builds
    for (model, fixed): fixed variables vanish, free ones split in two,
    and every finite upper bound adds a row."""
    fixed = fixed or {}
    rows, cols = len(model.constraints), 0
    for j, var in enumerate(model.variables):
        if j in fixed:
            continue
        cols += 2 if var.lb == -float("inf") else 1
        if var.ub < float("inf"):
            rows += 1
    return rows, cols


def _before_solve_lp(args, kwargs) -> dict:
    model = args[0]
    fixed = args[1] if len(args) > 1 else kwargs.get("fixed")
    rows, cols = _standard_form_shape(model, fixed)
    return {"rows": rows, "cols": cols}


def _before_build_master(args, kwargs) -> dict:
    return {"pool": len(args[1])}


def _before_optimize_criterion(args, kwargs) -> dict:
    inst, criterion = args[0], args[1]
    b = inst.budgets
    return {"key": [inst.name, criterion, b.gamma, b.gamma_prime]}


def _after_status(result, attrs: dict) -> None:
    attrs["status"] = result.status


def _after_iterations(result, attrs: dict) -> None:
    attrs["iterations"] = result.iterations


BEFORE = {
    "milp.solve_lp": _before_solve_lp,
    "master.build_master": _before_build_master,
    "evaluation.optimize_criterion": _before_optimize_criterion,
}
AFTER = {
    "milp.solve_lp": _after_status,
    "master.solve_iterative": _after_iterations,
}


class Tracer:
    """Span recorder around the public functions of the layer modules."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                stack.pop()
                span[ATTRS] = {**(attrs or {}), "error": type(exc).__name__}
                raise
            span[END] = clock()
            stack.pop()
            if after:
                if attrs is None:
                    attrs = span[ATTRS] = {}
                after(result, attrs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is
        bound inside the package."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"balregret.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name + ".").startswith("balregret."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value, False))
                    setattr(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._patched.append((value, key, entry, True))
                            value[key] = wrappers[id(entry)]

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patched):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON object per span, in start order; ``parent`` is the index of
    the enclosing span or -1."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for name, start, end, parent, attrs in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "attrs": attrs}) + "\n")


def _parent_name(spans: list[list], i: int):
    p = spans[i][PARENT]
    return spans[p][NAME] if p >= 0 else None


def _optimize_repeats(spans: list[list], lo: int, hi: int) -> tuple[int, int]:
    """(repeated, total) ``optimize_criterion`` calls among spans[lo:hi]; a
    call repeats when the same caller span already optimized the same
    (instance, criterion, budgets)."""
    seen: set = set()
    repeated = total = 0
    for i in range(lo, hi):
        span = spans[i]
        if span[NAME] != "evaluation.optimize_criterion":
            continue
        total += 1
        key = (span[PARENT], *span[ATTRS]["key"])
        if key in seen:
            repeated += 1
        seen.add(key)
    return repeated, total


def call_counts(spans: list[list], lo: int, hi: int) -> tuple[int, int, int]:
    """Deterministic counts of one call's spans[lo:hi]: LPs solved, master
    iterations, and repeated criterion optimizations."""
    lps = iterations = 0
    for i in range(lo, hi):
        name = spans[i][NAME]
        if name == "milp.solve_lp":
            lps += 1
        elif name == "master.solve_iterative" and spans[i][ATTRS]:
            iterations += spans[i][ATTRS].get("iterations", 0)
    return lps, iterations, _optimize_repeats(spans, lo, hi)[0]


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    v = sorted(values)
    m = len(v) // 2
    return v[m] if len(v) % 2 else (v[m - 1] + v[m]) / 2


# Per-layer metric name -> span name whose calls and inclusive time it reads.
CALL_METRICS = {
    "milp.solve_lp": "milp.solve_lp",
    "milp.solve_milp": "milp.solve_milp",
    "master.build_master": "master.build_master",
    "adversarial.dp": "adversarial.adversarial_selection_dp",
    "adversarial.milp": "adversarial.adversarial_milp",
    "adversarial.bruteforce": "adversarial.adversarial_bruteforce",
    "balancing.solve_balancing": "balancing.solve_balancing",
    "core.nominal_solve": "core.nominal_solve",
    "core.enumerate_solutions": "core.enumerate_solutions",
    "polyalg.regret_poly": "polyalg.solve_regret_budgeted_mrs",
    "evaluation.optimize_criterion": "evaluation.optimize_criterion",
    "evaluation.eval_criterion": "evaluation.eval_criterion",
    "instances.load_instance": "instances.load_instance",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, inclusive times, ratios and self times."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        incl[s[NAME]] = incl.get(s[NAME], 0.0) + dur[i]
        self_s[s[NAME].split(".")[0]] += dur[i] - child[i]

    out: dict[str, float] = {}
    for metric, name in CALL_METRICS.items():
        out[f"{metric}.calls"] = calls.get(name, 0)
        out[f"{metric}.s"] = incl.get(name, 0.0)

    lp_idx = [i for i, s in enumerate(spans) if s[NAME] == "milp.solve_lp"]
    n_lp, n_milp = len(lp_idx), calls.get("milp.solve_milp", 0)
    out["milp.nodes_per_milp"] = n_lp / n_milp if n_milp else 0.0
    infeasible = sum(1 for i in lp_idx if spans[i][ATTRS].get("status")
                     == "infeasible")
    out["milp.lp_infeasible_frac"] = infeasible / n_lp if n_lp else 0.0
    for dim in ("rows", "cols"):
        out[f"milp.lp_{dim}_p50"] = _median(
            [spans[i][ATTRS][dim] for i in lp_idx])
    out["milp.tableau_mb_computed"] = max(
        (8 * spans[i][ATTRS]["rows"] * spans[i][ATTRS]["cols"] / 1e6
         for i in lp_idx), default=0.0)

    # Grandparent of an LP tells whose MILP it belongs to.
    lp_owner = [_parent_name(spans, spans[i][PARENT]) for i in lp_idx]
    iterations = sum((s[ATTRS] or {}).get("iterations", 0) for s in spans
                     if s[NAME] == "master.solve_iterative")
    out["master.iterations"] = iterations
    out["master.pool_size_max"] = max(
        (s[ATTRS]["pool"] for s in spans if s[NAME] == "master.build_master"),
        default=0)
    master_lps = lp_owner.count("master.solve_iterative")
    out["master.lp_per_iteration"] = (master_lps / iterations
                                      if iterations else 0.0)
    out["master.master_s"] = sum(
        dur[i] for i, s in enumerate(spans) if s[NAME] == "milp.solve_milp"
        and _parent_name(spans, i) == "master.solve_iterative")
    out["master.adversary_s"] = sum(
        dur[i] for i, s in enumerate(spans)
        if s[NAME].startswith("adversarial.")
        and _parent_name(spans, i) == "master.solve_iterative")
    adv_milp = calls.get("adversarial.adversarial_milp", 0)
    out["adversarial.milp.lp_per_call"] = (
        lp_owner.count("adversarial.adversarial_milp") / adv_milp
        if adv_milp else 0.0)

    repeated, total = _optimize_repeats(spans, 0, n)
    out["evaluation.optimize_repeat_frac"] = repeated / total if total else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out["trace.spans"] = n
    return out
