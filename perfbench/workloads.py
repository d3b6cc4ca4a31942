"""The benchmark workloads: seeded call lists and their checks.

Every workload is a fixed template of strata (family, size, budgets,
method), repeated a fixed number of times.  Instance data, and the
``adversary`` workload's random first-stage solutions, come from a corpus
stream with a fixed seed, so every run solves the same problems.  The
run's seed renumbers the items of every instance and its solutions, and
orders the list.  The corpus is fixed because solve times are heavy-tailed
in the costs: with costs drawn from the run's seed, the same template took
15.6-20.7 s per pass across three seeds, a spread no run of about 100
calls can hold within a 25% bound.  Sizes were picked by parameter so that
one pass holds more than 100 calls within the run length (at least ten
latency samples above p90); no instance is kept or dropped by its outcome.

A call's ``summarize`` runs right after the clock stops and reduces the
result to plain data; ``check`` runs on that data after the timed pass.
``check`` returns a reason when it rejects the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from balregret import adversarial, cli, core, evaluation, master
from balregret.balancing import solve_balancing
from balregret.core import BinarySolution, Instance, Knapsack, Scenario
from balregret.instances import (
    SplitMix64,
    gen_knapsack,
    gen_selection,
    load_instance,
    save_instance,
)

from gen import (
    draw_seed,
    gen_layered_path,
    gen_multi_selection,
    relabel,
    scaled,
    shuffle,
)

CORPUS_SEED = 2111_12470


class Streams:
    """The fixed corpus stream, which draws instance data, and the run's
    seeded stream, which draws everything else."""

    def __init__(self, seed: int) -> None:
        self.corpus = SplitMix64(CORPUS_SEED)
        self.seeded = SplitMix64(seed)

    def instance(self, make: Callable[[int], Instance]) -> Instance:
        """``make(generator_seed)`` from the corpus, items renumbered by the
        run's seed."""
        return relabel(self.seeded, make(draw_seed(self.corpus)))[0]

    def instance_and_xs(self, make: Callable[[int], Instance], kinds: str
                        ) -> tuple[Instance, list[BinarySolution]]:
        """An instance with one first-stage solution per letter of
        ``kinds``: "n" for the nominal solution, "r" for a random feasible
        one drawn from the corpus.  Knapsack always gets random ones: its
        nominal solution is the empty packing, whose value is 0."""
        base = make(draw_seed(self.corpus))
        if isinstance(base.feasible, Knapsack):
            kinds = "r" * len(kinds)
        randoms = [_random_x(self.corpus, base) for k in kinds if k == "r"]
        inst, moved = relabel(self.seeded, base, tuple(randoms))
        xs = [_nominal_x(inst) if k == "n" else moved.pop(0) for k in kinds]
        return inst, xs


@dataclass
class Call:
    label: str
    fn: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], Optional[str]]


# --- exact references used by the checks --------------------------------


def _brute_value(inst: Instance) -> int:
    return master.solve_bruteforce(inst).value


def _value_of(inst: Instance, x: BinarySolution) -> int:
    return adversarial.adversarial_bruteforce(inst, x).value


def _recompute(inst: Instance, x: BinarySolution, cert) -> Optional[str]:
    """Certificate check: a feasible adversary pick, budgets respected, an
    optimal balancing response, and the stated value re-derived from the
    objective."""
    c, d = inst.costs.c_hat, inst.costs.d
    y, delta, eps = cert["y"], cert["delta"], cert["eps"]
    if not inst.feasible.is_feasible(BinarySolution(y)):
        return "certificate y infeasible"
    if sum(delta) > inst.budgets.gamma or sum(eps) > inst.budgets.gamma_prime:
        return "certificate exceeds a budget"
    _, best = solve_balancing(inst.costs, inst.budgets.gamma_prime, x,
                              Scenario(delta), BinarySolution(y))
    value = sum((c[i] + d[i] * delta[i] + d[i] * eps[i]) * (x.x[i] - y[i])
                for i in range(inst.n))
    if value != cert["value"]:
        return f"certificate value {cert['value']} != recomputed {value}"
    if value != best:
        return "balancing response is not optimal"
    return None


# --- solve workloads: iterative and compact ------------------------------


def _summarize_report(rep) -> dict:
    return {"ok": bool(rep.optimal), "value": rep.value,
            "x": list(rep.x.indices())}


def _solve_call(label: str, inst: Instance, method: str, **kwargs) -> Call:
    """A ``master`` solve, looked up at call time so that a tracer's
    wrapper is the function called."""
    def check(s: dict) -> Optional[str]:
        x = BinarySolution.from_indices(s["x"], inst.n)
        if not inst.feasible.is_feasible(x):
            return "reported x is infeasible"
        ref = _brute_value(inst)
        if s["value"] != ref:
            return f"value {s['value']} != brute force {ref}"
        got = _value_of(inst, x)
        if got != ref:
            return f"reported x attains {got}, not the optimum {ref}"
        return None

    return Call(f"{label} {inst.name}",
                lambda: getattr(master, method)(inst, **kwargs),
                _summarize_report, check)


# (n, partitions, gamma, gamma_prime) per selection stratum.  Single
# partitions stop at n = 7: from n = 8 on, one solve in a few dozen takes
# 15-97 s, longer than a whole run.
_ITERATIVE_SELECTION = (
    [(7, 1, g, 0) for g in (2, 3, 4)]
    + [(8, p, g, gp) for p in (2, 3) for g in (2, 3, 4) for gp in (0, 1)]
    + [(9, 2, 2, 0), (9, 3, 3, 0), (10, 3, 3, 0)]
)
_ITERATIVE_PATHS = 5


def build_iterative(rng: Streams, reps: int, workdir: Path) -> list[Call]:
    calls = []
    for _ in range(reps):
        for n, parts, g, gp in _ITERATIVE_SELECTION:
            inst = _selection(rng, n, parts, g, gp)
            calls.append(_solve_call(f"sel-n{n}-p{parts}-g{g}-gp{gp}",
                                     inst, "solve_iterative", adversary="dp"))
        for _ in range(_ITERATIVE_PATHS):
            inst = rng.instance(gen_layered_path)
            calls.append(_solve_call("path-milp", inst, "solve_iterative",
                                     adversary="milp"))
    return shuffle(rng.seeded, calls)


def _selection(rng: Streams, n: int, parts: int, gamma: int,
               gamma_prime: int) -> Instance:
    if parts == 1:
        return rng.instance(lambda s: gen_selection(
            n, s, gamma=gamma, gamma_prime=gamma_prime))
    return rng.instance(lambda s: gen_multi_selection(
        n, parts, s, gamma=gamma, gamma_prime=gamma_prime))


# (n, partitions, gamma_prime) per compact stratum; gamma is 3 throughout.
_COMPACT = (
    [(6, p, gp) for p in (1, 2, 3) for gp in (0, 1, 2)]
    + [(7, p, gp) for p in (1, 2, 3) for gp in (0, 1)]
    + [(8, 1, 0), (8, 3, 0), (9, 3, 0)]
)
# (n, gamma_prime) per enumeration stratum; gamma is 2 throughout.
_ENUMERATION = [(5, 0), (5, 1), (5, 2), (6, 0)]
# Cost factors of the ``scaled`` workload: n = 6, single partition.
_SCALED = (10**5, 10**6)


def build_compact(rng: Streams, reps: int, workdir: Path) -> list[Call]:
    calls = []
    for _ in range(reps):
        for n, parts, gp in _COMPACT:
            inst = _selection(rng, n, parts, 3, gp)
            calls.append(_solve_call(f"compact-n{n}-p{parts}-gp{gp}", inst,
                                     "solve_compact_mrs"))
        for n, gp in _ENUMERATION:
            inst = rng.instance(lambda s: gen_selection(
                n, s, gamma=2, gamma_prime=gp))
            calls.append(_solve_call(f"enumeration-n{n}-gp{gp}", inst,
                                     "solve_enumeration"))
    return shuffle(rng.seeded, calls)


def build_scaled(rng: Streams, reps: int, workdir: Path) -> list[Call]:
    """The compact solve on costs scaled by 10^5 and 10^6, well inside what
    the solver's scale check admits.  It shows the known numeric defect:
    many of these calls fail or return a wrong value, so the workload is
    run by hand and kept out of the timed benchmark, whose workloads must
    not fail."""
    calls = []
    for _ in range(reps):
        for factor in _SCALED:
            inst = rng.instance(lambda s: scaled(
                gen_selection(6, s, gamma=2, gamma_prime=1), factor))
            calls.append(_solve_call(f"compact-scaled-x{factor}", inst,
                                     "solve_compact_mrs"))
    return shuffle(rng.seeded, calls)


# --- adversary workload --------------------------------------------------


def _summarize_cert(cert) -> dict:
    return {"ok": bool(cert.optimal), "value": cert.value,
            "y": list(cert.y.x), "delta": list(cert.delta.delta),
            "eps": list(cert.epsilon.delta)}


def _random_x(rng: SplitMix64, inst: Instance) -> BinarySolution:
    """A seeded feasible first-stage solution: the nominal optimum under
    random costs (negative for knapsack, so that items get packed)."""
    sign = -1 if isinstance(inst.feasible, Knapsack) else 1
    costs = [sign * rng.randint(1, 100) for _ in range(inst.n)]
    return inst.feasible.nominal_solve(costs)


def _nominal_x(inst: Instance) -> BinarySolution:
    return inst.feasible.nominal_solve(inst.costs.c_hat)


def _adversary_call(label: str, inst: Instance, x: BinarySolution,
                    method: str, check) -> Call:
    fn_name = {"dp": "adversarial_selection_dp",
               "milp": "adversarial_milp"}[method]
    return Call(f"{label} {inst.name}",
                lambda: getattr(adversarial, fn_name)(inst, x),
                _summarize_cert,
                lambda s: _recompute(inst, x, s) or check(s))


def _agrees_with(ref: Callable[[], int]):
    def check(s: dict) -> Optional[str]:
        want = ref()
        if s["value"] != want:
            return f"value {s['value']} != reference {want}"
        return None
    return check


def _no_extra_check(s: dict) -> Optional[str]:
    return None


# (n, gamma, gamma_prime) per stratum.
_DP_SELECTION = [(40, 3, 1), (40, 5, 2), (50, 5, 2), (60, 3, 1)]
_MILP_SELECTION = [(16, 3, 1), (20, 3, 1), (24, 3, 1)]
_MILP_KNAPSACK = [(14, 2, 1), (16, 2, 1), (18, 2, 1)]
_MILP_PATHS = 2
_BRUTE_KNAPSACK = [(12, 2, 1), (14, 2, 1)]


def build_adversary(rng: Streams, reps: int, workdir: Path) -> list[Call]:
    calls: list[Call] = []
    for _ in range(reps):
        for kind in "nr":
            for n, g, gp in _DP_SELECTION:
                inst, (x,) = rng.instance_and_xs(lambda s: gen_selection(
                    n, s, gamma=g, gamma_prime=gp), kind)
                calls.append(_adversary_call(f"dp-sel-n{n}-{kind}", inst, x,
                                             "dp", _no_extra_check))
            for n, g, gp in _MILP_SELECTION:
                inst, (x,) = rng.instance_and_xs(lambda s: gen_selection(
                    n, s, gamma=g, gamma_prime=gp), kind)
                dp = _agrees_with(
                    lambda i=inst, x=x:
                    adversarial.adversarial_selection_dp(i, x).value)
                calls.append(_adversary_call(f"milp-sel-n{n}-{kind}", inst, x,
                                             "milp", dp))
            for n, g, gp in _MILP_KNAPSACK:
                inst, (x,) = rng.instance_and_xs(lambda s: gen_knapsack(
                    n, s, gamma=g, gamma_prime=gp), kind)
                ref = _agrees_with(lambda i=inst, x=x: _value_of(i, x)) \
                    if n <= 14 else _no_extra_check
                calls.append(_adversary_call(f"milp-knap-n{n}", inst, x,
                                             "milp", ref))
            for _ in range(_MILP_PATHS):
                inst, (x,) = rng.instance_and_xs(gen_layered_path, kind)
                calls.append(_adversary_call(
                    f"milp-path-{kind}", inst, x, "milp",
                    _agrees_with(lambda i=inst, x=x: _value_of(i, x))))
        for n, g, gp in _BRUTE_KNAPSACK:
            inst, xs = rng.instance_and_xs(lambda s: gen_knapsack(
                n, s, gamma=g, gamma_prime=gp), "rr")
            calls.append(_brute_call(f"brute-knap-n{n}", inst, xs))
    return shuffle(rng.seeded, calls)


def _brute_call(label: str, inst: Instance, xs: list[BinarySolution]) -> Call:
    """One enumeration of the adversary's solutions shared by several x."""
    def fn():
        pool = core.enumerate_solutions(inst.feasible)
        return [adversarial.adversarial_bruteforce(inst, x, pool) for x in xs]

    def summarize(certs) -> dict:
        parts = [_summarize_cert(c) for c in certs]
        return {"ok": all(p["ok"] for p in parts), "certs": parts}

    def check(s: dict) -> Optional[str]:
        for x, cert in zip(xs, s["certs"]):
            reason = _recompute(inst, x, cert)
            if reason:
                return reason
            want = adversarial.adversarial_milp(inst, x).value
            if cert["value"] != want:
                return f"value {cert['value']} != MILP {want}"
        return None

    return Call(f"{label} {inst.name}", fn, summarize, check)


# --- criteria workload ---------------------------------------------------

# (n, gamma, gamma_prime) per criteria stratum.  n stops at 7: the BR rows
# run solve_iterative, and from n = 8 on one file in about a hundred takes
# minutes (277 s measured).
_CRITERIA = [(n, g, gp) for n in (6, 7)
             for g, gp in ((2, 1), (3, 1), (2, 2), (3, 0))]
_GP_RANGE = (0, 2)
# Every call's CSV gets the zero-diagonal check; every eighth is also
# recomputed in process, which costs as much as the call itself.
_LIBRARY_CHECK_EVERY = 8


def build_criteria(rng: Streams, reps: int, workdir: Path) -> list[Call]:
    workdir.mkdir(parents=True, exist_ok=True)
    calls = []
    k = 0
    for _ in range(reps):
        for n, g, gp in _CRITERIA:
            inst = rng.instance(lambda s: gen_selection(
                n, s, gamma=g, gamma_prime=gp))
            path = workdir / f"instance-{k:04d}.json"
            save_instance(inst, path)
            calls.append(_criteria_call(
                f"criteria-n{n}-g{g}-gp{gp}", path, inst,
                k % _LIBRARY_CHECK_EVERY == 0))
            k += 1
    return shuffle(rng.seeded, calls)


def _criteria_call(label: str, path: Path, inst: Instance,
                   library_check: bool) -> Call:
    out = path.with_suffix(".csv")
    argv = ["evaluate", "--instances", str(path),
            "--gamma-prime-range", f"{_GP_RANGE[0]}..{_GP_RANGE[1]}",
            "--out", str(out)]

    def summarize(code) -> dict:
        return {"ok": code == 0,
                "csv": out.read_text() if code == 0 else ""}

    def check(s: dict) -> Optional[str]:
        reason = _check_csv(s["csv"], inst)
        if reason is None and library_check:
            reason = _check_against_library(s, path)
        return reason

    return Call(f"{label} {inst.name}", lambda: cli.main(argv), summarize,
                check)


def _check_csv(text: str, inst: Instance) -> Optional[str]:
    """Each criterion's optimizer scores 0 under its own criterion, and so
    does the BR row at the instance's own balancing budget."""
    cells = {}
    for line in text.splitlines()[1:]:
        row, col, mean, excluded = line.split(",")
        cells[row, col] = (mean, excluded)
    own = [(c, c) for c in evaluation.CRITERIA]
    gp = inst.budgets.gamma_prime
    if _GP_RANGE[0] <= gp <= _GP_RANGE[1]:
        own.append((f"BR({gp})", "BR"))
    for key in own:
        if cells.get(key) != ("0.000000", "0"):
            return f"cell {key} is {cells.get(key)}, expected zero"
    return None


def _check_against_library(s: dict, path: Path) -> Optional[str]:
    lo, hi = _GP_RANGE
    matrix = evaluation.criteria_matrix([load_instance(path)],
                                        range(lo, hi + 1))
    if matrix.to_csv() != s["csv"]:
        return "CLI CSV differs from an in-process criteria_matrix"
    return None


WORKLOADS = {
    "iterative": build_iterative,
    "compact": build_compact,
    "adversary": build_adversary,
    "criteria": build_criteria,
    "scaled": build_scaled,
}
