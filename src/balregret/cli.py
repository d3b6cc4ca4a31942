"""Command-line interface.

Subcommands: generate, solve, evaluate, crosscheck, ingest-graph.  Data
goes to files, logs to stderr.  Exit codes: 0 ok, 1 usage, 2 infeasible,
scale guard or internal error, 3 time limit (incumbent still written), 4
crosscheck disagreement.
"""

from __future__ import annotations

import argparse
import functools
import glob
import json
import logging
import sys
from pathlib import Path

from . import __version__, master, polyalg
from .core import (
    InfeasibleError,
    InputError,
    Instance,
    InternalError,
    MultiRepSelection,
    ScaleError,
)
from .evaluation import criteria_matrix
from .instances import (
    SplitMix64,
    build_equipartition_reduction,
    build_partition_reduction,
    gen_knapsack,
    gen_selection,
    ingest_graph,
    load_instance,
    save_instance,
)

log = logging.getLogger("balregret")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3
EXIT_DISAGREEMENT = 4

_BRUTEFORCE_CAP = 100_000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(InputError):
    pass


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> _Parser:
    p = _Parser(prog="balregret")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a random or reduction instance")
    g.add_argument("--family", required=True,
                   choices=["selection", "knapsack", "equipartition",
                            "partition"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--gamma", type=int, default=2)
    g.add_argument("--gamma-prime", type=int, default=1)
    g.add_argument("--capacity-rule", default="half",
                   help="knapsack capacity: 'half' or 'value:C'")
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="solve one instance file")
    s.add_argument("--instance", required=True)
    s.add_argument("--method", required=True,
                   choices=["iterative", "enumeration", "compact",
                            "bruteforce", "regret-poly"])
    s.add_argument("--adversary", choices=list(master.ADVERSARY_METHODS))
    s.add_argument("--time-limit", type=float,
                   default=master.DEFAULT_TIME_LIMIT)
    s.add_argument("--out", required=True)

    e = sub.add_parser("evaluate", help="criteria matrix over instance files")
    e.add_argument("--instances", required=True, help="glob pattern")
    e.add_argument("--gamma-prime-range", help="A..B inclusive")
    e.add_argument("--out", required=True)

    c = sub.add_parser("crosscheck",
                       help="run all applicable methods and compare")
    c.add_argument("--instances", required=True, help="glob pattern")
    c.add_argument("--max-n", type=int, default=12)

    i = sub.add_parser("ingest-graph", help="CSV scenarios to instances")
    i.add_argument("--edges", required=True)
    i.add_argument("--pairs", required=True)
    i.add_argument("--out", required=True, help="output directory")
    return p


def _cmd_generate(args) -> int:
    if args.family == "selection":
        inst = gen_selection(args.n, args.seed, gamma=args.gamma,
                             gamma_prime=args.gamma_prime)
    elif args.family == "knapsack":
        cap = None
        if args.capacity_rule != "half":
            if not args.capacity_rule.startswith("value:"):
                raise _UsageError("capacity rule must be half or value:C")
            try:
                cap = int(args.capacity_rule.split(":", 1)[1])
            except ValueError:
                raise _UsageError("capacity rule must be half or "
                                  "value:C") from None
        inst = gen_knapsack(args.n, args.seed, gamma=args.gamma,
                            gamma_prime=args.gamma_prime, capacity=cap)
    else:
        rng = SplitMix64(args.seed)
        weights = tuple(rng.randint(1, 9) for _ in range(args.n))
        if args.family == "equipartition":
            inst, threshold = build_equipartition_reduction(weights)
        else:
            inst, threshold = build_partition_reduction(weights)
        log.info("weights %s, certified threshold %d", weights, threshold)
    save_instance(inst, args.out)
    log.info("seed %d -> %s (%s)", args.seed, args.out, inst.name)
    return EXIT_OK


def _solve(inst: Instance, method: str, adversary: str | None,
           time_limit: float):
    if method == "iterative":
        return master.solve_iterative(inst, adversary=adversary,
                                      time_limit=time_limit)
    if method == "enumeration":
        return master.solve_enumeration(inst)
    if method == "compact":
        return master.solve_compact_mrs(inst)
    if method == "bruteforce":
        return master.solve_bruteforce(inst)
    return polyalg.solve_regret_budgeted_mrs(inst)


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    report = _solve(inst, args.method, args.adversary, args.time_limit)
    payload = {"instance": inst.name, "version": __version__}
    payload.update(report.to_dict())
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    log.info("%s via %s: value %d", inst.name or args.instance,
             report.method, report.value)
    if not report.optimal:
        log.warning("stopped at the limit; incumbent written with gap %g",
                    report.gap)
        return EXIT_TIME_LIMIT
    return EXIT_OK


def _load_glob(pattern: str) -> list[Instance]:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise _UsageError(f"no instance files match {pattern!r}")
    return [load_instance(p) for p in paths]


def _cmd_evaluate(args) -> int:
    rng = None
    if args.gamma_prime_range:
        try:
            a, b = (int(v) for v in args.gamma_prime_range.split(".."))
        except ValueError:
            raise _UsageError("range must look like A..B") from None
        if not 0 <= a <= b:
            raise _UsageError(f"range {a}..{b} needs 0 <= A <= B")
        rng = range(a, b + 1)
    batch = _load_glob(args.instances)
    matrix = criteria_matrix(batch, rng)
    Path(args.out).write_text(matrix.to_csv())
    log.info("wrote %d x %d matrix over %d instances to %s",
             len(matrix.rows), len(matrix.cols), matrix.instances, args.out)
    return EXIT_OK


def _crosscheck_values(inst: Instance) -> dict[str, int]:
    """Value by method.  The two enumerating reference methods are skipped
    with one INFO line when the instance is too large to enumerate."""
    methods = ["iterative", "enumeration", "bruteforce"]
    if isinstance(inst.feasible, MultiRepSelection):
        methods.append("compact")
        if inst.budgets.gamma_prime == 0:
            methods.append("regret-poly")
    values = {}
    for m in methods:
        try:
            if (m == "bruteforce"
                    and inst.feasible.solution_count() > _BRUTEFORCE_CAP):
                continue
            values[m] = _solve(inst, m, None, master.DEFAULT_TIME_LIMIT).value
        except ScaleError as exc:
            if m not in ("enumeration", "bruteforce"):
                raise
            log.info("%s %s skipped: %s", inst.name, m, exc)
    return values


def _cmd_crosscheck(args) -> int:
    disagreements = 0
    for inst in _load_glob(args.instances):
        if inst.n > args.max_n:
            log.info("%s skipped (n=%d > %d)", inst.name, inst.n, args.max_n)
            continue
        values = _crosscheck_values(inst)
        if len(set(values.values())) > 1:
            disagreements += 1
            log.error("%s disagreement: %s", inst.name, values)
        else:
            log.info("%s ok: value %d across %s", inst.name,
                     next(iter(values.values())), sorted(values))
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _cmd_ingest(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    batch = ingest_graph(args.edges, args.pairs)
    for inst in batch:
        save_instance(inst, out / f"{inst.name}.json")
    log.info("wrote %d instances to %s", len(batch), out)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "crosscheck": _cmd_crosscheck,
    "ingest-graph": _cmd_ingest,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        log.error("usage: %s", exc)
        return EXIT_USAGE
    except InputError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (InfeasibleError, ScaleError) as exc:
        log.error("%s", exc)
        return EXIT_INFEASIBLE
    except InternalError as exc:
        log.error("internal error: %s", exc)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
