"""Seeded end-to-end benchmark of balregret.

Run from the repository root:

    python3 perfbench/run.py --workload iterative --seed 1 --seconds 18 \
        --trace 0

One process, one closed-loop client (each call starts when the previous one
returns), BLAS threads pinned to 1.  ``--trace 0`` times the workload and
prints the end-to-end metrics, in seconds at a fixed reference speed (see
REF_NOMINAL_S); ``--trace 1`` runs the list once traced,
each successful call again untraced, and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Workloads, metrics and caveats are described in README.md
next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Template repetitions per pass, sized so that one pass at the seed commit
# takes 20-25 s at the reference speed and holds more than 100 calls.
REPS = {"iterative": 11, "compact": 9, "adversary": 10, "criteria": 48,
        "scaled": 9}
SETUP_REPEATS = 5
# Share of the traced pass that is traced again to check that the counts
# repeat exactly.
REPEAT_SHARE = 0.2

# Host-speed reference.  On the shared host the benchmark was sized on, CPU
# speed moves between levels up to 1.5x apart for minutes at a time, which
# moved the timings of whole runs by a quarter.  Right before each timed
# call (and each set-up) the benchmark times a fixed piece of its own work,
# in the program's idiom: small numpy pivots driven from Python.  Reported
# times are the measured ones scaled by REF_NOMINAL_S over that reference
# time, that is, seconds at the speed where the reference takes
# REF_NOMINAL_S, about what it took at that host's fast level (2-core x86,
# Python 3.11, numpy 2.4).  No change to the program can move the reference.
REF_NOMINAL_S = 0.001
REF_REPEATS = 3
# Entries spread over [0.5, 1.5) without numpy.random, whose import would
# add to the peak resident memory the benchmark reports.
_REF_TABLEAU = np.arange(48 * 93).reshape(48, 93) * 0.618034 % 1.0 + 0.5


def _reference_work() -> float:
    acc = 0.0
    for k in range(40):
        t = _REF_TABLEAU.copy()
        r, c = k % 48, (7 * k) % 92
        t[r] /= t[r, c]
        col = t[:, c].copy()
        col[r] = 0.0
        nz = np.nonzero(col)[0]
        t[nz] -= np.outer(col[nz], t[r])
        cand = np.where(t[0] < 1.0)[0]
        acc += float(t[nz[0], cand[0] if len(cand) else 0])
        acc += sum(i * 0.5 for i in range(100))
    return acc


def _speed_scale() -> float:
    """REF_NOMINAL_S over the median time of REF_REPEATS reference runs."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return REF_NOMINAL_S / statistics.median(times)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import balregret from this checkout's ``src`` and nowhere else."""
    if not (SRC / "balregret" / "__init__.py").is_file():
        raise ImportError(f"no balregret package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import balregret

    if Path(balregret.__file__).resolve().parent != SRC / "balregret":
        raise ImportError(f"balregret imported from {balregret.__file__}")


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import balregret"], env=env,
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


def _setup(workload: str, seed: int):
    """Build the call list SETUP_REPEATS times; each repeat also times a
    fresh interpreter's import.  Returns the list and the median set-up,
    scaled to the reference speed."""
    from workloads import WORKLOADS, Streams

    workdir = OUT / f"{workload}-seed{seed}"
    times, calls = [], None
    for _ in range(SETUP_REPEATS):
        scale = _speed_scale()
        imported = _import_seconds()
        start = time.perf_counter()
        calls = WORKLOADS[workload](Streams(seed), REPS[workload], workdir)
        times.append((imported + time.perf_counter() - start) * scale)
    return calls, statistics.median(times)


class Pass:
    """Outcomes of the timed calls of a run, in call order."""

    def __init__(self) -> None:
        self.index: list[int] = []
        self.latency: list[float] = []
        self.scale: list[float] = []  # _speed_scale() right before the call
        self.summary: list[dict | None] = []
        self.error: list[str | None] = []
        self.marks: list[int] = []  # span count before each call, and after

    def call(self, calls, k: int) -> None:
        """Time calls[k]; a raise is recorded as the call's outcome."""
        call = calls[k]
        self.scale.append(_speed_scale())
        t0 = time.perf_counter()
        try:
            result = call.fn()
            error = None
        except Exception as exc:  # a failed call is data, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.latency.append(time.perf_counter() - t0)
        self.index.append(k)
        self.summary.append(None if error else call.summarize(result))
        self.error.append(error)


def _run_pass(calls, seconds: float) -> Pass:
    """Call the whole list, and again while another whole pass still fits
    in ``seconds``.  Whole passes keep every call equally represented."""
    out = Pass()
    start = time.perf_counter()
    passes = 0
    while True:
        for k in range(len(calls)):
            out.call(calls, k)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    return out


def _succeeded(run: Pass, j: int) -> bool:
    return run.error[j] is None and run.summary[j]["ok"]


def _run_paired(calls, tracer) -> tuple[Pass, Pass]:
    """One traced pass in which every call that succeeds runs again
    untraced right after.  Pairing the two runs of a call makes the
    overhead immune to the machine's speed drifting during the pass.
    Failed calls run once: a ``scaled`` failure can take 20 s."""
    traced, untraced = Pass(), Pass()
    for k in range(len(calls)):
        tracer.active = True
        traced.marks.append(len(tracer.spans))
        traced.call(calls, k)
        tracer.active = False
        if _succeeded(traced, k):
            untraced.call(calls, k)
    traced.marks.append(len(tracer.spans))
    return traced, untraced


def _judge(calls, run: Pass) -> tuple[list[bool], list[str], list[str]]:
    """Check every call of a run.  Returns whether each call failed, the
    failure lines and the rejections (wrong results); a rejected call also
    counts as failed."""
    first: dict[int, dict] = {}
    verdict: dict[int, str | None] = {}
    failures, rejected = [], []
    failed = []
    for k, summary, error in zip(run.index, run.summary, run.error):
        label = calls[k].label
        reason = None
        if error is not None:
            reason = f"raised {error}"
        elif not summary["ok"]:
            reason = "returned a non-optimal result"
        elif k in first:
            if summary != first[k]:
                reason = "differs from the first pass"
                rejected.append(f"{label}: {reason}")
            elif verdict[k]:
                reason = verdict[k]
        else:
            first[k] = summary
            verdict[k] = calls[k].check(summary)
            if verdict[k]:
                reason = f"rejected: {verdict[k]}"
                rejected.append(f"{label}: {verdict[k]}")
        failed.append(reason is not None)
        if reason:
            failures.append(f"{label}: {reason}")
    return failed, failures, rejected


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    v = sorted(values)
    return v[max(math.ceil(q * len(v)), 1) - 1]


def _end_to_end(run: Pass, failed: list[bool], setup_s: float) -> dict:
    """Speed is taken over the calls that succeeded.  A failure counts in
    ``ok_frac`` instead: how long it takes is erratic (a ``scaled`` call
    fails in 0.015 s or, under some renumberings, in 20 s).  Latencies are
    scaled to the reference speed; the measured ones go to standard
    error."""
    ok_raw = [t for t, bad in zip(run.latency, failed) if not bad]
    ok = [t * s for t, s, bad in zip(run.latency, run.scale, failed)
          if not bad]
    above_p90 = len(ok) - math.ceil(0.9 * len(ok))
    print(f"perfbench: {len(run.latency)} calls, {len(ok)} succeeded, "
          f"{above_p90} latency samples above p90", file=sys.stderr)
    if ok:
        print(f"perfbench: measured seconds: solves_per_s "
              f"{len(ok_raw) / sum(ok_raw):.6g}, solve_p50_s "
              f"{_quantile(ok_raw, 0.5):.6g}, solve_p90_s "
              f"{_quantile(ok_raw, 0.9):.6g}; median speed scale "
              f"{statistics.median(run.scale):.4g}", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (len(ok) / sum(ok) if ok else 0.0, "1/s"),
        "solve_p50_s": (_quantile(ok, 0.5) if ok else 0.0, "s"),
        "solve_p90_s": (_quantile(ok, 0.9) if ok else 0.0, "s"),
        "ok_frac": (len(ok) / len(run.latency), "ratio"),
    }


def _trace(calls, spans_path: Path):
    """The paired traced and untraced pass, then a traced repeat of the
    calls among the first that succeeded.  Returns the traced pass, the
    per-layer metrics and any mismatch between the runs of a call."""
    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    try:
        traced, untraced = _run_paired(calls, tracer)
        spans = list(tracer.spans)
        tracer.reset()
        again = Pass()
        tracer.active = True
        for k in range(max(1, int(len(calls) * REPEAT_SHARE))):
            if _succeeded(traced, k):
                again.marks.append(len(tracer.spans))
                again.call(calls, k)
                again.marks.append(len(tracer.spans))
        tracer.active = False
    finally:
        tracer.uninstall()

    mismatches = []
    for j, k in enumerate(untraced.index):
        if untraced.summary[j] != traced.summary[k]:
            mismatches.append(f"{calls[k].label}: untraced result differs")
    for j, k in enumerate(again.index):
        a = tr.call_counts(spans, traced.marks[k], traced.marks[k + 1])
        b = tr.call_counts(tracer.spans, again.marks[2 * j],
                           again.marks[2 * j + 1])
        if a != b:
            mismatches.append(f"{calls[k].label}: counts {a} then {b}")

    metrics = {k: (v, _unit(k)) for k, v in tr.layer_metrics(spans).items()}
    traced_s = sum(traced.latency)
    paired_s = sum(traced.latency[k] for k in untraced.index)
    untraced_s = sum(untraced.latency)
    top = sum(s[tr.END] - s[tr.START] for s in spans if s[tr.PARENT] < 0)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_frac"] = (paired_s / untraced_s - 1, "ratio")
    metrics["trace.self_sum_frac"] = (top / traced_s, "ratio")
    tr.write_spans(spans, spans_path)
    return traced, metrics, mismatches


def _unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("_mb_computed"):
        return "MB"
    return "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(REPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")

    calls, setup_s = _setup(args.workload, args.seed)
    if args.trace:
        run, metrics, mismatches = _trace(
            calls, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        run = _run_pass(calls, args.seconds)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures, rejected = _judge(calls, run)
    if args.trace:
        rejected += mismatches
        metrics["failed_frac"] = (sum(failed) / len(failed), "ratio")
    else:
        metrics = _end_to_end(run, failed, setup_s)
        metrics["peak_rss_mb"] = (peak_mib, "MiB")
    for line in failures:
        print(f"perfbench: failed {line}", file=sys.stderr)
    for line in rejected:
        print(f"perfbench: WRONG {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not rejected,
        "attempted": len(run.latency),
        "failed": sum(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
