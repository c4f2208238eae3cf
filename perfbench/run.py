#!/usr/bin/env python3
"""sketchcast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``sketchcast`` from
its ``src/``; there is nothing to build.  The workload runs closed-loop in
this one process, one ``run_experiment`` at a time, with every thread
count pinned to 1.

A run's inputs are the workload's fixed number of passes (see
workloads.py), all seeded from ``--seed``.  The run plays them once, then
plays them again from the start until ``--seconds`` have gone by; an
experiment that failed the first time is not played again.  Every trial of
the first round is scored against the exact oracles: a spec whose success
count is significantly below ``harness.CHECK_THRESHOLDS`` (see
``below_floor``), an hh trial that misses a planted heavy hitter, or a
repeat whose outcome differs from the first round makes the run
incorrect.  ``attempted`` and ``failed`` count the trials of the first
round, so they depend only on the seed.

Times are scaled to a reference speed (see ``calibrate``): the host's CPU
speed changes by up to 1.7x for seconds to minutes at a time, and scaling
each experiment by a calibration loop timed around it cancels most of
that.  The raw times are kept in perfbench/out/.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` plays each pass twice, untraced and under the span tracer,
alternating which goes first, and reports the per-layer metrics plus the
tracing overhead between the two.

Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  The full result,
with the machine stamp and the raw spans of the first traced pass, is
written to perfbench/out/.  Exit status: 0 when the outputs are correct,
1 when they are not, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

PINNED_ENV = {
    "SKETCHCAST_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Wall-clock limit on one run_experiment call.  The longest experiment of
# any workload takes under 2 s; a few seeds drive the numpy Morris merge
# kernel into a loop that runs for minutes (see README.md), and without a
# limit a run could not finish in bounded time.
EXPERIMENT_LIMIT_S = 6.0

# Fresh interpreters timed importing sketchcast, besides this process.  They
# are spread over the run, between passes, so that they sample the machine
# at different moments.
IMPORT_PROBES = 8
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
         "import sketchcast; print(time.perf_counter() - t)")

# Reported times are scaled to the speed at which calibrate() returns this
# many seconds, about what a 2-vCPU x86-64 VM gives in its faster state.
REFERENCE_CALIBRATION_S = 1.6e-3


class ExperimentTimeout(Exception):
    """An experiment ran past ``EXPERIMENT_LIMIT_S``."""


def _timeout(signum, frame):
    raise ExperimentTimeout(f"experiment ran past {EXPERIMENT_LIMIT_S} s")


def _calibration_work() -> float:
    """Fixed work independent of sketchcast: arithmetic, dict and list churn, small arrays.

    The mix follows the program's: interpreter loops over small containers
    (tree search, the per-vertex engine loop) and numpy on small arrays.
    Against the same experiments repeated for minutes, this mix tracked the
    host's speed better than any of its parts alone.
    """
    import numpy as np

    total = 0
    for i in range(8000):
        total += i * i % 7
    table = {}
    for i in range(2500):
        table[i * 7919 % 10007] = [i, i + 1]
    for key in sorted(table):
        total += table[key][0]
    x = np.linspace(-1.0, 1.0, 4096)
    for _ in range(40):
        x = np.sqrt(np.abs(x) + 1.0) - 0.5
    return total + float(x[0])


def calibrate() -> float:
    """Seconds the calibration work takes now: the fastest of three timings.

    The host's speed changes by up to 1.7x for seconds to minutes at a
    time, and the program and this loop slow down together, so a time
    divided by the calibration around it and multiplied by
    ``REFERENCE_CALIBRATION_S`` barely moves with the host's state.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Experiment:
    """One run_experiment call: its spec, wall time and reports, or the error.

    ``scale`` turns this experiment's raw seconds into seconds at the
    reference speed.
    """

    spec: object
    wall: float
    reports: list
    scale: float
    error: str | None = None

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def setup(self) -> float:
        return (self.wall - sum(r.wall_time for r in self.reports)) * self.scale

    @property
    def outcome(self) -> list:
        """Everything a trial reports except its wall time."""
        return [replace(r, wall_time=0.0) for r in self.reports]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--passes", type=int,
                        help="fixed pass count instead of the workload's (smoke tests)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or (args.passes is not None and args.passes < 1):
        parser.error("--seed and --seconds must be >= 0, --passes >= 1")
    return args


def import_seconds() -> tuple[float, float]:
    """Time to import sketchcast in a fresh interpreter, raw and at the reference speed."""
    before = calibrate()
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    raw = float(out.stdout)
    return raw, raw * 2.0 * REFERENCE_CALIBRATION_S / (before + calibrate())


def stamp(seed: int) -> dict:
    import numpy as np
    from sketchcast import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.BACKEND,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "commit": commit,
        "seed": seed,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
    }


def run_pass(workload, seed: int, index: int, skip=frozenset()) -> list[Experiment | None]:
    """One run_experiment per spec; an experiment that raises fails all its trials.

    Specs whose position is in ``skip`` are not run and appear as None.
    Each experiment is scaled by the mean of the calibrations just before
    and just after it.
    """
    from sketchcast.engine import CounterOverflowError
    from sketchcast.harness import run_experiment
    from workloads import pass_seed

    done = []
    signal.signal(signal.SIGALRM, _timeout)
    before = calibrate()
    for i, spec in enumerate(workload.specs):
        if i in skip:
            done.append(None)
            continue
        spec = replace(spec, seed=pass_seed(seed, index))
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, EXPERIMENT_LIMIT_S)
        try:
            reports, _ = run_experiment(spec)
            error = None
        except (ValueError, CounterOverflowError, MemoryError, ExperimentTimeout) as exc:
            reports, error = [], type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        after = calibrate()
        scale = 2.0 * REFERENCE_CALIBRATION_S / (before + after)
        done.append(Experiment(spec, wall, reports, scale, error))
        before = after
    return done


def failed_specs(done) -> frozenset:
    """Positions of the specs whose experiment failed in one pass."""
    return frozenset(i for i, e in enumerate(done) if e is not None and e.error)


def mismatches(first, repeats) -> list[str]:
    """Repeated experiments whose outcome differs from the first round's."""
    from workloads import label

    out = []
    for index, p in repeats:
        for e, base in zip(p, first[index]):
            if e is not None and (e.error != base.error or e.outcome != base.outcome):
                out.append(f"pass {index} {label(e.spec)}")
    return out


# One-sided binomial level below which a spec's success count counts as
# under its floor.  A run holds 3 to 40 trials per spec, where comparing the
# observed rate with the floor directly would flag a protocol that succeeds
# 90% of the time in a few percent of runs.
CHECK_LEVEL = 0.01


def below_floor(successes: int, trials: int, floor: float) -> bool:
    """Whether ``successes`` of ``trials`` is implausible at success rate ``floor``."""
    tail = sum(math.comb(trials, i) * floor**i * (1.0 - floor) ** (trials - i)
               for i in range(successes + 1))
    return tail < CHECK_LEVEL


def check(workload, passes) -> tuple[bool, list[dict]]:
    """Per-spec success over the first round against ``CHECK_THRESHOLDS``.

    Every hh trial must also recover the planted heavy hitters.
    """
    from sketchcast.harness import CHECK_THRESHOLDS
    from workloads import label

    rows = []
    for i, spec in enumerate(workload.specs):
        runs = [p[i] for p in passes]
        attempted = sum(e.spec.trials for e in runs)
        reports = [r for e in runs for r in e.reports]
        successes = sum(r.success for r in reports)
        row = {
            "spec": label(spec),
            "attempted": attempted,
            "failed": sum(e.spec.trials for e in runs if e.error),
            "errors": sorted({e.error for e in runs if e.error}),
            "success_rate": successes / attempted,
            "ok": not below_floor(successes, attempted, CHECK_THRESHOLDS[spec.protocol]),
        }
        if spec.protocol == "hh":
            row["recovery_rate"] = sum(bool(r.recovered) for r in reports) / attempted
            row["ok"] = row["ok"] and row["recovery_rate"] == 1.0
        rows.append(row)
    return all(r["ok"] for r in rows), rows


def end_to_end(workload, first, passes, imports: list[tuple[float, float]]) -> dict:
    """End-to-end metrics: times over every pass, quality over the first round."""
    import numpy as np
    from workloads import is_network, label, lanes, tail_percentile

    experiments = [e for p in passes for e in p if e is not None]
    walls = [r.wall_time * e.scale for e in experiments for r in e.reports]
    attempted = sum(e.spec.trials for p in first for e in p)
    done = [r for p in first for e in p for r in e.reports]
    played = [[e for e in p if e is not None] for p in passes]
    setups = [sum(e.setup for e in p if not e.error) for p in played if p]
    tail = tail_percentile(len(walls))

    max_edge, mean_edge = [], []
    for i, spec in enumerate(workload.specs):
        runs = [r for p in first for r in p[i].reports]
        if runs and is_network(spec):
            k = lanes(spec)
            max_edge.append(statistics.fmean(r.max_edge_bits for r in runs) / k)
            mean_edge.append(statistics.fmean(r.total_bits for r in runs) / ((spec.m - 1) * k))

    return {
        "trials_per_s": (pass_rate(passes), "1/s"),
        "trial_ms_p50": (1e3 * statistics.median(walls), "ms"),
        "trial_ms_tail": (1e3 * float(np.percentile(walls, tail)), "ms"),
        "setup_s": (statistics.median(s for _, s in imports) + statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "bits_per_row_max_edge": (statistics.fmean(max_edge), "bit"),
        "bits_per_row_mean_edge": (statistics.fmean(mean_edge), "bit"),
        "success_rate": (sum(r.success for r in done) / attempted, "ratio"),
        "completed_share": (len(done) / attempted, "ratio"),
    }, {"tail_percentile": tail, "trial_samples": len(walls), "passes": len(passes),
        "quality_passes": len(first), "import_s": imports, "pass_setup_s": setups,
        "raw_trial_s": [r.wall_time for e in experiments for r in e.reports],
        "scales": [e.scale for e in experiments],
        "trial_s": {label(s): [r.wall_time * p[i].scale for p in passes if p[i] is not None
                               for r in p[i].reports]
                    for i, s in enumerate(workload.specs)}}


def error_ratios(workload, first) -> dict:
    """Per spec, each first-round trial's error over its success bound."""
    from workloads import error_ratio, label

    ratios = {}
    for i, spec in enumerate(workload.specs):
        runs = [r for p in first for r in p[i].reports]
        if runs:
            ratios[label(spec)] = [error_ratio(spec, r.error) for r in runs]
    return ratios


# Per-layer time metrics: name -> (span group, which time).  "self" is the
# group's self time, "outer" its outermost spans' inclusive time.
LAYER_TIMES = {
    "stable.build_sketch_ms": ("stable.build_sketch", "self_s"),
    "kernels.cms_ms": ("kernels.cms", "self_s"),
    "heavy_hitters.hash_ms": ("heavy_hitters.hash", "self_s"),
    "heavy_hitters.local_table_ms": ("heavy_hitters.local_table", "self_s"),
    "heavy_hitters.decode_ms": ("heavy_hitters.decode", "self_s"),
    "heavy_hitters.self_ms": ("heavy_hitters.point_estimate", "self_s"),
    "matrix_product.sketch_ms": ("matrix_product.sketch", "self_s"),
    "matrix_product.self_ms": ("matrix_product", "self_s"),
    "fp_high.self_ms": ("fp_high", "self_s"),
    "fp_low.self_ms": ("fp_low", "self_s"),
    "entropy.self_ms": ("entropy", "self_s"),
    "harness.generate_ms": ("harness.generate", "self_s"),
    "harness.self_ms": ("harness.trial", "self_s"),
    "oracles.score_ms": ("oracles.score", "self_s"),
    "topology.from_spec_ms": ("topology.from_spec", "self_s"),
    "topology.center_ms": ("topology.center", "self_s"),
    "topology.spanning_tree_ms": ("topology.spanning_tree", "self_s"),
    "engine.convergecast_ms": ("engine", "outer_s"),
    "engine.self_ms": ("engine", "self_s"),
    "kernels.round_to_grid_ms": ("kernels.round_to_grid", "self_s"),
    "kernels.rounded_bits_ms": ("kernels.rounded_bits", "self_s"),
    "kernels.morris_add_ms": ("kernels.morris_add", "self_s"),
    "kernels.morris_merge_ms": ("kernels.morris_merge", "self_s"),
}

LAYER_COUNTS = ("stable.cells", "heavy_hitters.hash_evals", "engine.vertices",
                "engine.window_errors", "engine.counter_overflows", "stable.cap_errors")

LAYER_MEANS = ("engine.bits_per_row_leaf", "engine.bits_per_row_root", "fp_high.bits_per_row",
               "fp_low.bits_per_row", "entropy.bits_per_row", "heavy_hitters.bits_per_row",
               "matrix_product.bits_per_row")


def _total(summaries, field):
    """Sum a per-pass field over summaries; ``field`` maps a summary to a number."""
    return sum(field(s) for s in summaries)


def per_layer(summaries, count_passes: int, untraced_tps: float, traced_tps: float) -> dict:
    """Per-trial layer times over every traced pass; counts over the fixed passes."""
    fixed = summaries[:count_passes]
    trials = _total(summaries, lambda s: s["trials"])
    fixed_trials = _total(fixed, lambda s: s["trials"])

    def group(pool, name, key):
        return _total(pool, lambda s: s["groups"].get(name, {}).get(key, 0))

    def count(pool, key):
        return _total(pool, lambda s: s["counts"].get(key, 0.0))

    out = {name: (1e3 * group(summaries, g, key) / trials, "ms")
           for name, (g, key) in LAYER_TIMES.items()}
    for key in LAYER_COUNTS:
        out[key] = (count(fixed, key) / fixed_trials, "count")
    kernel_groups = {g for s in fixed for g in s["groups"] if g.startswith("kernels.")}
    out["kernels.calls"] = (sum(group(fixed, g, "calls") for g in kernel_groups) / fixed_trials,
                            "count")
    out["topology.center_calls"] = (group(fixed, "topology.center", "calls") / fixed_trials,
                                    "count")
    cells = count(summaries, "stable.cells")
    out["stable.ns_per_cell"] = (
        1e9 * group(summaries, "stable.build_sketch", "outer_s") / cells if cells else 0.0, "ns")
    vertices = count(summaries, "engine.vertices")
    out["engine.us_per_vertex"] = (
        1e6 * group(summaries, "engine", "outer_s") / vertices if vertices else 0.0, "us")
    edges = count(fixed, "engine.edges")
    out["engine.zero_edge_share"] = (count(fixed, "engine.zero_edges") / edges if edges else 0.0,
                                     "ratio")
    for key in LAYER_MEANS:
        total = _total(fixed, lambda s: s["means"].get(key, (0.0, 0))[0])
        n = _total(fixed, lambda s: s["means"].get(key, (0.0, 0))[1])
        out[key] = (total / n if n else 0.0, "bit")
    out["trace.untraced_trials_per_s"] = (untraced_tps, "1/s")
    out["trace.traced_trials_per_s"] = (traced_tps, "1/s")
    out["trace.overhead_pct"] = (100.0 * (untraced_tps / traced_tps - 1.0), "%")
    return out


def layer_shares(summaries) -> dict:
    """Share of traced trial wall time spent in each group's own code."""
    trial_s = _total(summaries, lambda s: s["groups"]["harness.trial"]["outer_s"])
    selfs = defaultdict(float)
    for s in summaries:
        for name, g in s["groups"].items():
            selfs[name] += g["self_s"]
    return {name: t / trial_s for name, t in sorted(selfs.items(), key=lambda kv: -kv[1])}


def bits_by_layer(summaries) -> dict:
    """Mean bits per lane on the edges out of each tree layer, per protocol."""
    merged = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for s in summaries:
        for caller, profile in s["layer_bits"].items():
            for layer, (bits, edges) in profile.items():
                merged[caller][layer][0] += bits
                merged[caller][layer][1] += edges
    return {caller: {layer: b / n for layer, (b, n) in sorted(profile.items())}
            for caller, profile in merged.items()}


def pass_rate(passes) -> float:
    """Trials per second at the reference speed over the experiments that completed.

    A failed experiment is left out: its time is the benchmark's own limit.
    """
    done = [e for p in passes for e in p if e is not None and not e.error]
    return sum(len(e.reports) for e in done) / sum(e.scaled_wall for e in done)


def schedule(fixed: int, seconds: float):
    """Yield (pass index, first time?): passes 0..fixed-1, then again from 0 until time is up."""
    start = time.perf_counter()
    played = 0
    while played < fixed or time.perf_counter() - start < seconds:
        yield played % fixed, played < fixed
        played += 1


def measure_untraced(workload, seed: int, seconds: float, fixed: int):
    """The first round, the repeats as (index, pass) pairs, and the import timings."""
    first, repeats, imports = [], [], []
    next_probe = time.perf_counter()
    for index, fresh in schedule(fixed, seconds):
        if fresh:
            first.append(run_pass(workload, seed, index))
        else:
            repeats.append((index, run_pass(workload, seed, index, failed_specs(first[index]))))
        if time.perf_counter() >= next_probe:
            imports.append(import_seconds())
            next_probe = time.perf_counter() + seconds / IMPORT_PROBES
    return first, repeats, imports


def measure_traced(workload, seed: int, seconds: float, fixed: int):
    """Each pass untraced and traced, alternating which goes first.

    Returns the untraced first round, the untraced repeats and the traced
    passes as (index, pass) pairs, a tracer summary per traced pass, and
    the spans of the first traced pass.  Only the untraced play decides
    which experiments later plays of a pass skip, so the first round is
    always whole.
    """
    from tracer import Tracer

    tracer = Tracer()
    first, repeats, traced, summaries, spans = [], [], [], [], []
    for index, fresh in schedule(fixed, seconds):
        skip = frozenset() if fresh else failed_specs(first[index])
        for trace_it in (False, True) if len(traced) % 2 == 0 else (True, False):
            if trace_it:
                tracer.install()
                try:
                    done = run_pass(workload, seed, index, skip)
                finally:
                    tracer.remove()
                traced.append((index, done))
                summaries.append(tracer.summary())
                spans = spans or tracer.spans
                tracer.reset()
            else:
                done = run_pass(workload, seed, index, skip)
                if fresh:
                    first.append(done)
                else:
                    repeats.append((index, done))
                skip = skip | failed_specs(done)
    return first, repeats, traced, summaries, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sketchcast" / "__init__.py").is_file():
        print(f"error: no sketchcast sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import sketchcast
    imported = time.perf_counter() - start
    imports = [(imported, imported * REFERENCE_CALIBRATION_S / calibrate())]
    if not Path(sketchcast.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: sketchcast imported from {sketchcast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    info = stamp(args.seed)
    print("stamp " + json.dumps(info, sort_keys=True))

    if args.trace:
        fixed = args.passes or -(-workload.passes // 2)
        first, repeats, traced, summaries, spans = measure_traced(workload, args.seed,
                                                                  args.seconds, fixed)
        untraced = first + [p for _, p in repeats]
        metrics = per_layer(summaries, fixed, pass_rate(untraced),
                            pass_rate([p for _, p in traced]))
        ratios = error_ratios(workload, first)
        metrics["error_ratio_p50"] = (statistics.median(map(statistics.fmean, ratios.values())),
                                      "ratio")
        details = {"shares": layer_shares(summaries), "bits_by_layer": bits_by_layer(summaries),
                   "passes": len(traced), "count_passes": fixed, "error_ratios": ratios}
    else:
        fixed = args.passes or workload.passes
        first, repeats, probes = measure_untraced(workload, args.seed, args.seconds, fixed)
        traced, spans = [], []
        metrics, details = end_to_end(workload, first, first + [p for _, p in repeats],
                                      imports + probes)

    correct, rows = check(workload, first)
    differ = mismatches(first, repeats + traced)
    correct = correct and not differ
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)

    for r in rows:
        extra = f" recovery={r['recovery_rate']:.3f}" if "recovery_rate" in r else ""
        errs = f" errors={','.join(r['errors'])}" if r["errors"] else ""
        print(f"spec {r['spec']:16s} trials={r['attempted']} failed={r['failed']} "
              f"success={r['success_rate']:.3f}{extra} ok={r['ok']}{errs}")
    for where in differ:
        print(f"repeat differs from the first round: {where}")
    if args.trace:
        print("self-time share of traced trial wall time:")
        for name, share in details["shares"].items():
            print(f"  {name:28s} {100 * share:6.2f}%")
        for caller, profile in details["bits_by_layer"].items():
            top = max(profile)
            print(f"bits/lane {caller}: leaf layer 0 {profile[0]:.2f}, "
                  f"top layer {top} {profile[top]:.2f}")
    else:
        print(f"trial_ms_tail is p{details['tail_percentile']} of {details['trial_samples']} "
              f"trials; {details['passes']} passes, quality metrics from the first "
              f"{details['quality_passes']}")
        print("error ratio per spec (mean over the first round): " + ", ".join(
            f"{k} {statistics.fmean(v):.3f}" for k, v in error_ratios(workload, first).items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {workload.name} {name} = {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, trace=args.trace, stamp=info, specs=rows,
                  mismatches=differ, details=details, spans=spans)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
