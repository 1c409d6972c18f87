"""CI perf gate: the suite's canonical performance baseline.

Runs the six suite benchmarks at a fixed scale through the optimizer,
plus one small benchmark with differential validation on (the path
``icbe batch`` and ``icbe serve`` run by default) and one suite
benchmark under the intraprocedural analysis (the ladder's first
fallback tier), under an observability session and compares against
the checked-in ``benchmarks/BENCH_BASELINE.json``:

- **counter/gauge/histogram metrics compare exactly** — they are pure
  functions of the algorithm (no timings ever enter the registry; see
  docs/OBSERVABILITY.md), so any drift means the optimizer's behaviour
  changed: more pairs examined, fewer branches eliminated, a cache that
  stopped hitting.  That is a correctness-adjacent regression even when
  wall clock looks fine.
- **wall time compares within a configurable tolerance**, and as a
  *calibrated ratio* rather than absolute seconds: each benchmark's
  best-of-N optimize time is divided by the time of a fixed pure-Python
  spin loop measured on the same machine in the same process, which
  cancels most of the hardware and interpreter-version variance between
  the laptop that wrote the baseline and the CI runner that checks it.
  Every run prints its calibration beside the baseline's (the
  calibration an entry was recorded under is its ``wall_s`` over its
  ``wall_ratio``), and a wall-ratio failure names both, so a failure
  caused by a slow or fast calibration reads as one.

Usage::

    PYTHONPATH=src python benchmarks/perf_baseline.py --check
    PYTHONPATH=src python benchmarks/perf_baseline.py --update
    PYTHONPATH=src python benchmarks/perf_baseline.py --check \
        --tolerance 1.0 --trace perf_trace.jsonl

``--update`` rewrites the baseline (run it on purpose, review the diff,
commit it — see docs/OBSERVABILITY.md, "Re-baselining").  ``--trace``
writes the full span tree of the measured runs; the CI perf-gate job
uploads it as an artifact when the gate fails.
"""

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.analysis import AnalysisConfig
from repro.benchgen.suite import benchmark_names, load_benchmark
from repro.ir import lower_program
from repro.transform import ICBEOptimizer, OptimizerOptions

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BENCH_BASELINE.json")
SCALE = 4
BUDGET = 1000
LIMIT = 100
#: Best-of-N wall measurements (first iteration also warms caches).
REPEATS = 3
#: Allowed fractional increase of the calibrated wall ratio before the
#: gate fails (1.5 = may take up to 2.5x the baseline ratio).  Wide by
#: design: the ratio cancels machine speed, not scheduler noise.
DEFAULT_TOLERANCE = 1.5
BASELINE_VERSION = 1
#: (benchmark, scale) of the diff-checked entry: its exact
#: ``interp.runs``, ``diffcheck.calls`` and ``diffcheck.original_runs``
#: gate that each optimize run executes its input once per workload.
DIFF_CHECKED = ("compress_like", 1)
#: (benchmark, scale) of the intraprocedural entry: the only mode whose
#: analysis reads the transitive MOD sets at call sites.
INTRA = ("perl_like", SCALE)


def calibrate() -> float:
    """Seconds for a fixed pure-Python spin, best of three.

    The reference workload against which benchmark wall times are
    normalized; it runs in-process immediately before measuring, so the
    stored ``wall_ratio`` is roughly machine-independent.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - started)
    return best


def baseline_calibration(baseline: dict):
    """The calibration, in seconds, that ``baseline`` was recorded
    under, or None for a baseline with no entries.

    Each entry's ``wall_ratio`` is its ``wall_s`` over that calibration;
    the entry with the longest ``wall_s`` keeps the most digits of it
    through the rounding of both.
    """
    entries = [entry for entry in baseline.get("benchmarks", {}).values()
               if entry.get("wall_ratio")]
    if not entries:
        return None
    longest = max(entries, key=lambda entry: entry["wall_s"])
    return longest["wall_s"] / longest["wall_ratio"]


def _ms(seconds) -> str:
    return "unknown" if seconds is None else f"{seconds * 1000:.1f}ms"


def measure(name: str, calibration_s: float, scale: int = SCALE,
            diff_check: bool = False, intra: bool = False):
    """One benchmark's (metrics snapshot, wall ratio, spans)."""
    icfg = lower_program(load_benchmark(name, scale=scale).program)
    config = AnalysisConfig(budget=BUDGET, interprocedural=not intra)
    best_wall = float("inf")
    snapshot = None
    spans = []
    for _ in range(REPEATS):
        with obs.suspended(), obs.session() as active:
            started = time.perf_counter()
            with obs.span("perf.benchmark", benchmark=name, scale=scale):
                ICBEOptimizer(OptimizerOptions(
                    config=config, duplication_limit=LIMIT,
                    diff_check=diff_check)).optimize(icfg)
            best_wall = min(best_wall, time.perf_counter() - started)
        if snapshot is not None and active.metrics.snapshot() != snapshot:
            raise AssertionError(
                f"{name}: metrics differ between identical runs — the "
                f"registry is supposed to be deterministic")
        snapshot = active.metrics.snapshot()
        spans = active.export_spans()
    return snapshot, best_wall / calibration_s, best_wall, spans


def run_suite(trace_path=None):
    """Measure every benchmark; optionally write the combined trace."""
    calibration_s = calibrate()
    results = {}
    # All measured sessions share the process clock, so their spans can
    # be collected into one tracer (lane per benchmark) with no rebase.
    tracer = obs.Tracer()
    entries = [(name, name, SCALE, {}) for name in benchmark_names()]
    diff_name, diff_scale = DIFF_CHECKED
    entries.append((f"{diff_name}@{diff_scale}+diff-check", diff_name,
                    diff_scale, {"diff_check": True}))
    intra_name, intra_scale = INTRA
    entries.append((f"{intra_name}@{intra_scale}+intra", intra_name,
                    intra_scale, {"intra": True}))
    for key, name, scale, mode in entries:
        snapshot, ratio, wall_s, spans = measure(name, calibration_s,
                                                 scale, **mode)
        results[key] = {"metrics": snapshot,
                        "wall_ratio": round(ratio, 3),
                        "wall_s": round(wall_s, 4)}
        tracer.adopt(spans, origin=key)
    if trace_path:
        from repro.obs.export import write_jsonl
        write_jsonl(trace_path, tracer.export(),
                    meta={"harness": "perf_baseline", "scale": SCALE,
                          "calibration_s": round(calibration_s, 6)})
        print(f"trace written to {trace_path}")
    return results, calibration_s


def check(results, baseline, tolerance: float,
          calibration_s: float) -> list:
    """Every gate violation as a human-readable string; ``calibration_s``
    is this run's calibration, which a wall-ratio failure names beside
    the baseline's."""
    failures = []
    if baseline.get("version") != BASELINE_VERSION:
        return [f"baseline version {baseline.get('version')!r} != "
                f"{BASELINE_VERSION}; re-run with --update"]
    if baseline.get("scale") != SCALE:
        return [f"baseline scale {baseline.get('scale')!r} != {SCALE}; "
                f"re-run with --update"]
    recorded = baseline.get("benchmarks", {})
    for name, measured in results.items():
        expected = recorded.get(name)
        if expected is None:
            failures.append(f"{name}: not in baseline (re-run --update)")
            continue
        failures.extend(_diff_metrics(name, expected["metrics"],
                                      measured["metrics"]))
        allowed = expected["wall_ratio"] * (1.0 + tolerance)
        if measured["wall_ratio"] > allowed:
            failures.append(
                f"{name}: wall ratio {measured['wall_ratio']:.2f} exceeds "
                f"baseline {expected['wall_ratio']:.2f} "
                f"+{tolerance:.0%} tolerance (= {allowed:.2f}); "
                f"calibration {_ms(calibration_s)}, baseline's "
                f"{_ms(baseline_calibration(baseline))}")
    for name in recorded:
        if name not in results:
            failures.append(f"{name}: in baseline but no longer measured")
    return failures


def _diff_metrics(name: str, expected: dict, measured: dict) -> list:
    """Exact comparison, reported per diverging metric (not as one blob)."""
    diffs = []
    for kind in ("counters", "gauges", "histograms"):
        want, got = expected.get(kind, {}), measured.get(kind, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                diffs.append(f"{name}: {kind[:-1]} {key!r} = "
                             f"{got.get(key)!r}, baseline {want.get(key)!r}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="compare against BENCH_BASELINE.json")
    action.add_argument("--update", action="store_true",
                        help="rewrite BENCH_BASELINE.json from this machine")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional wall-ratio increase "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--trace", default=None, metavar="FILE.jsonl",
                        help="write the measured runs' span tree as JSONL")
    args = parser.parse_args(argv)

    baseline = None
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    results, calibration_s = run_suite(trace_path=args.trace)
    for name, entry in results.items():
        counters = entry["metrics"]["counters"]
        print(f"{name:28s} wall {entry['wall_s']*1000:7.1f}ms "
              f"ratio {entry['wall_ratio']:6.2f}  "
              f"optimized {counters.get('optimize.optimized', 0)}  "
              f"pairs {counters.get('analysis.pairs_examined', 0)}")
    print(f"calibration: {_ms(calibration_s)} (baseline "
          f"{_ms(baseline_calibration(baseline or {}))})")

    if args.update:
        payload = {"version": BASELINE_VERSION, "scale": SCALE,
                   "budget": BUDGET, "duplication_limit": LIMIT,
                   "benchmarks": results}
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if baseline is None:
        print(f"no baseline at {BASELINE_PATH}; run --update first",
              file=sys.stderr)
        return 1
    failures = check(results, baseline, args.tolerance, calibration_s)
    for failure in failures:
        print(f"PERF GATE: {failure}", file=sys.stderr)
    if failures:
        print(f"perf gate FAILED ({len(failures)} violation(s)); if the "
              f"change is intentional, re-baseline with --update",
              file=sys.stderr)
        return 1
    print("perf gate passed: metrics exact, wall ratios within "
          f"{args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
