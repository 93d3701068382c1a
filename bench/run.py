"""svch benchmark: time a workload end to end, or trace it per module.

    python3 bench/run.py --workload readme_1d --seed 0 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb;
fail_frac and the unscaled wall time as lines of their own), ``--trace 1``
the per-layer metrics and the tracing overhead.  Human-readable lines come
first, each metric with its unit and sample count; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0
when every run passed its output checks, 1 when one did not, 2 when there is
no program to run.
"""

import argparse
import json
import statistics
import sys

import harness
from tracing import Tracer


def _time_metrics(cli, workload, cases, seconds):
    setup = harness.probe_setup(cases[0].ini)
    runs = harness.closed_loop(cli, cases, seconds,
                               yardstick_kind=harness.YARDSTICK_KIND[workload])
    passing = [r for r in runs if r.passed]
    metrics = [("setup_s", statistics.median(setup), "s",
                harness.describe(setup) + " process starts, at yardstick "
                f"{harness.YARDSTICK_REF_S} s")]
    notes = []
    if passing:
        wall = [harness.rescale(r.seconds, r.yardstick_s) for r in passing]
        raw = [r.seconds for r in passing]
        yard = [r.yardstick_s for r in passing]
        metrics.append(("wall_s", statistics.median(wall), "s",
                        harness.describe(wall) + " passing runs, at yardstick "
                        f"{harness.YARDSTICK_REF_S} s"))
        notes += [("wall_unscaled_s", statistics.median(raw), "s", harness.describe(raw)),
                  ("yardstick_s", statistics.median(yard), "s", harness.describe(yard))]
    metrics.append(("peak_rss_mb", harness.peak_rss_mib(), "MiB",
                    "peak of this process over all runs"))
    return runs, metrics, notes


def _trace_metrics(cli, cases, seconds):
    runs = harness.closed_loop(cli, cases, seconds, tracer=Tracer())
    traced = [r for r in runs if r.traced and r.passed]
    plain = [r.seconds for r in runs if not r.traced and r.passed]
    metrics = []
    if traced:
        for name, (_, unit) in traced[0].layer.items():
            # median_low keeps a count a whole number
            values = [r.layer[name][0] for r in traced if name in r.layer]
            metrics.append((name, statistics.median_low(values), unit,
                            f"median of {len(values)} traced runs"))
    if traced and plain:
        ratio = statistics.median(r.seconds for r in traced) / statistics.median(plain)
        metrics.append(("trace.overhead_ratio", ratio, "ratio",
                        f"traced/untraced wall time, {len(traced)} and {len(plain)} runs"))
    return runs, metrics, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    harness.pin_threads()
    try:
        cli = harness.load_cli()
    except harness.MissingProgram as err:
        print(f"svch benchmark: {err}", file=sys.stderr)
        return 2

    if args.trace:
        cases = harness.workload_cases(cli, args.workload, args.seed, count=1)
        runs, metrics, notes = _trace_metrics(cli, cases, args.seconds)
    else:
        cases = harness.workload_cases(cli, args.workload, args.seed)
        runs, metrics, notes = _time_metrics(cli, args.workload, cases, args.seconds)

    failed = [r for r in runs if not r.passed]
    notes.append(("fail_frac", len(failed) / len(runs), "1",
                  f"{len(failed)} of {len(runs)} runs failed"))
    problems = [p for r in failed for p in r.problems] + harness.consistency_problems(runs)
    print(f"# svch benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(harness.machine_record(args.seed, len(runs))))
    for name, value, unit, note in metrics + notes:
        print(f"{name:30s} {value:14.6g} {unit:12s} {note}")
    for problem in dict.fromkeys(problems):
        print(f"problem: {problem}")

    correct = not problems
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
