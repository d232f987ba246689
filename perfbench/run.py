"""frobsieve benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload dlog-43x6 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
src/ without installing it.  With --trace 0 the run measures the
end-to-end metrics, untraced.  With --trace 1 it traces a fixed set of
units, runs the completed ones again untraced, and reports the per-layer
metrics and the tracing overhead; the spans go to .perfbench_out/.  Every
output is checked outside the timed regions.  Human-readable lines start
with '#'; the last line of stdout is the JSON result.  A failed check
makes the exit code 1.

End-to-end times are in seconds at a reference host speed (see
hostspeed.py); the '#' lines also give the raw seconds.
"""

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True

from hostspeed import HostSpeed  # noqa: E402  (after turning bytecode off)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 2000
SETUP_BUDGET_S = 1.0
# set-ups are timed in groups of at least this long, one speed scale each
SETUP_GROUP_S = 0.2
# a run stops after this many units in a row fail or are cut off, so a run
# in which no unit completes still ends and reports (on dlog-43x6, in about
# a minute)
MAX_FAILS_IN_ROW = 4


def _load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        sys.exit("perfbench: BENCHMARK.json not found at the checkout root")
    src = ROOT / "src"
    if not (src / "frobsieve" / "__init__.py").is_file():
        sys.exit(f"perfbench: no frobsieve sources under {src}")
    sys.path.insert(0, str(src))
    import frobsieve

    if Path(frobsieve.__file__).resolve().parent != src / "frobsieve":
        sys.exit(f"perfbench: imported frobsieve from {frobsieve.__file__}, not {src}")
    return spec


def _time_setups(wl, speed):
    """Repeat the set-up for a median; return (scaled seconds, last state)."""
    times = []
    spent = 0.0
    speed.mark()
    while len(times) < SETUP_MIN_REPS or (
        spent < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS
    ):
        group = []
        while not group or (
            sum(group) < SETUP_GROUP_S and len(times) + len(group) < SETUP_MAX_REPS
        ):
            start = speed.clock()
            state = wl.setup()
            group.append(speed.clock() - start)
        factor = speed.scale()
        times += [t * factor for t in group]
        spent += sum(group)
    return times, state


def _failing(records):
    last = records[-MAX_FAILS_IN_ROW:]
    return len(last) == MAX_FAILS_IN_ROW and all(r["status"] != "ok" for r in last)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seed, seconds, speed):
    setup_times, state = _time_setups(wl, speed)
    records = []
    measured = 0.0
    for unit in wl.units(seed):
        if records and (_failing(records)
                        or not wl.keep_going(unit, records, measured, seconds)):
            break
        rec = wl.run(state, unit, speed)
        measured += rec["busy"]
        records.append(rec)
    e2e, report = wl.metrics(records)
    metrics = {"setup_s": statistics.median(setup_times), **e2e, "peak_rss_mb": _peak_rss_mb()}
    report["setup_s"] = (metrics["setup_s"], "s", f"median of {len(setup_times)} set-ups")
    report["raw_s"] = (measured, "s", f"timed work in {len(records)} units, unscaled; median "
                       f"speed scale {statistics.median(r['scale'] for r in records):.3f}")
    return records, metrics, report, [wl.describe(r) for r in records]


def run_traced(wl, seed, speed):
    from tracer import Tracer, layer_metrics  # imports frobsieve: after _load_spec()

    tracer = Tracer(speed.clock)
    tracer.install()
    try:
        traced_state = wl.setup()
        traced = []
        for unit in wl.units(seed):
            # trace_units units, and more until one completes
            if _failing(traced) or (len(traced) >= wl.trace_units
                                    and any(r["status"] == "ok" for r in traced)):
                break
            before = Counter(tracer.counts)
            rec = wl.run(traced_state, unit, speed, tracer)
            rec["counts"] = dict(tracer.counts - before)
            traced.append(rec)
    finally:
        tracer.uninstall()

    # the completed units again, untraced, for the overhead
    state = wl.setup()
    plain = [wl.run(state, r["unit"], speed) for r in traced if r["status"] == "ok"]
    by_unit = {r["unit"]: r for r in traced}
    both = [(a, by_unit[a["unit"]]) for a in plain if a["status"] == "ok"]
    base = sum(a["seconds"] * a["scale"] for a, _ in both)

    metrics = layer_metrics(tracer)
    # overhead on the main calls: compute_logs, the sieve, the factor base
    metrics["trace.overhead_frac"] = (
        sum(b["seconds"] * b["scale"] for _, b in both) / base - 1 if base else 0.0
    )
    metrics["ref.ph_bsgs_ilog_p50_s"] = 0.0
    metrics["indexcalc.ilog_p50_s"] = 0.0
    report = {}
    ref_times, ilog_times, wrong = wl.reference(state, plain, speed.clock) \
        if hasattr(wl, "reference") else ([], [], 0)
    if ref_times:  # dlog only, and only with a completed table
        plain[-1]["failed"] += wrong
        plain[-1]["bad"] += wrong
        metrics["ref.ph_bsgs_ilog_p50_s"] = statistics.median(ref_times)
        metrics["indexcalc.ilog_p50_s"] = statistics.median(ilog_times)
        report["ph_bsgs_over_ilog"] = (
            metrics["ref.ph_bsgs_ilog_p50_s"] / metrics["indexcalc.ilog_p50_s"], "x",
            f"p50 ratio on the same {len(ref_times)} targets, unscaled; "
            f"{wrong} answers differ")

    lines = [wl.describe(r) for r in traced]
    metrics["indexcalc.topup_rounds"] = sum(line.get("topup_rounds", 0) for line in lines)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": wl.name, "seed": seed,
        "units": [line | {"counts": r["counts"]} for line, r in zip(lines, traced)],
        "layers": metrics, "spans": tracer.spans(),
    }))
    report["trace_file"] = (str(path.relative_to(ROOT)), "", f"{len(tracer.names)} spans")
    return traced + plain, metrics, report, lines


def main(argv=None):
    spec = _load_spec()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    speed = HostSpeed()
    speed.start()
    try:
        if args.trace:
            records, metrics, report, lines = run_traced(wl, args.seed, speed)
            declared = spec["per_layer"]
        else:
            records, metrics, report, lines = run_untraced(wl, args.seed, args.seconds, speed)
            declared = spec["end_to_end"]
    finally:
        speed.stop()

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    bad = sum(r["bad"] for r in records)
    cut = sum(r["cut"] for r in records)
    if args.trace:
        metrics["failed_frac"] = (failed + cut) / attempted
    else:
        report["failed_frac"] = ((failed + cut) / attempted, "frac",
                                 f"{failed + cut} of {attempted} operations: {cut} cut off "
                                 f"at the deadline, {failed} failed, {bad} failed output checks")

    mismatch = {m["name"] for m in declared} ^ set(metrics)
    if mismatch:
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print("# unit " + json.dumps(line))
    for name, (value, unit, note) in report.items():
        print(f"# {name} = {value} {unit}  ({note})")
    for m in declared:
        print(f"# {m['name']} = {metrics[m['name']]} {m['unit']}")
    print(json.dumps({
        "correct": bad == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
