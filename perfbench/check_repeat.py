"""Check that the traced counts repeat exactly across two same-seed runs.

    python3 perfbench/check_repeat.py --workload dlog-43x6 --seed 0

Runs run.py --trace 1 twice and compares, unit by unit, every counter of
each unit that completed in both runs: relations, trials, top-up rounds,
columns, orbits, translate_place misses, span calls and kernel calls.  A
unit cut off by the deadline is skipped, since how far it got depends on
the host's speed.  Exits 1 if any count differs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_units(workload, seed):
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    path = ROOT / ".perfbench_out" / f"trace-{workload}-seed{seed}.json"
    return json.loads(path.read_text())["units"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    first = traced_units(args.workload, args.seed)
    second = traced_units(args.workload, args.seed)
    compared, differ = 0, 0
    for a, b in zip(first, second):
        if a["status"] != "ok" or b["status"] != "ok":
            print(f"skip  {a['status']:>4} / {b['status']:<4} {a}")
            continue
        compared += 1
        keys = sorted(set(a["counts"]) | set(b["counts"]))
        diff = {k: (a["counts"].get(k), b["counts"].get(k)) for k in keys
                if a["counts"].get(k) != b["counts"].get(k)}
        differ += bool(diff)
        print(("DIFF " if diff else "same ") + json.dumps({"unit": a, "diff": diff}
                                                        if diff else a["counts"]))
    if len(first) != len(second):
        differ += 1
        print(f"DIFF unit count {len(first)} vs {len(second)}")
    print(f"{compared} units compared, {differ} differ")
    return 1 if differ or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
