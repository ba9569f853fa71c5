#!/usr/bin/env python3
"""Compare saved perfbench runs of two trees, workload by workload.

Usage: scripts/perfbench_compare.py <parent_dir> <change_dir>

Each directory holds saved outputs of `python3 perfbench/run.py ...`, one
file per run (stdout and stderr together). A run is identified by its
report line `workload <name>, seed <n>, <k> repetitions (<t> traced)` and
measured by its last line that parses as a JSON object. Traced runs
(`--trace 1`) are grouped apart from untraced ones. For every workload
present on both sides the script prints the median of each metric on
each side and the relative change, then flags:

  * an end-to-end metric whose median is worse than the parent's by more
    than its bound in BENCHMARK.json;
  * a higher median share of failed operations (failed / attempted);
  * a run that reports `"correct": false`.

BENCHMARK.json is only read. The exit status is 1 if anything was
flagged, 2 on unusable input, and 0 otherwise.
"""

import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOAD_LINE = re.compile(
    r"^workload (\S+), seed (\d+), \d+ repetitions \((\d+) traced\)")


def load_run(path):
    """Returns (group, result) for one saved run, or None. The group is
    the workload name, with " (trace)" appended for a traced run."""
    workload = result = None
    for line in path.read_text(errors="replace").splitlines():
        match = WORKLOAD_LINE.match(line)
        if match:
            workload = match.group(1)
            if int(match.group(3)) > 0:
                workload += " (trace)"
        if line.startswith("{"):
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(parsed, dict):
                result = parsed
    if workload is None or result is None:
        return None
    return workload, result


def load_dir(directory):
    """Maps workload -> list of run results found in `directory`."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        run = load_run(path)
        if run is None:
            print(f"skipping {path}: no workload line or JSON result",
                  file=sys.stderr)
            continue
        workload, result = run
        runs.setdefault(workload, []).append(result)
    return runs


def median_metric(results, name):
    values = [r["metrics"][name]["value"] for r in results
              if name in r.get("metrics", {})]
    return statistics.median(values) if values else None


def failed_share(results):
    return statistics.median(
        r.get("failed", 0) / r["attempted"] if r.get("attempted") else 0.0
        for r in results)


def relative_change(parent, change):
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    return (change - parent) / abs(parent)


def compare_workload(workload, parent, change, spec):
    """Prints one workload's table; returns the list of flags raised."""
    flags = []
    print(f"\n== {workload}: {len(parent)} parent run(s), "
          f"{len(change)} change run(s) ==")
    print(f"{'metric':<40} {'parent':>14} {'change':>14} {'rel':>9}  note")
    rows = [(m, True) for m in spec.get("end_to_end", [])]
    rows += [(m, False) for m in spec.get("per_layer", [])]
    for metric, gated in rows:
        name = metric["name"]
        p = median_metric(parent, name)
        c = median_metric(change, name)
        if p is None or c is None:
            continue
        rel = relative_change(p, c)
        worse = rel > 0 if metric["better"] == "lower" else rel < 0
        note = ""
        if gated and worse and abs(rel) > metric["bound"]:
            note = f"WORSE than bound {metric['bound']:.2f}"
            flags.append(f"{workload}: {name} {rel:+.1%} "
                         f"(bound {metric['bound']:.0%})")
        print(f"{name:<40} {p:>14.6g} {c:>14.6g} {rel:>+9.1%}  {note}")
    p_fail, c_fail = failed_share(parent), failed_share(change)
    note = ""
    if c_fail > p_fail:
        note = "HIGHER failed share"
        flags.append(f"{workload}: failed share {p_fail:.6f} -> "
                     f"{c_fail:.6f}")
    print(f"{'failed share':<40} {p_fail:>14.6g} {c_fail:>14.6g} "
          f"{'':>9}  {note}")
    for side, results in (("parent", parent), ("change", change)):
        wrong = sum(1 for r in results if not r.get("correct", False))
        if wrong:
            flags.append(f"{workload}: {wrong} {side} run(s) not correct")
    return flags


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_dir(argv[1]), load_dir(argv[2])
    common = sorted(set(parent) & set(change))
    if not common:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    for workload in sorted(set(parent) ^ set(change)):
        print(f"note: {workload} has runs on one side only", file=sys.stderr)
    gated = {w["name"] for w in spec.get("workloads", [])}
    flags = []
    for workload in common:
        is_gated = workload.split(" ")[0] in gated
        tag = "" if is_gated else " (not gated)"
        found = compare_workload(workload + tag, parent[workload],
                                 change[workload], spec)
        flags += found if is_gated else []
    print()
    if flags:
        print("FLAGGED:")
        for flag in flags:
            print(f"  {flag}")
        return 1
    print("no gated workload is worse than its bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
