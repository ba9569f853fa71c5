#!/usr/bin/env python3
"""Compare saved perfbench runs of two trees, workload by workload.

Usage: scripts/perfbench_compare.py [--claim <metric>]... <parent_dir> <change_dir>

Each directory holds saved outputs of `python3 perfbench/run.py ...`, one
file per run (stdout and stderr together). A run is identified by its
report line `workload <name>, seed <n>, <k> repetitions (<t> traced)` and
measured by its last line that parses as a JSON object. Traced runs
(`--trace 1`) are grouped apart from untraced ones. Runs are paired by
(workload, seed); repeated runs of one seed pair up in file-name order.
For every workload present on both sides the script prints, per metric,
each side's median and quartiles, the relative change of the medians and
the change's wins out of the pairs (a pair that ties counts for neither
side), then flags:

  * an end-to-end metric whose median is worse than the parent's by more
    than its bound in BENCHMARK.json;
  * a claimed metric (`--claim`, repeatable) that the change wins on
    fewer than 9 of 10 pairs, or whose medians differ, in the better
    direction, by no more than the parent's interquartile range — the
    rule that decides a host-clock claim, where runs spread;
  * a higher median share of failed operations (failed / attempted);
  * a run that reports `"correct": false`.

BENCHMARK.json is only read. The exit status is 1 if anything was
flagged, 2 on unusable input, and 0 otherwise.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOAD_LINE = re.compile(
    r"^workload (\S+), seed (\d+), \d+ repetitions \((\d+) traced\)")


def load_run(path):
    """Returns (group, seed, result) for one saved run, or None. The group
    is the workload name, with " (trace)" appended for a traced run."""
    workload = seed = result = None
    for line in path.read_text(errors="replace").splitlines():
        match = WORKLOAD_LINE.match(line)
        if match:
            workload = match.group(1)
            seed = int(match.group(2))
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
    return workload, seed, result


def load_dir(directory):
    """Maps workload -> {seed: [run results, in file-name order]} for the
    runs found in `directory`."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        run = load_run(path)
        if run is None:
            print(f"skipping {path}: no workload line or JSON result",
                  file=sys.stderr)
            continue
        workload, seed, result = run
        runs.setdefault(workload, {}).setdefault(seed, []).append(result)
    return runs


def flatten(by_seed):
    return [r for seed in sorted(by_seed) for r in by_seed[seed]]


def pairs_of(parent, change):
    """(parent run, change run) pairs: same seed, i-th run with i-th."""
    return [pair for seed in sorted(set(parent) & set(change))
            for pair in zip(parent[seed], change[seed])]


def metric_value(result, name):
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else metric["value"]


def summary(results, name):
    """(median, first quartile, third quartile) of a metric, or None."""
    values = [v for v in (metric_value(r, name) for r in results)
              if v is not None]
    if not values:
        return None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q1, q3


def failed_share(results):
    return statistics.median(
        r.get("failed", 0) / r["attempted"] if r.get("attempted") else 0.0
        for r in results)


def relative_change(parent, change):
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    return (change - parent) / abs(parent)


def wins(pairs, name, lower_better):
    """How many pairs the change wins on `name`, and how many pairs have
    the metric on both sides."""
    won = total = 0
    for p_run, c_run in pairs:
        p, c = metric_value(p_run, name), metric_value(c_run, name)
        if p is None or c is None:
            continue
        total += 1
        if (c < p) if lower_better else (c > p):
            won += 1
    return won, total


def fmt_summary(s):
    return f"{s[0]:.6g} [{s[1]:.4g}, {s[2]:.4g}]"


def compare_workload(workload, parent, change, spec, claims):
    """Prints one workload's table; returns the list of flags raised.
    `parent` and `change` map seed -> run results."""
    flags = []
    pairs = pairs_of(parent, change)
    parent_runs, change_runs = flatten(parent), flatten(change)
    print(f"\n== {workload}: {len(parent_runs)} parent run(s), "
          f"{len(change_runs)} change run(s), {len(pairs)} pair(s) ==")
    print(f"{'metric':<38} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'rel':>8} {'wins':>6}  note")
    rows = [(m, True) for m in spec.get("end_to_end", [])]
    rows += [(m, False) for m in spec.get("per_layer", [])]
    for metric, gated in rows:
        name = metric["name"]
        p = summary(parent_runs, name)
        c = summary(change_runs, name)
        if p is None or c is None:
            continue
        lower_better = metric["better"] == "lower"
        rel = relative_change(p[0], c[0])
        worse = rel > 0 if lower_better else rel < 0
        won, total = wins(pairs, name, lower_better)
        notes = []
        if gated and worse and abs(rel) > metric["bound"]:
            notes.append(f"WORSE than bound {metric['bound']:.2f}")
            flags.append(f"{workload}: {name} {rel:+.1%} "
                         f"(bound {metric['bound']:.0%})")
        if name in claims:
            gain = (p[0] - c[0]) if lower_better else (c[0] - p[0])
            iqr = p[2] - p[1]
            if total == 0 or won * 10 < total * 9:
                notes.append("CLAIM: wins below 9/10")
                flags.append(f"{workload}: claimed {name} wins "
                             f"{won}/{total} pairs")
            if gain <= iqr:
                notes.append("CLAIM: gain within parent IQR")
                flags.append(f"{workload}: claimed {name} median gain "
                             f"{gain:.6g} <= parent IQR {iqr:.6g}")
        print(f"{name:<38} {fmt_summary(p):>30} {fmt_summary(c):>30} "
              f"{rel:>+8.1%} {won:>3}/{total:<2}  {'; '.join(notes)}")
    p_fail = failed_share(parent_runs)
    c_fail = failed_share(change_runs)
    note = ""
    if c_fail > p_fail:
        note = "HIGHER failed share"
        flags.append(f"{workload}: failed share {p_fail:.6f} -> "
                     f"{c_fail:.6f}")
    print(f"{'failed share':<38} {p_fail:>30.6g} {c_fail:>30.6g} "
          f"{'':>8} {'':>6}  {note}")
    for side, results in (("parent", parent_runs), ("change", change_runs)):
        wrong = sum(1 for r in results if not r.get("correct", False))
        if wrong:
            flags.append(f"{workload}: {wrong} {side} run(s) not correct")
    return flags


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[4:]))
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC",
                        help="a metric the change claims to improve")
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv[1:])  # exits 2 on unusable arguments
    spec = json.loads(BENCHMARK.read_text())
    known = {m["name"] for m in spec.get("end_to_end", []) +
             spec.get("per_layer", [])}
    for claim in args.claim:
        if claim not in known:
            print(f"--claim {claim}: not a BENCHMARK.json metric",
                  file=sys.stderr)
            return 2
    parent, change = load_dir(args.parent_dir), load_dir(args.change_dir)
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
                                 change[workload], spec, set(args.claim))
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
