#!/usr/bin/env python3
"""Parent-versus-change comparison of two sets of benchmark runs.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are run records written by run.py (files, or
directories holding them). Untraced records only; runs marked invalid are
left out and counted. Runs are paired by seed, and the verdict rests on
each pair's relative difference, so the two sides must be interleaved in
time: run seed s on the parent, then on the change (alternating which
goes first), then the next seed. Host speed then drifts alike for both
runs of a pair and cancels in their ratio. The script warns when the two
sides' run times do not overlap.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the median paired gain (positive: the change
is better), the share of pairs the change wins (ties count for neither)
and a verdict:

  improved    the change wins at least 9 in 10 pairs and the median
              paired gain is larger than the parent's own quartile
              spread (relative to its median);
  worse       the median paired gain is a loss larger than the metric's
              bound;
  unresolved  the paired gains' quartile spread is wider than the bound:
              the pairs disagree too much to call;
  unchanged   anything else.

The client-observed figures of the detail line (wall clock) follow as
rows marked "client:", judged by the same rule with a bound of 0.25.

Exit code 1 when any row is worse, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Detail-line client figures: which direction is better.
CLIENT = {"p50_ms": "lower", "p99_ms": "lower", "requests_per_s": "higher",
          "cells_per_s": "higher", "max_rate_rps": "higher",
          "sim_runs_per_s": "higher", "setup_wall_s": "lower"}
CLIENT_BOUND = 0.25


def load_records(path):
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, name) for name in sorted(os.listdir(path))
                 if name.endswith(".json")]
    records = []
    for name in paths:
        with open(name) as handle:
            record = json.load(handle)
        if record.get("trace", 0) == 0:
            records.append(record)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_value(record, name):
    if name.startswith("client:"):
        return record["detail"].get("client", {}).get(name[len("client:"):])
    return record["result"]["metrics"][name]["value"]


def by_seed(records, workload, metric):
    out = {}
    for record in records:
        if record["workload"] != workload:
            continue
        value = metric_value(record, metric)
        if value is not None:
            out.setdefault(record["seed"], []).append(value)
    return {seed: statistics.median(v) for seed, v in out.items()}


def interleaved(parent, change):
    """True when the two sides' run times overlap (records carry "time")."""
    pt = [r["time"] for r in parent if "time" in r]
    ct = [r["time"] for r in change if "time" in r]
    if not pt or not ct:
        return True
    return min(ct) < max(pt) and min(pt) < max(ct)


def verdict(parent, change, better, bound):
    """parent/change: {seed: value}. Returns the row as a dict."""
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    row = {"parent": (pm, p1, p3), "change": (cm, c1, c3)}
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(s for s in set(parent) & set(change) if parent[s])
    gains = [sign * (change[s] - parent[s]) / abs(parent[s]) for s in seeds]
    if not gains:
        row.update(pairs=0, wins=0.0, gain=0.0, verdict="unresolved")
        return row
    g1, gm, g3 = quartiles(gains)
    share = sum(1 for g in gains if g > 0) / len(gains)
    parent_spread = (p3 - p1) / abs(pm) if pm else float("inf")
    if share >= 0.9 and gm > parent_spread:
        word = "improved"
    elif gm < -bound:
        word = "worse"
    elif g3 - g1 > bound:
        word = "unresolved"
    else:
        word = "unchanged"
    row.update(pairs=len(gains), wins=share, gain=gm, verdict=word)
    return row


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sides = []
    for path in argv[1:]:
        records = load_records(path)
        valid = [r for r in records if r["detail"].get("valid", True)]
        if len(valid) != len(records):
            print("%s: %d invalid run(s) left out" %
                  (path, len(records) - len(valid)))
        sides.append(valid)
    parent, change = sides
    if not interleaved(parent, change):
        print("WARNING: the parent's and the change's runs do not overlap in "
              "time; host drift does not cancel in the pairs")
    any_worse = False
    print("%-11s %-22s %-26s %-26s %6s %5s %5s  %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "gain", "pairs", "wins", "verdict"))
    rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    rows += [("client:" + name, better, CLIENT_BOUND)
             for name, better in CLIENT.items()]
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, better, bound in rows:
            p = by_seed(parent, workload, name)
            c = by_seed(change, workload, name)
            if not p or not c:
                continue
            row = verdict(p, c, better, bound)
            any_worse = any_worse or row["verdict"] == "worse"
            print("%-11s %-22s %-26s %-26s %+5.1f%% %5d %4.0f%%  %s" % (
                workload, name,
                "%.4g [%.4g, %.4g]" % row["parent"],
                "%.4g [%.4g, %.4g]" % row["change"],
                100 * row["gain"], row["pairs"], 100 * row["wins"],
                row["verdict"]))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
