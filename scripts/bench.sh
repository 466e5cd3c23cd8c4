#!/usr/bin/env bash
# Benchmark trajectory tool: run the benchmark suite, write a
# machine-readable artifact [{"name", "ns_per_op", "allocs_per_op",
# "metrics"}], and report deltas against the previous trajectory point.
# "metrics" is optional: it keeps a benchmark's custom units (x-paper,
# sim-GB/s, ...) keyed by unit, and rows without it still parse.
#
# Usage:
#   ./scripts/bench.sh             # write the next free BENCH_<N>.json
#   ./scripts/bench.sh 1           # write BENCH_1.json (a trajectory point)
#   ./scripts/bench.sh ci.json     # write an explicit file (CI scratch run)
#
# Trajectory points are committed BENCH_<N>.json files; passing an index
# (or letting the script pick the next free one) lands a new point
# instead of overwriting history.
#
# Environment:
#   BENCHTIME  go test -benchtime (default 1x: a smoke-grade artifact —
#              one iteration pins the shape without pretending to be a
#              statistically meaningful measurement; use e.g. 100x for
#              real numbers)
#   BENCH      regex of benchmarks to run (default ".")
#   BASELINE   artifact to diff against (default: the highest-numbered
#              BENCH_<N>.json other than the output)
#   CHECK      non-empty: exit 1 when a watched benchmark's ns/op
#              regresses beyond TOLERANCE vs the baseline
#   WATCH      regex of benchmarks the CHECK gate watches
#              (default "^Benchmark(Fig|Surface)")
#   TOLERANCE  relative ns/op regression band for CHECK — the one place
#              the tolerance is configured (default 0.05)
#
# The delta table goes to stdout and, when the variable is set, is
# appended to $GITHUB_STEP_SUMMARY.
#
# Run from the repository root.
set -euo pipefail

OUT=${1:-}
BENCHTIME=${BENCHTIME:-1x}
BENCH=${BENCH:-.}
RAW=$(mktemp)

go test -run '^$' -bench "$BENCH" -benchtime="$BENCHTIME" -benchmem ./... | tee "$RAW"

OUT="$OUT" BASELINE=${BASELINE:-} CHECK=${CHECK:-} WATCH=${WATCH:-} \
TOLERANCE=${TOLERANCE:-} python3 - "$RAW" <<'EOF'
import glob, json, os, re, sys

# Units go test -benchmem always reports; any other unit is a custom
# metric a benchmark reported with b.ReportMetric.
STANDARD_UNITS = ("ns/op", "B/op", "allocs/op")

def parse(path):
    rows = []
    # Benchmark lines are "name iterations <value unit>..." with the
    # value/unit pairs in any order (custom metrics like "x-paper" may
    # sit between ns/op and the -benchmem pairs), so scan by unit.
    for line in open(path):
        fields = line.split()
        if len(fields) < 4 or not fields[0].startswith("Benchmark"):
            continue
        units = dict(zip(fields[3::2], fields[2::2]))
        if "ns/op" not in units:
            continue
        row = {"name": fields[0], "ns_per_op": float(units["ns/op"])}
        if "allocs/op" in units:
            row["allocs_per_op"] = int(units["allocs/op"])
        metrics = {u: float(v) for u, v in units.items() if u not in STANDARD_UNITS}
        if metrics:
            row["metrics"] = metrics
        rows.append(row)
    assert rows, "no benchmark result lines parsed"
    return rows

def trajectory_index(path):
    m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
    return int(m.group(1)) if m else None

out = os.environ.get("OUT") or ""
if out.isdigit():
    out = "BENCH_%s.json" % out
elif not out:
    taken = [trajectory_index(p) for p in glob.glob("BENCH_*.json")]
    taken = [i for i in taken if i is not None]
    out = "BENCH_%d.json" % (max(taken) + 1 if taken else 0)

rows = parse(sys.argv[1])
with open(out, "w") as f:
    json.dump(rows, f, indent=2)
    f.write("\n")
print("bench: wrote %d results to %s" % (len(rows), out))

baseline = os.environ.get("BASELINE")
if not baseline:
    points = {trajectory_index(p): p for p in glob.glob("BENCH_*.json")}
    points.pop(trajectory_index(out), None)
    points.pop(None, None)
    baseline = points[max(points)] if points else ""
if not baseline or not os.path.exists(baseline):
    print("bench: no baseline artifact to diff against")
    sys.exit(0)

old = {r["name"]: r for r in json.load(open(baseline))}
lines = [
    "## Benchmark deltas: %s vs %s" % (out, baseline),
    "",
    "| benchmark | ns/op | was | Δ | allocs/op | was | Δ |",
    "|---|---|---|---|---|---|---|",
]
def delta(new, was):
    # A missing measurement on either side, or a zero baseline (an
    # alloc-free benchmark), has no meaningful relative delta: print
    # n/a instead of dividing by zero or reporting a bogus -100%.
    if new is None or was is None or not was:
        return "n/a"
    return "%+.1f%%" % (100.0 * (new - was) / was)
for r in rows:
    o = old.get(r["name"])
    if o is None:
        lines.append("| %s | %.0f | — | new | %s | — | |"
                     % (r["name"], r["ns_per_op"], r.get("allocs_per_op", "")))
        continue
    lines.append("| %s | %.0f | %.0f | %s | %s | %s | %s |" % (
        r["name"], r["ns_per_op"], o["ns_per_op"],
        delta(r["ns_per_op"], o["ns_per_op"]),
        r.get("allocs_per_op", ""), o.get("allocs_per_op", ""),
        delta(r.get("allocs_per_op"), o.get("allocs_per_op"))))
custom = [
    "",
    "| benchmark | metric | value | was | Δ |",
    "|---|---|---|---|---|",
]
for r in rows:
    was = old.get(r["name"], {}).get("metrics", {})
    for unit, value in sorted(r.get("metrics", {}).items()):
        custom.append("| %s | %s | %.4g | %s | %s |" % (
            r["name"], unit, value,
            "%.4g" % was[unit] if unit in was else "—",
            delta(value, was.get(unit))))
if len(custom) > 3:
    lines += custom
table = "\n".join(lines)
print(table)
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    with open(summary, "a") as f:
        f.write(table + "\n")

if os.environ.get("CHECK"):
    watch = re.compile(os.environ.get("WATCH") or "^Benchmark(Fig|Surface)")
    tol = float(os.environ.get("TOLERANCE") or "0.05")
    bad = []
    for r in rows:
        o = old.get(r["name"])
        if o is None or not watch.search(r["name"]):
            continue
        if r["ns_per_op"] > o["ns_per_op"] * (1 + tol):
            bad.append("%s: %.0f ns/op vs %.0f (>%+.0f%%)"
                       % (r["name"], r["ns_per_op"], o["ns_per_op"], 100 * tol))
    if bad:
        print("bench: ns/op regression beyond tolerance:", file=sys.stderr)
        for b in bad:
            print("  " + b, file=sys.stderr)
        sys.exit(1)
    print("bench: regression gate passed (tolerance %.0f%%)" % (100 * tol))
EOF
