#!/usr/bin/env python3
"""Diff two sets of BENCH_<name>.json artifacts and gate on regressions.

Usage:
  bench_diff.py BASELINE CURRENT [options]
  bench_diff.py --baseline bench/baselines CURRENT [options]

BASELINE and CURRENT are each either a directory containing
BENCH_*.json files (e.g. bench/baselines and a fresh bench-artifacts
dir) or a single artifact file. Artifacts are paired by their "bench"
name.

Stdlib-only on purpose, like validate_bench_json.py: the CI gate must
not need a pip install.

What gates and what doesn't
---------------------------
The point of this tool is a perf-regression *trajectory* gate that is
not flaky. Wall-clock numbers vary run to run and machine to machine,
so they can never hard-fail. Telemetry counters (SAT conflicts, window
sizes, editions stamped, ...) are deterministic functions of the input
in the single-threaded smoke benches, so a counter that moves is a
real behavioural change — that is what gates.

  * telemetry counters and span hit-counts: HARD gate. An increase
    beyond --counter-tolerance (relative, default 0.10) fails the run.
    A decrease is reported as an improvement (and with
    --fail-on-decrease also fails, so a baseline refresh is forced
    instead of silently banking the win).
  * telemetry histograms (schema v3 "hists"): the count, sum, and
    per-bucket counts of value histograms HARD gate exactly like
    counters — their bucket vectors are deterministic multisets.
    Histograms whose name is time-like (batch.edition_ns, cec.check_ns,
    ...) are wall-clock latency and are never compared.
  * row metrics (area_overhead, capacity_bits, ...): SOFT gate. Moves
    beyond --metric-tolerance (default 0.25) print a WARN but do not
    change the exit status.
  * time-like values (total_ns, *_ms, *wall*, *per_sec*, throughput,
    ...): never compared at all.
  * host metadata: never compared (provenance labels only).
  * null metrics (non-finite measurements): skipped.

Missing benches / rows / counters on either side print a WARN; with
--fail-on-missing they fail the run (new counters appearing in CURRENT
are always fine — instrumentation grows).

Exit status: 0 clean, 1 regression (or --fail-on-* violation),
2 usage or I/O error.
"""

import argparse
import json
import os
import re
import sys

# Substrings that mark a metric as nondeterministic timing; such keys
# are informational and must never participate in the gate.
_TIME_LIKE = re.compile(
    r"(_ns$|_ms$|_us$|_s$|time|wall|seconds|per_sec|throughput|rate)",
    re.IGNORECASE)


def is_time_like(key):
    return _TIME_LIKE.search(key) is not None


def validate_report_shape(path, report):
    """Rejects structurally malformed artifacts with a clear message.

    A truncated or hand-edited baseline can be valid JSON of the wrong
    shape (a list, a bare string, rows that are not objects, ...); every
    such case must exit 2 with the offending path named, never escape as
    an AttributeError traceback mid-diff.
    """
    if not isinstance(report, dict):
        raise ValueError(
            f"{path}: top-level JSON is {type(report).__name__}, "
            f"expected an object (truncated or malformed artifact?)")
    rows = report.get("rows", [])
    if not isinstance(rows, list):
        raise ValueError(f"{path}: 'rows' must be a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: rows[{i}] is not an object")
        if not isinstance(row.get("metrics", {}), dict):
            raise ValueError(f"{path}: rows[{i}].metrics is not an object")
    telemetry = report.get("telemetry")
    if telemetry is not None:
        _validate_telemetry_node(path, "telemetry", telemetry)


def _validate_telemetry_node(path, where, node):
    if not isinstance(node, dict):
        raise ValueError(f"{path}: {where} is not an object")
    if not isinstance(node.get("counters", {}), dict):
        raise ValueError(f"{path}: {where}.counters is not an object")
    children = node.get("children", {})
    if not isinstance(children, dict):
        raise ValueError(f"{path}: {where}.children is not an object")
    hists = node.get("hists", {})
    if not isinstance(hists, dict):
        raise ValueError(f"{path}: {where}.hists is not an object")
    for name, hist in hists.items():
        if not isinstance(hist, dict):
            raise ValueError(
                f"{path}: {where}.hists[{name!r}] is not an object")
    for name, sub in children.items():
        _validate_telemetry_node(path, f"{where}.children[{name!r}]", sub)


def load_artifacts(path):
    """Returns {bench_name: report_dict} for a file or directory."""
    paths = []
    if os.path.isdir(path):
        for entry in sorted(os.listdir(path)):
            if entry.startswith("BENCH_") and entry.endswith(".json"):
                paths.append(os.path.join(path, entry))
    elif os.path.isfile(path):
        paths.append(path)
    else:
        raise OSError(f"{path}: not a file or directory")
    out = {}
    for p in paths:
        with open(p, encoding="utf-8") as f:
            try:
                report = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{p}: malformed JSON ({exc}) — truncated artifact "
                    f"or interrupted bench run?") from exc
        validate_report_shape(p, report)
        name = report.get("bench")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{p}: missing 'bench' name")
        out[name] = report
    return out


def flatten_telemetry(node, prefix, out):
    """telemetry tree -> {"<path>#<counter>": int, "<path>@count": int,
    "<path>%<hist>.count/.sum/.b<i>": int}.

    total_ns is wall-clock and deliberately not flattened; so are
    histograms with time-like names (edition_ns, check_ns, ...) — their
    bucket shape depends on the machine, not the inputs.
    """
    out[f"{prefix}@count"] = node.get("count", 0)
    for key, value in sorted(node.get("counters", {}).items()):
        out[f"{prefix}#{key}"] = value
    for name, hist in sorted(node.get("hists", {}).items()):
        if is_time_like(name):
            continue
        out[f"{prefix}%{name}.count"] = hist.get("count", 0)
        out[f"{prefix}%{name}.sum"] = hist.get("sum", 0)
        for i, bucket in enumerate(hist.get("buckets", [])):
            out[f"{prefix}%{name}.b{i}"] = bucket
    for child, sub in sorted(node.get("children", {}).items()):
        flatten_telemetry(sub, f"{prefix}/{child}", out)


def counters_of(report):
    out = {}
    telemetry = report.get("telemetry")
    if isinstance(telemetry, dict):
        flatten_telemetry(telemetry, "", out)
    return out


def metrics_of(report):
    """{"<row>.<metric>": float} over finite, non-time-like metrics."""
    out = {}
    for row in report.get("rows", []):
        name = row.get("name", "?")
        for key, value in sorted(row.get("metrics", {}).items()):
            if value is None or is_time_like(key):
                continue
            out[f"{name}.{key}"] = value
    return out


def rel_delta(base, cur):
    """Relative change with a floor of 1 on the denominator, so small
    integer counters (0 -> 1) still register as a 100% move instead of
    dividing by zero."""
    return (cur - base) / max(abs(base), 1.0)


class Gate:
    def __init__(self):
        self.regressions = []
        self.improvements = []
        self.warnings = []

    def report(self):
        for msg in self.warnings:
            print(f"WARN  {msg}")
        for msg in self.improvements:
            print(f"BETTER {msg}")
        for msg in self.regressions:
            print(f"FAIL  {msg}")


def diff_bench(name, base, cur, opts, gate):
    base_counters = counters_of(base)
    cur_counters = counters_of(cur)
    compared = 0
    for key in sorted(base_counters):
        if key not in cur_counters:
            msg = f"{name}: counter {key!r} disappeared"
            (gate.regressions if opts.fail_on_missing
             else gate.warnings).append(msg)
            continue
        b, c = base_counters[key], cur_counters[key]
        compared += 1
        if b == c:
            continue
        delta = rel_delta(b, c)
        msg = (f"{name}: counter {key} {b} -> {c} "
               f"({delta:+.1%}, tolerance {opts.counter_tolerance:.0%})")
        if delta > opts.counter_tolerance:
            gate.regressions.append(msg)
        elif delta < -opts.counter_tolerance:
            (gate.regressions if opts.fail_on_decrease
             else gate.improvements).append(msg)
    for key in sorted(set(cur_counters) - set(base_counters)):
        gate.warnings.append(
            f"{name}: new counter {key} = {cur_counters[key]} "
            f"(not in baseline; refresh bench/baselines to start gating it)")

    base_metrics = metrics_of(base)
    cur_metrics = metrics_of(cur)
    for key in sorted(base_metrics):
        if key not in cur_metrics:
            msg = f"{name}: metric {key!r} disappeared"
            (gate.regressions if opts.fail_on_missing
             else gate.warnings).append(msg)
            continue
        b, c = base_metrics[key], cur_metrics[key]
        compared += 1
        if b == c:
            continue
        delta = rel_delta(b, c)
        if abs(delta) > opts.metric_tolerance:
            gate.warnings.append(
                f"{name}: metric {key} {b:g} -> {c:g} ({delta:+.1%}, "
                f"soft tolerance {opts.metric_tolerance:.0%})")
    return compared


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="+", metavar="BASELINE CURRENT",
                        help="baseline then current (each a dir or a "
                             "BENCH_*.json file); with --baseline, just "
                             "the current set")
    parser.add_argument("--baseline", metavar="DIR",
                        help="baseline dir/file, as a flag instead of "
                             "the first positional")
    parser.add_argument("--counter-tolerance", type=float, default=0.10,
                        metavar="FRAC",
                        help="relative increase a telemetry counter may "
                             "show before hard-failing (default 0.10)")
    parser.add_argument("--metric-tolerance", type=float, default=0.25,
                        metavar="FRAC",
                        help="relative move a row metric may show before "
                             "a soft WARN (default 0.25)")
    parser.add_argument("--fail-on-decrease", action="store_true",
                        help="also fail when a counter improves, forcing "
                             "a baseline refresh instead of drift")
    parser.add_argument("--fail-on-missing", action="store_true",
                        help="fail when a baseline bench, row metric, or "
                             "counter is absent from the current run")
    opts = parser.parse_args(argv)
    if opts.baseline is not None and len(opts.paths) == 1:
        baseline_path, current_path = opts.baseline, opts.paths[0]
    elif opts.baseline is None and len(opts.paths) == 2:
        baseline_path, current_path = opts.paths
    else:
        parser.error("expected BASELINE CURRENT, or --baseline DIR CURRENT")

    try:
        base_set = load_artifacts(baseline_path)
        cur_set = load_artifacts(current_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench_diff: {exc}", file=sys.stderr)
        return 2
    if not base_set:
        print(f"bench_diff: no BENCH_*.json under {baseline_path}",
              file=sys.stderr)
        return 2

    gate = Gate()
    compared = 0
    for name in sorted(base_set):
        if name not in cur_set:
            msg = f"bench {name!r} missing from {current_path}"
            (gate.regressions if opts.fail_on_missing
             else gate.warnings).append(msg)
            continue
        compared += diff_bench(name, base_set[name], cur_set[name],
                               opts, gate)
    for name in sorted(set(cur_set) - set(base_set)):
        gate.warnings.append(f"bench {name!r} has no baseline")

    gate.report()
    print(f"bench_diff: {compared} gated values across "
          f"{len(set(base_set) & set(cur_set))} bench(es); "
          f"{len(gate.regressions)} regression(s), "
          f"{len(gate.improvements)} improvement(s), "
          f"{len(gate.warnings)} warning(s)")
    return 1 if gate.regressions else 0


if __name__ == "__main__":
    sys.exit(main())
