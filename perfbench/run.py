#!/usr/bin/env python3
"""Repo benchmark: builds perfbench/ from source, runs one workload, checks
its outputs, and prints every metric by name with its unit.

    python3 perfbench/run.py --workload order --seed 1 --seconds 20 --trace 0

Run from the repo root. `--workload all` runs every workload in turn. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1) that BENCHMARK.json names. The exit code is
nonzero when any output check failed or the run could not be made. See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ["order", "wide_order", "delay_budget", "service_mix"]

END_TO_END = [
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("editions_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("fingerprint_bits", "bits"),
    ("delay_overhead_pct", "%"),
]

# Layers the benchmark's spans name, in pipeline order. "bench" is the
# benchmark's own code between calls (and the request wait it cannot see
# into is the "service" layer).
LAYERS = ["io", "location", "embed", "reduce", "codebook", "stamp", "cec",
          "extract", "sim", "service", "bench"]

# Telemetry counters the traced run snapshots, reported per traced op.
COUNTERS = ["cec.incremental.gates_reused", "cec.incremental.gates_encoded",
            "heur.trials", "sat.conflicts"]

PER_LAYER = (
    [("cec.ms_per_edition", "ms"), ("cec.proven_frac", "ratio"),
     ("cec.escalated", "count"), ("sat.conflicts", "count"),
     ("sat.decisions", "count"), ("sat.propagations", "count"),
     ("embed.ms", "ms"), ("reduce.ms", "ms"), ("reduce.sta_evals", "count"),
     ("reduce.ms_per_sta_eval", "ms"), ("reduce.kicks", "count"),
     ("reduce.sites_kept", "count"), ("stamp.ms_per_edition", "ms"),
     ("location.ms", "ms"), ("location.sites", "count"),
     ("io.parse_ms", "ms"), ("io.write_ms", "ms"),
     ("service.submit_ms_p50", "ms"), ("service.submit_ms_p90", "ms"),
     ("service.shed_frac", "ratio"), ("service.queue_depth_max", "count"),
     ("trace.overhead_pct", "%")]
    + [(f"layer.{l}.self_ms", "ms") for l in LAYERS]
    + [(f"layer.{l}.share_pct", "%") for l in LAYERS]
    + [(f"telemetry.{c}", "count") for c in COUNTERS]
)


class BenchError(Exception):
    pass


def build(build_root):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        raise BenchError("odcfp sources (src/) not found next to perfbench/")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "odcfp_perfbench")


def run_binary(binary, build_root, args, workload):
    out = os.path.join(build_root, f"last-{workload}.json")
    state_root = os.path.join(build_root, "state")
    os.makedirs(state_root, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-root", os.path.relpath(state_root), "--out", out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload}: benchmark binary exited "
                         f"{proc.returncode}")
    with open(out) as f:
        return json.load(f)


def op_ms(op):
    return (op["end_ns"] - op["start_ns"]) / 1e6


def required_percentile(values, q, what):
    value = stats.percentile(values, q)
    if value is None:
        raise BenchError(f"{what}: {len(values)} samples are too few for "
                         f"p{round(q * 100)}")
    return value


def end_to_end(raw):
    """End-to-end metrics of the untraced phase, plus extras printed only."""
    phase = raw["phases"][0]
    ops = [op for op in raw["ops"] if op["phase"] == 0]
    ok = [op for op in ops if not op["failure"]] or ops
    ms = [op_ms(op) for op in ops]
    metrics = {
        "op_ms_p50": required_percentile(ms, 0.5, "op_ms"),
        "ops_per_s": len(ops) / phase["wall_s"],
        "editions_per_s": sum(op["editions"] for op in ops) / phase["wall_s"],
        "cpu_ms_per_op": 1e3 * phase["cpu_s"] / len(ops),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_s"]),
        "fingerprint_bits": stats.balanced_mean(ok, "bits"),
        "delay_overhead_pct": stats.balanced_mean(ok, "delay_pct"),
    }
    p90 = stats.percentile(ms, 0.9)
    extras = {"op_ms_p90": ("n/a" if p90 is None else f"{p90:.4f}", "ms"),
              "samples": (str(len(ms)), "ops")}
    return metrics, extras


def trace_overhead_pct(ops):
    """Traced over untraced op time, as the mean over op groups of the
    ratio of group medians (for a closed loop, the inverse of the
    ops_per_s ratio; groups keep the circuit mix out of the comparison)."""
    by_group = {}
    for op in ops:
        by_group.setdefault(op["group"], ([], []))[op["phase"]].append(
            op_ms(op))
    ratios = [statistics.median(traced) / statistics.median(untraced)
              for untraced, traced in by_group.values() if untraced and traced]
    return 100.0 * (statistics.mean(ratios) - 1.0) if ratios else 0.0


def per_layer(raw):
    """Per-layer metrics of the traced phase."""
    ops = [op for op in raw["ops"] if op["phase"] == 1]
    n = max(1, len(ops))
    spans = [tuple(s) for s in raw["spans"]]

    def total(name):
        return sum(op["counts"].get(name, 0.0) for op in ops)

    def span_ms(layer, call=None):
        return sum(s[4] - s[3] for s in spans
                   if s[1] == layer and (call is None or s[2] == call)) / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    def samples(name):
        return [op["counts"][name] for op in ops if name in op["counts"]]

    def pct(name, q):
        values = samples(name)
        return required_percentile(values, q, name) if values else 0.0

    editions = total("cec.editions")
    m = {
        "cec.ms_per_edition": ratio(span_ms("cec"), editions),
        "cec.proven_frac": ratio(total("cec.proven"), editions),
        "cec.escalated": total("cec.escalated"),
        "sat.conflicts": ratio(total("sat.conflicts"), editions),
        "sat.decisions": ratio(total("sat.decisions"), editions),
        "sat.propagations": ratio(total("sat.propagations"), editions),
        "embed.ms": span_ms("embed") / n,
        "reduce.ms": span_ms("reduce") / n,
        "reduce.sta_evals": total("reduce.sta_evals") / n,
        "reduce.ms_per_sta_eval": ratio(span_ms("reduce"),
                                        total("reduce.sta_evals")),
        "reduce.kicks": total("reduce.kicks") / n,
        "reduce.sites_kept": total("reduce.sites_kept") / n,
        "stamp.ms_per_edition": ratio(span_ms("stamp"),
                                      total("stamp.editions")),
        "location.ms": span_ms("location") / n,
        "location.sites": total("location.sites") / n,
        "io.parse_ms": span_ms("io", "read_verilog_string") / n,
        "io.write_ms": span_ms("io", "to_verilog_string") / n,
        "service.submit_ms_p50": pct("service.submit_ms", 0.5),
        "service.submit_ms_p90": pct("service.submit_ms", 0.9),
        "service.shed_frac": ratio(total("service.shed"),
                                   len(samples("service.shed"))),
        "service.queue_depth_max": max(samples("service.queue_depth"),
                                       default=0.0),
        "trace.overhead_pct": trace_overhead_pct(raw["ops"]),
    }
    own = stats.layer_self_ns(spans)
    op_ns = sum(s[4] - s[3] for s in spans if s[5] < 0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = own.get(layer, 0) / 1e6 / n
        m[f"layer.{layer}.share_pct"] = 100.0 * ratio(own.get(layer, 0),
                                                      op_ns)
    for name in COUNTERS:
        m[f"telemetry.{name}"] = raw["counters"].get(name, 0) / n
    return m


def gated_names(section):
    """Names of the metrics BENCHMARK.json gates in `section`; the JSON
    result line carries exactly these."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[section]]


def host_line(raw):
    h = raw["host"]
    return (f"host: nproc={h['nproc']} cpu=\"{h['cpu_model']}\" "
            f"compiler=\"{h['compiler']}\" build={h['build_type']} "
            f"pool_threads={h['pool_threads']} workload={h['workload']} "
            f"seed={h['seed']}")


def report(raw, trace):
    """Prints the metric table; returns the final result object."""
    attempted, failed, frac = stats.fail_frac(raw["ops"])
    print(host_line(raw))
    for op in raw["ops"]:
        if op["failure"]:
            print(f"FAILED op {op['id']} ({op['group']}): {op['failure']}")
    if trace:
        values = per_layer(raw)
        units = dict(PER_LAYER)
        extras = {}
    else:
        values, extras = end_to_end(raw)
        units = dict(END_TO_END)
    extras["fail_frac"] = (f"{frac:.4f}", "ratio")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    for name, (value, unit) in extras.items():
        print(f"  {name:32s} {value:>14s} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in gated_names("per_layer" if trace
                                            else "end_to_end")},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
        ok = True
        for workload in (WORKLOADS if args.workload == "all"
                         else [args.workload]):
            result = report(run_binary(binary, build_root, args, workload),
                            args.trace == 1)
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
