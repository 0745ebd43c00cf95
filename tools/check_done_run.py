#!/usr/bin/env python3
"""Check that `odcfp_report --json` reads a run dir as finished.

Usage: check_done_run.py REPORT [REPORT...]

Each REPORT is the JSON an `odcfp_report RUN_DIR --json` run printed.
A finished run must read:

  * state "done", with every buyer committed;
  * shard rows whose committed counts, read from the shard journals,
    sum to the buyers;
  * a p50 edition latency for every shard that committed;
  * a makespan, and a critical path naming a shard that committed.

Stdlib-only, like the other tools/ checkers. Exit status: 0 when every
report passes, 1 otherwise.
"""

import json
import sys


def check(report):
    """Returns the list of failed checks for one parsed report."""
    errors = []
    if report["state"] != "done":
        errors.append(f"state is {report['state']!r}, not 'done'")
    if report["committed"] != report["buyers"]:
        errors.append(f"{report['committed']} of {report['buyers']} "
                      "buyers committed")
    shards = report["shards"]
    shard_sum = sum(s["committed"] for s in shards)
    if shard_sum != report["buyers"]:
        errors.append(f"shard rows commit {shard_sum} buyers, not "
                      f"{report['buyers']}")
    for s in shards:
        if s["committed"] > 0 and s["p50_ns"] <= 0:
            errors.append(f"shard {s['shard']} committed without a p50")
    if report["makespan_ns"] <= 0:
        errors.append("no makespan")
    cp = report["critical_path_shard"]
    if not any(s["shard"] == cp and s["committed"] > 0 for s in shards):
        errors.append(f"critical path shard {cp} committed nothing")
    return errors


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 1
    failed = 0
    for path in paths:
        with open(path) as f:
            errors = check(json.load(f))
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        failed += bool(errors)
    print(f"{len(paths) - failed} of {len(paths)} report(s) read a "
          "finished run")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
