#!/usr/bin/env python3
"""Check that Chrome trace_event files nest, not only that they parse.

Usage: check_trace_nesting.py [--allow-open] TRACE [TRACE...]

On every (pid, tid) track, each "E" event must close the innermost open
"B" event, and both must carry the same name. Without --allow-open a
track must also end with no "B" left open; pass it for stitched
timelines, where a worker SIGKILLed mid-span leaves its last spans open.

Stdlib-only, like the other tools/ checkers. Prints the B/E totals of
each file. Exit status: 0 when every file nests, 1 otherwise.
"""

import json
import sys


def check(path, allow_open):
    """Returns (b_count, e_count, errors) for one trace file."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not isinstance(events, list):
        return 0, 0, ["traceEvents is not a list"]
    open_spans = {}  # (pid, tid) -> names of the open B events, outermost first
    begins = ends = 0
    errors = []
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E"):
            continue
        stack = open_spans.setdefault((ev["pid"], ev["tid"]), [])
        if ph == "B":
            begins += 1
            stack.append(ev["name"])
            continue
        ends += 1
        if not stack:
            errors.append(f"E {ev['name']!r} with no open B on "
                          f"pid {ev['pid']} tid {ev['tid']}")
        elif stack[-1] != ev["name"]:
            errors.append(f"E {ev['name']!r} closes B {stack[-1]!r} on "
                          f"pid {ev['pid']} tid {ev['tid']}")
        else:
            stack.pop()
    if not allow_open:
        for (pid, tid), stack in sorted(open_spans.items()):
            if stack:
                errors.append(f"{len(stack)} B left open on pid {pid} "
                              f"tid {tid}: {stack}")
    return begins, ends, errors


def main(argv):
    allow_open = "--allow-open" in argv
    paths = [a for a in argv if a != "--allow-open"]
    if not paths:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        begins, ends, errors = check(path, allow_open)
        print(f"{path}: {begins} B, {ends} E"
              + (f", {len(errors)} error(s)" if errors else ""))
        for e in errors[:10]:
            print(f"  {e}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
