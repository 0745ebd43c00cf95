"""Statistics helpers of the repo benchmark (see perfbench/README.md)."""

import math
from collections import defaultdict

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `values` (0 < q < 1), or None when fewer
    than `min_beyond` samples lie beyond it."""
    xs = sorted(values)
    if not xs:
        return None
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def covered_ns(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover. `spans` is a list of
    (op, layer, call, start_ns, end_ns, parent_index) tuples."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[5] >= 0:
            children[span[5]].append((span[3], span[4]))
    return [
        (span[4] - span[3]) - covered_ns(span[3], span[4], children[i])
        for i, span in enumerate(spans)
    ]


def layer_self_ns(spans):
    """Self time summed per layer."""
    totals = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        totals[span[1]] += own
    return dict(totals)


def fail_frac(ops):
    """(attempted, failed, failed / attempted) over op records; an op
    failed when it carries a failure reason."""
    attempted = len(ops)
    failed = sum(1 for op in ops if op["failure"])
    return attempted, failed, (failed / attempted if attempted else 0.0)


def balanced_mean(ops, field):
    """Mean of `field` within each op group, then over the groups, so the
    groups weigh equally whatever number of ops each finished."""
    groups = defaultdict(list)
    for op in ops:
        groups[op["group"]].append(op[field])
    if not groups:
        return 0.0
    return sum(sum(v) / len(v) for v in groups.values()) / len(groups)
