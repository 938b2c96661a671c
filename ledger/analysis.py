"""Pure functions that turn the files jfeed_ledger writes into metrics.

Kept free of I/O and process handling so test_ledger.py can check each rule
on hand-made inputs: percentile and tail selection, SLO accounting, the
order-independent output digest, span self time and the layer ledger's
reconciliation, and cost-class placement of percentiles.
"""

import hashlib
import math

# Candidate tail percentiles, lowest first. The tail of n samples is the
# highest of these with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10

# Cost classes, cheapest first (ledger/workload.h CostClass).
CLASSES = ("hit", "graded", "exhausted")

# Record statuses (ledger.cc RecordStatus).
OK, SHED, ERROR = 0, 1, 2


def rank(pct, n):
    """1-based nearest rank of percentile `pct` among n sorted samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(values, pct):
    """Nearest-rank percentile (a sample value, never interpolated)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(pct, len(ordered)) - 1]


def beyond(pct, n):
    """Samples strictly above the nearest-rank position of `pct`."""
    return n - rank(pct, n)


def tail_percentile(n, ladder=TAIL_LADDER, need=TAIL_BEYOND):
    """Highest ladder percentile with at least `need` samples beyond it,
    or None when even the median has fewer."""
    best = None
    for pct in ladder:
        if beyond(pct, n) >= need:
            best = pct
    return best


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def slo_attainment(outcomes, limit_ms):
    """Share of submissions sent that were answered correctly within the
    limit. `outcomes` holds one (answered_correctly, latency_ms) pair per
    submission sent; sheds, transport errors and wrong answers pass
    answered_correctly=False and count as misses whatever their latency."""
    if not outcomes:
        raise ValueError("no submissions sent")
    met = sum(1 for good, latency in outcomes if good and latency <= limit_ms)
    return met / len(outcomes)


def record_hash(submission_id, key):
    """64-bit hash of one (submission id, outcome key) pair."""
    digest = hashlib.sha256(f"{submission_id}\0{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def digest(pairs):
    """Order-independent digest of (submission id, outcome key) pairs: the
    sum of their hashes modulo 2**64, as 16 hex digits."""
    total = 0
    for submission_id, key in pairs:
        total = (total + record_hash(submission_id, key)) % (1 << 64)
    return f"{total:016x}"


def check_outputs(records, reference):
    """Compares every answered submission with the reference replay.

    `records`: (id, source, status, key) per submission sent; `reference`:
    source -> key of its plain GradingPipeline grade. Returns (ok, digest
    observed, digest expected): ok counts answered submissions whose key
    matches; the digests cover every answered submission, so any mismatch
    makes them differ."""
    observed, expected = [], []
    ok = 0
    for submission_id, source, status, key in records:
        if status != OK:
            continue
        want = reference.get(source)
        observed.append((submission_id, key))
        expected.append((submission_id, want))
        if key == want:
            ok += 1
    return ok, digest(observed), digest(expected)


def class_boundaries(counts):
    """Sample counts at which one cost class ends and the next (non empty)
    one begins. `counts` maps class name -> submissions."""
    present = [counts.get(name, 0) for name in CLASSES if counts.get(name, 0)]
    edges, running = [], 0
    for count in present[:-1]:
        running += count
        edges.append(running)
    return edges


def placement(counts, percentiles):
    """For each percentile, (pct, inside) where inside means at least
    max(10 samples, 2% of them) lie between it and every class boundary."""
    total = sum(counts.values())
    margin = max(TAIL_BEYOND, 0.02 * total)
    edges = class_boundaries(counts)
    return [(pct, all(abs(pct * total / 100.0 - edge) >= margin for edge in edges))
            for pct in percentiles]


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children. `spans` maps id -> dict(start, end, parent).
    Children are clipped to the parent and their overlaps merged, so
    concurrent children are not counted twice."""
    children = {}
    for sid, span in spans.items():
        children.setdefault(span["parent"], []).append(sid)
    result = {}
    for sid, span in spans.items():
        intervals = sorted(
            (max(spans[c]["start"], span["start"]), min(spans[c]["end"], span["end"]))
            for c in children.get(sid, ()))
        covered, cur_start, cur_end = 0.0, None, None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        result[sid] = (span["end"] - span["start"]) - covered
    return result


def subtree(spans, root):
    """Ids of `root` and every span below it."""
    children = {}
    for sid, span in spans.items():
        children.setdefault(span["parent"], []).append(sid)
    found, stack = [], [root]
    while stack:
        sid = stack.pop()
        found.append(sid)
        stack.extend(children.get(sid, ()))
    return found


def ledger(spans, root, layer_of):
    """Attributes the wall time of span `root` to layers.

    `layer_of(span)` names the layer a span's self time belongs to, or None
    for harness time (the root itself, per-input wrappers). Returns
    (wall, {layer: self time}, unattributed, error), where error is wall
    minus the sum of every self time in the subtree, which is zero when the
    spans nest properly."""
    selfs = self_times(spans)
    ids = subtree(spans, root)
    wall = spans[root]["end"] - spans[root]["start"]
    layers, unattributed = {}, 0.0
    for sid in ids:
        layer = layer_of(spans[sid])
        if layer is None:
            unattributed += selfs[sid]
        else:
            layers[layer] = layers.get(layer, 0.0) + selfs[sid]
    error = wall - sum(selfs[sid] for sid in ids)
    return wall, layers, unattributed, error
