#!/usr/bin/env python3
"""jfeed-ledger: the grading cost benchmark.

    python3 ledger/run.py --workload oracle-heavy --seed 1 --seconds 15 --trace 0

Builds jfeed_ledger (or, for --trace 1, jfeed_ledger_traced) and jfeedd from
the checkout's sources into .bench_build/ledger, runs one workload and
prints a report followed by one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones from a separate traced
run. README.md in this directory explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # Keep the source tree free of caches.
sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ledger"
WORKLOADS = ("oracle-heavy", "structure-heavy", "deadline-spike")
# A run whose generator sent its p99 submission later than this after a
# sender was free to send it measured the generator, not the system.
LAG_LIMIT_MS = 10.0
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(traced):
    """Configures (once) and builds jfeedd and the ledger binary for the
    mode (jfeed_ledger_traced links the counting allocator); returns the
    ledger binary's path and jfeedd's."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no jfeed sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    ledger = "jfeed_ledger_traced" if traced else "jfeed_ledger"
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    ledger, "jfeedd"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / ledger, BUILD / "jfeedd"


def read_records(path):
    records = []
    for line in path.read_text().splitlines():
        f = line.split("\t")
        records.append({"id": f[0], "row": int(f[1]), "source": int(f[2]),
                        "plan_class": int(f[3]), "due": int(f[4]),
                        "ready": int(f[5]), "sent": int(f[6]),
                        "done": int(f[7]), "status": int(f[8]), "key": f[9]})
    return records


def read_reference(path):
    reference = {}
    for line in path.read_text().splitlines():
        f = line.split("\t")
        reference[int(f[0])] = {"key": f[2], "exhausted": int(f[3])}
    return reference


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(summary, records, reference):
    """The end-to-end metrics of one measured run, plus its validity."""
    open_loop = summary["open_loop"]
    attempted = len(records)
    ok, got, want = analysis.check_outputs(
        [(r["id"], r["source"], r["status"], r["key"]) for r in records],
        {s: ref["key"] for s, ref in reference.items()})
    answered = [r for r in records if r["status"] == analysis.OK]
    latency = {r["id"]: (r["done"] - (r["due"] if open_loop else r["sent"])) / 1e6
               for r in records}
    correct_ids = {r["id"] for r in answered
                   if r["key"] == reference[r["source"]]["key"]}
    lat_ok = [latency[r["id"]] for r in answered]
    problems = []
    if got != want:
        problems.append(f"output digest {got} != reference {want}")
    if not lat_ok:
        problems.append("no submission was answered")
        lat_ok = [float("nan")]
    tail = summary["tail_pct"]
    if analysis.beyond(tail, len(lat_ok)) < analysis.TAIL_BEYOND:
        problems.append(f"p{tail:g} has fewer than {analysis.TAIL_BEYOND} "
                        f"samples beyond it ({len(lat_ok)} samples)")
    # The generator's own lateness: how long after a sender was free to send
    # a due submission it actually sent it. (Waiting for a free connection
    # is the daemon's slowness and already counts in latency from due.)
    lag = [(r["sent"] - r["ready"]) / 1e6 for r in records]
    lag_tail = analysis.percentile(lag, 99.0)
    if lag_tail > LAG_LIMIT_MS:
        problems.append(f"generator fell behind: p99 send lag {lag_tail:.2f} ms "
                        f"> {LAG_LIMIT_MS} ms")

    # Cost classes: a predicted result-cache hit (open loop), else whether
    # the reference grade exhausted a budget.
    counts = {name: 0 for name in analysis.CLASSES}
    for r in answered:
        if r["plan_class"] == 0:
            counts["hit"] += 1
        elif reference[r["source"]]["exhausted"] > 0:
            counts["exhausted"] += 1
        else:
            counts["graded"] += 1

    elapsed_s = summary["elapsed_ns"] / 1e9
    metrics = {
        "subs_per_s": metric(len(answered) / elapsed_s, "1/s"),
        "latency_p50_ms": metric(analysis.percentile(lat_ok, 50.0), "ms"),
        "latency_tail_ms": metric(analysis.percentile(lat_ok, tail), "ms"),
        "slo_attainment": metric(analysis.slo_attainment(
            [(r["id"] in correct_ids, latency[r["id"]]) for r in records],
            summary["slo_ms"]), "frac"),
        "ok_frac": metric(ok / attempted, "frac"),
        "setup_s": metric(analysis.median(summary["setup_s"]), "s"),
        "peak_rss_mb": metric(summary["peak_rss_kb"] / 1024.0, "MB"),
        "cpu_ms_per_sub": metric(summary["cpu_ms"] / max(1, len(answered)), "ms"),
    }
    report = [
        f"workload {summary['workload']} seed {summary['seed']}: "
        f"{'open' if open_loop else 'closed'} loop, {summary['generators']} "
        f"{'senders' if open_loop else 'clients'}, {summary['jobs']} grading "
        f"workers, {len(summary['rows'])} tenants, {summary['sources']} "
        f"distinct sources",
        f"sent {attempted}, answered {len(answered)}, correct {ok}, "
        f"shed {sum(r['status'] == analysis.SHED for r in records)}, "
        f"errors {sum(r['status'] == analysis.ERROR for r in records)}; "
        f"digest {got} (reference {want})",
        f"latency p50 and p{tail:g} over {len(lat_ok)} samples "
        f"({analysis.beyond(tail, len(lat_ok))} beyond the tail); "
        f"slo limit {summary['slo_ms']:g} ms; "
        f"generator lag p99 {lag_tail:.3f} ms",
        "cost classes: " + ", ".join(f"{k} {v}" for k, v in counts.items()) +
        (f" (daemon counted {summary['daemon_hits']:.0f} result-cache hits, "
         f"set-up references included)" if open_loop else ""),
        "percentile placement: " + ", ".join(
            f"p{pct:g} {'inside a class' if inside else 'ON A CLASS BOUNDARY'}"
            for pct, inside in analysis.placement(counts, (50.0, tail))),
        f"set-up samples (s): {', '.join(f'{s:.4f}' for s in summary['setup_s'])}; "
        f"reference replay {summary['replay_s']:.2f} s",
    ]
    return metrics, attempted, attempted - ok, problems, report


LAYER_OF_SPAN = {
    "javalang.parse": "javalang",
    "pdg.epdg": "pdg",
    "pdg.match_index": "pdg",
    "core.match": "core",
    "service.oracle": "service",
    "testing.functional": "testing",
}


def load_spans(path):
    events = json.loads(path.read_text())["traceEvents"]
    spans = {}
    for e in events:
        args = dict(e["args"])
        spans[args.pop("id")] = {
            "name": e["name"], "start": e["ts"] * 1000.0,
            "end": (e["ts"] + e["dur"]) * 1000.0, "dur": e["dur"] * 1000.0,
            "parent": args.pop("parent"), "tid": e["tid"], "args": args}
    return spans


def tail_of(values):
    """(value, pct, n) at the highest ladder percentile the sample supports,
    or the maximum when fewer than ten samples lie beyond even the median."""
    pct = analysis.tail_percentile(len(values))
    if pct is None:
        return max(values), 100.0, len(values)
    return analysis.percentile(values, pct), pct, len(values)


def per_layer(summary, spans):
    """The per-layer metrics of one traced run and the ledger report."""
    by_name = {}
    for sid, span in spans.items():
        by_name.setdefault(span["name"], []).append(span)

    def phase(name):
        return next(sid for sid, s in spans.items() if s["name"] == name)

    # Per-input layer times from the layer phase, keyed by the input's
    # submission wrapper span.
    per_input = {}
    for span in spans.values():
        if span["name"] in LAYER_OF_SPAN:
            parent = spans[span["parent"]]
            entry = per_input.setdefault(span["parent"], {"source": parent["args"]["source"]})
            entry[span["name"]] = span
    us = lambda ns: ns / 1e3  # noqa: E731
    parse = [us(e["javalang.parse"]["dur"]) for e in per_input.values()]
    epdg = [us(e["pdg.epdg"]["dur"]) for e in per_input.values() if "pdg.epdg" in e]
    index = [us(e["pdg.match_index"]["dur"]) for e in per_input.values()
             if "pdg.match_index" in e]
    # MatchSubmissionGraphs builds each graph's index again inside the
    # core.match span; its self time is the span less that rebuild.
    match = [us(e["core.match"]["dur"] - e["pdg.match_index"]["dur"])
             for e in per_input.values() if "core.match" in e]
    functional = [e["testing.functional"] for e in per_input.values()
                  if "testing.functional" in e]
    func_us = [us(s["dur"]) for s in functional]
    exhausted = sum(s["args"]["exhausted_tests"] for s in functional)
    # FunctionalVerdict::interp_steps counts completed tests only; a test
    # that exhausts its budget ran max_steps steps.
    steps = sum(s["args"]["interp_steps"] +
                s["args"]["exhausted_tests"] * s["args"]["max_steps"]
                for s in functional)

    grade_by_source = {s["args"]["source"]: s["dur"] for s in by_name["service.grade"]}
    layer_sum = {}
    for e in per_input.values():
        total = sum(e[n]["dur"] for n in ("javalang.parse", "pdg.epdg", "core.match",
                                          "testing.functional") if n in e)
        layer_sum[e["source"]] = total
    unattributed = [us(grade_by_source[s] - layer_sum[s]) for s in layer_sum]

    sched = by_name.get("sched.submit_wait", []) + by_name.get("sched.grade_mixed", [])
    dispositions = [s["args"]["disposition"] for s in sched]
    queue = [us(s["dur"] - grade_by_source[s["args"]["source"]]) for s in sched
             if s["args"]["disposition"] in ("miss", "partial_hit")
             and s["args"]["source"] in grade_by_source]
    reused = sum(s["args"]["methods_reused"] for s in sched
                 if s["args"]["disposition"] in ("miss", "partial_hit"))
    regraded = sum(s["args"]["methods_regraded"] for s in sched
                   if s["args"]["disposition"] in ("miss", "partial_hit"))
    sched_by_input = {s["args"]["input"]: s["dur"] for s in sched}
    http = by_name["http.roundtrip"]
    overhead = [us(s["dur"] - sched_by_input[s["args"]["input"]]) for s in http
                if s["args"]["status"] == analysis.OK
                and s["args"]["input"] in sched_by_input]
    lag_ms = [s["args"]["lag_ns"] / 1e6 for s in http]

    # Output check: every scheduler and HTTP answer carries the key Grade
    # gave the same source.
    grade_key = {s["args"]["source"]: s["args"]["key"] for s in by_name["service.grade"]}
    answers = [(f"{s['name']}#{s['args']['input']}", s["args"]["source"],
                analysis.OK if s["args"]["key"] != "-" else analysis.ERROR,
                s["args"]["key"]) for s in sched + http]
    ok, got, want = analysis.check_outputs(answers, grade_key)
    problems = [] if got == want else [f"output digest {got} != Grade's {want}"]

    # The ledger: the layer phase's wall time split into layer self times
    # and the harness remainder.
    wall, layers, rest, error = analysis.ledger(
        spans, phase("phase.layers"),
        lambda s: LAYER_OF_SPAN.get(s["name"]))
    rebuilt = sum(e["pdg.match_index"]["dur"] for e in per_input.values()
                  if "core.match" in e)
    layers["core"] = layers.get("core", 0.0) - rebuilt
    rest += rebuilt
    n = len(per_input)

    def fmt_tail(name, values):
        value, pct, count = tail_of(values)
        return value, f"{name} p{pct:g} of {count}"

    parse_tail, parse_note = fmt_tail("parse", parse)
    match_tail, match_note = fmt_tail("match", match)
    func_tail, func_note = fmt_tail("functional", func_us) if func_us else (0.0, "")
    queue_tail, queue_note = fmt_tail("queue", queue) if queue else (0.0, "")
    http_tail, http_note = fmt_tail("http", overhead) if overhead else (0.0, "")
    lag_tail, lag_note = fmt_tail("lag", lag_ms)
    func_ns = sum(s["dur"] for s in functional)
    spans_total = summary["spans"]
    traced_ns = summary["traced_s"] * 1e9
    metrics = {
        "kb.load_ms": metric(analysis.median(summary["kb_ms"]), "ms"),
        "service.oracle_fill_ms": metric(analysis.median(summary["oracle_ms"]), "ms"),
        "javalang.parse_us_p50": metric(analysis.median(parse), "us"),
        "javalang.parse_us_tail": metric(parse_tail, "us"),
        "pdg.epdg_us_p50": metric(analysis.median(epdg), "us"),
        "pdg.match_index_us_p50": metric(analysis.median(index), "us"),
        "core.match_us_p50": metric(analysis.median(match), "us"),
        "core.match_us_tail": metric(match_tail, "us"),
        "core.match_steps": metric(sum(e["core.match"]["args"].get("steps", 0)
                                       for e in per_input.values() if "core.match" in e), "count"),
        "core.regex_checks": metric(sum(e["core.match"]["args"].get("regex_checks", 0)
                                        for e in per_input.values() if "core.match" in e), "count"),
        "testing.functional_us_p50": metric(analysis.median(func_us) if func_us else 0.0, "us"),
        "testing.functional_us_tail": metric(func_tail, "us"),
        "interp.steps": metric(steps, "count"),
        "testing.exhausted_tests": metric(exhausted, "count"),
        "interp.ns_per_step": metric(func_ns / steps if steps else 0.0, "ns"),
        "service.grade_us_p50": metric(analysis.median(
            [us(d) for d in grade_by_source.values()]), "us"),
        "service.unattributed_us": metric(analysis.median(unattributed), "us"),
        "service.methods_reused_frac": metric(
            reused / (reused + regraded) if reused + regraded else 0.0, "frac"),
        "alloc.per_sub": metric(sum(s["args"]["allocs"] for s in by_name["service.grade"]) /
                                len(by_name["service.grade"]), "count"),
        "sched.queue_us_p50": metric(analysis.median(queue) if queue else 0.0, "us"),
        "sched.queue_us_tail": metric(queue_tail, "us"),
        "sched.cache_hit_frac": metric(dispositions.count("hit") / len(sched), "frac"),
        "sched.shed_frac": metric(dispositions.count("shed") / len(sched), "frac"),
        "http.overhead_us_p50": metric(analysis.median(overhead) if overhead else 0.0, "us"),
        "http.overhead_us_tail": metric(http_tail, "us"),
        "gen.lag_ms_tail": metric(lag_tail, "ms"),
        "trace.overhead_frac": metric(summary["span_cost_ns"] * spans_total / traced_ns, "frac"),
        "trace.unattributed_frac": metric(rest / wall, "frac"),
    }
    for layer in ("javalang", "pdg", "core", "service", "testing"):
        metrics[f"share.{layer}"] = metric(layers.get(layer, 0.0) / wall, "frac")

    largest = max(layers, key=layers.get)
    report = [f"traced run, workload {summary['workload']} seed {summary['seed']}: "
              f"{n} inputs through the layers one by one, then Grade, the "
              f"scheduler and jfeedd ({len(sched)} and {len(http)} submissions)",
              f"where the time goes (layer phase wall {wall / 1e6:.2f} ms):"]
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        report.append(f"  {layer:<12}{value / 1e6:>11.2f} ms {100 * value / wall:6.1f}%")
    report.append(f"  {'unattributed':<12}{rest / 1e6:>11.2f} ms {100 * rest / wall:6.1f}%"
                  f"  (harness glue and the index rebuilt inside core.match)")
    report.append(f"  layers + unattributed = {(sum(layers.values()) + rest) / 1e6:.3f} ms"
                  f" = wall {wall / 1e6:.3f} ms (self-time reconciliation error "
                  f"{error / 1e3:.3f} us); largest layer: {largest}")
    report.append("tails: " + "; ".join(x for x in (parse_note, match_note, func_note,
                                                   queue_note, http_note, lag_note) if x))
    report.append(f"tracing: {spans_total} spans at {summary['span_cost_ns']:.0f} ns each "
                  f"over {summary['traced_s']:.2f} s traced")
    report.append(f"output check: {ok} of {len(answers)} scheduler and HTTP answers "
                  f"match Grade; digest {got} (Grade {want})")
    return metrics, len(answers), len(answers) - ok, problems, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ledger_bin, jfeedd_bin = build(traced=bool(args.trace))
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        log(f"run.py: build failed: {err}")
        return 2
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs))
    try:
        cmd = [str(ledger_bin), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace), "--out", str(out),
               "--jfeedd", str(jfeedd_bin)]
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("run.py: jfeed_ledger timed out")
            return 3
        if done.returncode != 0:
            log(f"run.py: jfeed_ledger exited with {done.returncode}")
            return 3
        summary = json.loads((out / "summary.json").read_text())
        if args.trace:
            metrics, attempted, failed, problems, report = per_layer(
                summary, load_spans(out / "trace.json"))
        else:
            metrics, attempted, failed, problems, report = end_to_end(
                summary, read_records(out / "records.tsv"),
                read_reference(out / "reference.tsv"))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for line in report:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<28}{m['value']:>16.6g} {m['unit']}")
    for problem in problems:
        print(f"INVALID: {problem}")
    bad = [n for n, m in metrics.items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        problems.append(f"non-finite metrics: {bad}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
