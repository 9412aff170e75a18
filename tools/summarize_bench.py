#!/usr/bin/env python3
"""Summarizes bench_output.txt into per-figure series tables.

Usage:
    python3 tools/summarize_bench.py [bench_output.txt] [metrics.json ...]

Parses google-benchmark console output produced by
`for b in build/bench/*; do $b; done` and prints, per figure benchmark,
one row per (x, series) with the per-query time or the reduction-ratio
counters — the numbers plotted in the paper's Figures 4.20-4.23.

Arguments ending in .json are treated as metric-registry dumps (produced
by running a bench binary with GQL_BENCH_METRICS_JSON=<path>, or saved
from gqlsh's `:metrics json`) and summarized as counter totals plus
histogram count/sum/mean/p50/p90/p99. Histogram percentiles are derived
from the registry's log2 buckets (bucket 0 holds value 0, bucket i holds
[2^(i-1), 2^i)) by interpolating within the bucket and clamping to the
recorded [min, max] — mirroring obs::HistogramSnapshot::Percentile.
"""

import json
import re
import sys
from collections import defaultdict

LINE = re.compile(
    r"^(BM_\w+)/((?:[\w:]+/?)*?)\s+([\d.]+) (ns|us|ms|s)\s+"
    r"[\d.]+ (?:ns|us|ms|s)\s+\d+\s*(.*)$"
)
COUNTER = re.compile(r"(\w+)=([-\d.e+]+[kMGTmunpfazy]?)")

SUFFIX = {
    "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
    "m": 1e-3, "u": 1e-6, "n": 1e-9, "p": 1e-12,
    "f": 1e-15, "a": 1e-18, "z": 1e-21, "y": 1e-24,
}


def parse_counter_value(text):
    if text and text[-1] in SUFFIX:
        return float(text[:-1]) * SUFFIX[text[-1]]
    return float(text)


def bucket_lower_bound(i):
    """Lower bound of log2 bucket i (see obs::Histogram::BucketLowerBound)."""
    return 0 if i == 0 else 1 << (i - 1)


def bucket_upper_bound(i):
    """Upper bound of log2 bucket i (see obs::Histogram::BucketUpperBound)."""
    return 0 if i == 0 else (1 << i) - 1


def histogram_percentile(buckets, count, p, lo=0, hi=None):
    """Percentile estimate mirroring obs::HistogramSnapshot::Percentile:
    linear interpolation within the covering bucket, clamped to the
    recorded [lo, hi] extrema (exact for min/max, a factor-of-2 estimate
    in between)."""
    if count == 0:
        return 0
    if hi is None:
        hi = bucket_upper_bound(len(buckets) - 1)
    rank = max(1, int(p * count))
    seen = 0
    for i, c in enumerate(buckets):
        if c == 0:
            continue
        before = seen
        seen += c
        if seen < rank:
            continue
        blo = max(bucket_lower_bound(i), lo)
        bhi = min(bucket_upper_bound(i), hi)
        if bhi <= blo:
            return min(max(blo, lo), hi)
        v = blo + int((bhi - blo) * (rank - before) / c + 0.5)
        return min(max(v, lo), hi)
    return hi


def format_stamp(data):
    """One-line rendering of a BENCH_*.json provenance stamp, if present."""
    stamp = data.get("stamp")
    if not isinstance(stamp, dict):
        return ""
    return (f"  stamp: build={stamp.get('build_type', '?')}  "
            f"hw_threads={stamp.get('hardware_concurrency', '?')}  "
            f"gql_threads={stamp.get('gql_threads', '?')}")


def summarize_parallel(path, data):
    """Renders a bench_parallel_scaling dump (BENCH_parallel.json)."""
    print(f"\n== parallel scaling: {path} ==")
    stamp = format_stamp(data)
    if stamp:
        print(stamp)
    print(f"  workload: {data.get('workload', '?')}  "
          f"queries={data.get('queries', '?')}  "
          f"reps={data.get('reps', '?')}  "
          f"hw_threads={data.get('hardware_concurrency', '?')}")
    ident = data.get("identical")
    print(f"  match lists identical across sweep: {ident}")
    results = data.get("results", [])
    if results:
        print(f"  {'threads':>8} {'ms':>10} {'speedup':>9} {'stolen':>10} "
              f"{'retr_ms':>9} {'refine_ms':>10} {'search_ms':>10}")
        for r in results:
            print(f"  {r.get('threads', 0):>8} {r.get('ms', 0):>10.2f} "
                  f"{r.get('speedup', 0):>8.2f}x "
                  f"{r.get('tasks_stolen', 0):>10} "
                  f"{r.get('ms_retrieve', 0):>9.2f} "
                  f"{r.get('ms_refine', 0):>10.2f} "
                  f"{r.get('ms_search', 0):>10.2f}")


def summarize_storage(path, data):
    """Renders a bench_storage_snapshot dump (BENCH_storage.json)."""
    print(f"\n== storage snapshot: {path} ==")
    stamp = format_stamp(data)
    if stamp:
        print(stamp)
    print(f"  workload: {data.get('workload', '?')}  "
          f"reps={data.get('reps', '?')}")
    print(f"  snapshot: {data.get('snapshot_bytes', 0)} bytes "
          f"(csr {data.get('snapshot_csr_bytes', 0)}, "
          f"columns {data.get('snapshot_column_bytes', 0)}), "
          f"built in {data.get('snapshot_build_us', 0)} us")
    print(f"  match lists identical across lanes: {data.get('identical')}")
    lanes = data.get("lanes", [])
    if lanes:
        print(f"  {'lane':>10} {'ms':>10} {'peak_bytes':>12} "
              f"{'sum_peak_bytes':>15} {'matches':>8}")
        for lane in lanes:
            print(f"  {lane.get('lane', '?'):>10} {lane.get('ms', 0):>10.2f} "
                  f"{lane.get('peak_bytes', 0):>12} "
                  f"{lane.get('sum_peak_bytes', 0):>15} "
                  f"{lane.get('matches', 0):>8}")
    budget = data.get("sum_peak_budget")
    if budget is not None and lanes:
        print(f"  serial sum of governed peaks: "
              f"{lanes[0].get('sum_peak_bytes', 0)} bytes "
              f"(budget {budget})")
    if "recorder_overhead" in data:
        print(f"  flight-recorder overhead: "
              f"{data['recorder_overhead'] * 100:+.2f}% (budget 2%)")
    pc = data.get("plan_cache")
    if isinstance(pc, dict):
        print(f"  plan cache: cold={pc.get('cold_ms', 0):.2f}ms "
              f"warm={pc.get('warm_ms', 0):.2f}ms "
              f"hits={pc.get('warm_hits', 0)}  "
              f"warm front-end {pc.get('warm_frontend_fraction', 0) * 100:.2f}%"
              f" of time (budget 5%)")
    durable = data.get("durable")
    if isinstance(durable, dict):
        print(f"  durable open (to query-ready):")
        for lane in durable.get("open_lanes", []):
            print(f"  {lane.get('lane', '?'):>12} "
                  f"{lane.get('ms', 0):>10.2f} ms  "
                  f"{lane.get('file_bytes', 0):>10} file bytes")
        print(f"  v3 open speedup: "
              f"{durable.get('open_speedup_vs_text', 0):.1f}x vs v2 text "
              f"(budget 10x), "
              f"{durable.get('open_speedup_vs_binary', 0):.1f}x vs v2 "
              f"binary; materialized identical: {durable.get('identical')}")
        for lane in durable.get("recovery_lanes", []):
            print(f"  recovery {lane.get('lane', '?'):>12} "
                  f"{lane.get('ms', 0):>10.2f} ms  "
                  f"wal_records={lane.get('wal_records', 0)}  "
                  f"checkpoint_docs={lane.get('checkpoint_docs', 0)}")


def summarize_selection(path, data):
    """Renders a bench_selection_vectorized dump (BENCH_selection.json)."""
    print(f"\n== selection: {path} ==")
    stamp = format_stamp(data)
    if stamp:
        print(stamp)
    print(f"  workload: {data.get('workload', '?')}  "
          f"reps={data.get('reps', '?')}  quick={data.get('quick')}")
    print(f"  candidate lists identical across lanes: "
          f"{data.get('identical')}")
    lanes = data.get("lanes", [])
    if lanes:
        print(f"  {'lane':>10} {'retrieve_ms':>12} {'candidates':>11} "
              f"{'vs_ast':>8}")
        for lane in lanes:
            print(f"  {lane.get('lane', '?'):>10} "
                  f"{lane.get('retrieve_ms', 0):>12.3f} "
                  f"{lane.get('candidates', 0):>11} "
                  f"{lane.get('retrieve_speedup', 0):>7.2f}x")
    if "match_ms" in data:
        print(f"  MatchPattern: {data['match_ms']:.2f} ms, "
              f"{data.get('matches', 0)} matches")


def summarize_server(path, data):
    """Renders a tools/loadgen dump (BENCH_server.json)."""
    print(f"\n== server load: {path} ==")
    stamp = format_stamp(data)
    if stamp:
        print(stamp)
    print(f"  mode={data.get('mode', '?')}  "
          f"connections={data.get('connections', '?')}  "
          f"duration={data.get('duration_s', 0):.2f}s")
    sent = data.get("sent", 0)
    ok = data.get("ok", 0)
    shed = data.get("shed", 0)
    governed = data.get("governed", 0)
    print(f"  sent={sent}  ok={ok}  shed={shed}  governed={governed}  "
          f"torn={data.get('torn', 0)}  errors={data.get('errors', 0)}  "
          f"kills={data.get('kills', 0)}")
    print(f"  qps={data.get('qps', 0):.1f}  "
          f"shed_rate={data.get('shed_rate', 0) * 100:.1f}%  "
          f"p50={data.get('p50_us', 0)}us  p95={data.get('p95_us', 0)}us  "
          f"p99={data.get('p99_us', 0)}us")


def summarize_metrics(path):
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            print(f"\n== metrics: {path} ==\n  not a metrics dump: {e}")
            return
    if data.get("bench") == "parallel_scaling":
        summarize_parallel(path, data)
        return
    if data.get("bench") == "storage_snapshot":
        summarize_storage(path, data)
        return
    if data.get("bench") == "selection_vectorized":
        summarize_selection(path, data)
        return
    if data.get("bench") == "server_load":
        summarize_server(path, data)
        return
    print(f"\n== metrics: {path} ==")
    stamp = format_stamp(data)
    if stamp:
        print(stamp)
    counters = data.get("counters", {})
    if counters:
        print("  counters:")
        width = max(len(k) for k in counters)
        for name in sorted(counters):
            print(f"    {name:<{width}}  {counters[name]}")
    histograms = data.get("histograms", {})
    if histograms:
        print("  histograms (count / sum / mean / min / max / "
              "p50 / p90 / p99):")
        for name in sorted(histograms):
            h = histograms[name]
            count, total = h.get("count", 0), h.get("sum", 0)
            buckets = h.get("buckets", [])
            lo, hi = h.get("min", 0), h.get("max")
            mean = total / count if count else 0
            p50, p90, p99 = (histogram_percentile(buckets, count, p, lo, hi)
                             for p in (0.5, 0.9, 0.99))
            print(f"    {name}  count={count}  sum={total}  "
                  f"mean={mean:.1f}  min={lo}  max={hi if count else 0}  "
                  f"p50~{p50}  p90~{p90}  p99~{p99}")


def summarize_console(path):
    groups = defaultdict(list)
    with open(path) as f:
        for raw in f:
            m = LINE.match(raw.strip())
            if not m:
                continue
            name, args, time_value, unit, rest = m.groups()
            counters = {k: parse_counter_value(v)
                        for k, v in COUNTER.findall(rest)}
            label_words = [w for w in rest.split()
                           if "=" not in w and w.strip()]
            label = label_words[-1] if label_words else ""
            groups[name].append((args.rstrip("/"), label,
                                 f"{time_value} {unit}", counters))

    for name in sorted(groups):
        print(f"\n== {name} ==")
        for args, label, time_str, counters in groups[name]:
            parts = [f"{args:<40}"]
            if label:
                parts.append(f"{label:<22}")
            parts.append(f"time/iter={time_str:<12}")
            for key in ("s_per_query", "log10_ratio_profiles",
                        "log10_ratio_subgraphs", "log10_ratio_refined",
                        "matches", "candidates", "search_steps",
                        "bipartite_checks", "geomean_space"):
                if key in counters:
                    parts.append(f"{key}={counters[key]:.6g}")
            print("  " + "  ".join(parts))


def main():
    args = sys.argv[1:] or ["bench_output.txt"]
    for path in args:
        if path.endswith(".json"):
            summarize_metrics(path)
        else:
            summarize_console(path)


if __name__ == "__main__":
    main()
