#!/usr/bin/env python3
"""Judge dds_bench result sets: gains, regressions, agreement, spread.

A result set is a directory holding one results.json per invocation of
dds_bench (found recursively, taken in path order), or a list of such
files. Each (metric, workload) pair is judged on its own row:

  compare.py PARENT_SET CHANGE_SET   judge a change against its parent
  compare.py --agree SET_A SET_B     two sets of runs of the same code:
                                     their medians must lie within the bounds
  compare.py --spread SET            run-to-run spread against the bounds
  compare.py --line RESULTS_JSON     the benchmark's one-line result
  compare.py --self-test             run the judge on synthetic data

Judging a change (runs paired in order; alternate which side runs first):
  * unresolved  the spread (interquartile range / median) of either side
                exceeds the metric's bound, and not every change run beats
                every parent run (setup_s is judged on medians only);
  * regression  the change's median is worse than the parent's by more
                than the bound;
  * gain        at least 10 pairs, the change wins >= 9/10 of them (ties
                count for neither), and the medians differ by more than
                the parent's interquartile range;
  * same        otherwise.
A workload whose change runs fail a larger share of queries than the
parent's is flagged, and a gain on it does not count.

The catalog is BENCHMARK.json (end_to_end, the gated metrics) at the
repository root plus metrics.json beside this file (the other metrics
results.json records). Both are judged and compared, but --spread covers
only the gated ones: the others vary between seeds by more than a useful
bound, so run a judgement's pairs on one seed. A metric in results.json
that neither file names, or a catalogued one no workload reports, is
reported on stderr. The exit code is 1 when a regression, a failure-share
increase or (--agree) a disagreement is found, else 0.

--line prints {"correct", "attempted", "failed", "metrics"} for one
results.json: the end_to_end metrics with their units, or for a traced
run the per_layer ones; keys are "<workload>/<metric>" when it holds
several workloads. It fails when a gated metric is missing or its unit
differs from BENCHMARK.json.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")
METRICS_JSON = os.path.join(HERE, "metrics.json")

MEDIAN_ONLY = {"setup_s"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_catalog(recorded=True):
    """metric -> (better, bound), for every metric that has a bound."""
    entries = load_json(BENCHMARK_JSON)["end_to_end"]
    if recorded:
        entries = entries + load_json(METRICS_JSON)["recorded"]
    return {m["name"]: (m["better"], m["bound"]) for m in entries
            if m["bound"] is not None}


def check_catalog(runs):
    """Reports metrics the catalog and the results do not agree on."""
    named = {m["name"] for m in load_json(BENCHMARK_JSON)["end_to_end"]}
    named |= {m["name"] for m in load_json(METRICS_JSON)["recorded"]}
    reported = {m for r in runs for w in r.values() for m in w["metrics"]}
    for m in sorted(reported - named):
        print(f"compare.py: {m} is in results.json but in no catalog",
              file=sys.stderr)
    for m in sorted(named - reported):
        print(f"compare.py: {m} is catalogued but no workload reports it",
              file=sys.stderr)


def result_line(path):
    """The one-line result of the benchmark run that wrote `path`."""
    bench = load_json(BENCHMARK_JSON)
    data = load_json(path)
    workloads = data["workloads"]
    metrics = {}
    for w, r in workloads.items():
        for m in bench["per_layer" if data["trace"] else "end_to_end"]:
            name = m["name"]
            if data["trace"]:
                if name not in r["layers"]:
                    sys.exit(f"compare.py: {w} reports no {name}")
                value = r["layers"][name]
            else:
                if name not in r["metrics"]:
                    sys.exit(f"compare.py: {w} reports no {name}")
                value, unit = (r["metrics"][name][k] for k in ("value", "unit"))
                if unit != m["unit"]:
                    sys.exit(f"compare.py: {name} is in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
            key = name if len(workloads) == 1 else f"{w}/{name}"
            metrics[key] = {"value": value, "unit": m["unit"]}
    failed = sum(r["failed"] for r in workloads.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in workloads.values()),
        "failed": failed,
        "metrics": metrics,
    })


def result_files(path):
    if os.path.isfile(path):
        return [path]
    found = []
    for root, _, files in os.walk(path):
        found += [os.path.join(root, f) for f in files if f == "results.json"]
    return sorted(found)


def load_set(paths):
    """One dict per invocation: workload -> {"metrics", "attempted", "failed"}."""
    runs = []
    for path in paths:
        for f in result_files(path):
            with open(f) as fh:
                data = json.load(fh)
            runs.append({
                w: {
                    "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                }
                for w, r in data["workloads"].items()
            })
    if not runs:
        sys.exit(f"compare.py: no results.json under {paths}")
    check_catalog(runs)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_share(change_median, parent_median, better):
    """How much worse the change is, as a share of the parent (< 0: better)."""
    delta = (change_median - parent_median) / abs(parent_median)
    return -delta if better == "higher" else delta


def is_better(a, b, better):
    return a > b if better == "higher" else a < b


def series(runs, workload, metric):
    return [r[workload]["metrics"][metric] for r in runs
            if workload in r and metric in r[workload]["metrics"]]


def fail_share(runs, workload):
    attempted = sum(r[workload]["attempted"] for r in runs if workload in r)
    failed = sum(r[workload]["failed"] for r in runs if workload in r)
    return failed / attempted if attempted else 0.0


def judge_pair(parent, change, better, bound, metric):
    """Verdict for one (metric, workload) pair plus the numbers behind it."""
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(is_better(c, p, better) for p, c in zip(parent, change))
    worse = worse_share(cm, pm, better)
    spread_max = max(spread(parent), spread(change))
    all_better = all(is_better(c, p, better) for c in change for p in parent)
    if metric not in MEDIAN_ONLY and spread_max > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    elif (n >= MIN_PAIRS and wins >= WIN_SHARE * n and worse < 0
          and abs(cm - pm) > (p3 - p1)):
        verdict = "gain"
    else:
        verdict = "same"
    return verdict, {"pairs": n, "parent_median": pm, "change_median": cm,
                     "worse_share": worse, "spread": spread_max, "wins": wins}


def pairs_of(catalog, a_runs, b_runs):
    workloads = sorted(set().union(*[set(r) for r in a_runs + b_runs]))
    for w in workloads:
        for metric, (better, bound) in catalog.items():
            a, b = series(a_runs, w, metric), series(b_runs, w, metric)
            # Metrics that do not apply read 0 (no transport on tenants_serve).
            if not a or not b or statistics.median(a) == 0:
                continue
            yield w, metric, better, bound, a, b


def judge(catalog, parent_runs, change_runs, out=sys.stdout):
    """Judge a change; returns (rows, bad) where bad counts blocking findings."""
    rows, bad = [], 0
    print(f"{'workload':24} {'metric':24} {'verdict':11} {'parent':>12} "
          f"{'change':>12} {'worse':>8} {'spread':>7} {'bound':>6} wins",
          file=out)
    gains_void = set()
    for w in sorted(set().union(*[set(r) for r in parent_runs + change_runs])):
        if fail_share(change_runs, w) > fail_share(parent_runs, w):
            print(f"{w:24} {'query_fail_frac':24} FAILED     parent "
                  f"{fail_share(parent_runs, w):.3g} change "
                  f"{fail_share(change_runs, w):.3g}", file=out)
            gains_void.add(w)
            bad += 1
    for w, metric, better, bound, p, c in pairs_of(catalog, parent_runs,
                                                    change_runs):
        verdict, s = judge_pair(p, c, better, bound, metric)
        if verdict == "gain" and w in gains_void:
            verdict = "gain-void"
        bad += verdict == "regression"
        rows.append((w, metric, verdict))
        print(f"{w:24} {metric:24} {verdict:11} {s['parent_median']:12.6g} "
              f"{s['change_median']:12.6g} {s['worse_share']:+8.2%} "
              f"{s['spread']:7.2%} {bound:6.2%} {s['wins']}/{s['pairs']}",
              file=out)
    return rows, bad


def agree(catalog, a_runs, b_runs, out=sys.stdout):
    """Two sets of the same code: flag any pair whose medians differ by more
    than the bound. A spread wider than the bound is shown as "wide": such a
    pair cannot resolve a change of that size, but the sets still agree."""
    flagged = 0
    print(f"{'workload':24} {'metric':24} {'status':9} {'median A':>12} "
          f"{'median B':>12} {'diff':>8} {'spread':>7} {'bound':>6}", file=out)
    for w, metric, better, bound, a, b in pairs_of(catalog, a_runs, b_runs):
        ma, mb = statistics.median(a), statistics.median(b)
        diff = abs(mb - ma) / abs(ma)
        sp = max(spread(a), spread(b))
        status = ("FLAG" if diff > bound else
                  "wide" if metric not in MEDIAN_ONLY and sp > bound else "ok")
        flagged += status == "FLAG"
        print(f"{w:24} {metric:24} {status:9} {ma:12.6g} {mb:12.6g} "
              f"{diff:8.2%} {sp:7.2%} {bound:6.2%}", file=out)
    for w in sorted(set().union(*[set(r) for r in a_runs + b_runs])):
        if fail_share(a_runs, w) or fail_share(b_runs, w):
            print(f"{w:24} query_fail_frac          FLAG", file=out)
            flagged += 1
    return flagged


def spread_report(catalog, runs, out=sys.stdout):
    """Spread of every pair against its bound; the target is a third of it."""
    over = 0
    print(f"{'workload':24} {'metric':24} {'median':>12} {'spread':>7} "
          f"{'bound':>6} status", file=out)
    for w, metric, better, bound, a, _ in pairs_of(catalog, runs, runs):
        sp = spread(a)
        exempt = metric in MEDIAN_ONLY
        status = ("median-only" if exempt else
                  "ok" if sp < bound / 3 else "wide" if sp <= bound else "OVER")
        over += status == "OVER"
        print(f"{w:24} {metric:24} {statistics.median(a):12.6g} {sp:7.2%} "
              f"{bound:6.2%} {status}", file=out)
    return over


def self_test():
    import io
    import random
    rng = random.Random(7)
    catalog = {"throughput_marr_s": ("higher", 0.10),
               "query_p99_us": ("lower", 0.25),
               "setup_s": ("lower", 0.25)}

    def make(n, thr, thr_noise, p99, p99_noise, failed=0):
        return [{"w": {"metrics": {
                    "throughput_marr_s": thr * (1 + rng.gauss(0, thr_noise)),
                    "query_p99_us": p99 * (1 + rng.gauss(0, p99_noise)),
                    "setup_s": 1e-5 * (1 + rng.gauss(0, 0.02))},
                  "attempted": 1000, "failed": failed}} for _ in range(n)]

    sink = io.StringIO()
    base = make(10, 30.0, 0.01, 5.0, 0.02)
    verdicts = lambda rows: {m: v for _, m, v in rows}
    # Same code: agreement, no finding.
    assert agree(catalog, base, make(10, 30.0, 0.01, 5.0, 0.02), sink) == 0
    rows, bad = judge(catalog, base, make(10, 30.0, 0.01, 5.0, 0.02), sink)
    assert bad == 0 and verdicts(rows)["throughput_marr_s"] == "same"
    # A clear 20% throughput gain.
    rows, bad = judge(catalog, base, make(10, 36.0, 0.01, 5.0, 0.02), sink)
    assert verdicts(rows)["throughput_marr_s"] == "gain" and bad == 0
    # Too few pairs for a gain claim.
    rows, _ = judge(catalog, base[:5], make(5, 36.0, 0.01, 5.0, 0.02), sink)
    assert verdicts(rows)["throughput_marr_s"] == "same"
    # A 20% throughput loss and a 50% p99 rise are regressions.
    rows, bad = judge(catalog, base, make(10, 24.0, 0.01, 7.5, 0.02), sink)
    assert verdicts(rows)["throughput_marr_s"] == "regression"
    assert verdicts(rows)["query_p99_us"] == "regression" and bad == 2
    # Noise wider than the bound: unresolved, never "same".
    noisy = make(10, 30.0, 0.3, 5.0, 0.02)
    rows, _ = judge(catalog, noisy, make(10, 31.0, 0.3, 5.0, 0.02), sink)
    assert verdicts(rows)["throughput_marr_s"] == "unresolved"
    # ... unless every change run beats every parent run.
    rows, _ = judge(catalog, base, make(10, 100.0, 0.25, 5.0, 0.02), sink)
    assert verdicts(rows)["throughput_marr_s"] == "gain"
    # More failed queries than the parent: flagged, and a gain is void.
    rows, bad = judge(catalog, base, make(10, 36.0, 0.01, 5.0, 0.02, failed=1),
                      sink)
    assert bad == 1 and verdicts(rows)["throughput_marr_s"] == "gain-void"
    # Two sets that disagree beyond the bound are flagged.
    assert agree(catalog, base, make(10, 24.0, 0.01, 5.0, 0.02), sink) >= 1
    # A metric deterministic for a seed, with bound 0: any loss counts.
    exact = {"answer_exact_frac": ("higher", 0)}
    fixed = lambda v: [{"w": {"metrics": {"answer_exact_frac": v},
                              "attempted": 1000, "failed": 0}}] * 10
    rows, bad = judge(exact, fixed(0.81), fixed(0.81), sink)
    assert bad == 0 and verdicts(rows)["answer_exact_frac"] == "same"
    rows, bad = judge(exact, fixed(0.81), fixed(0.8099), sink)
    assert bad == 1 and verdicts(rows)["answer_exact_frac"] == "regression"
    print("compare.py self-test: ok")
    return 0


def main(argv):
    if argv[:1] == ["--self-test"]:
        return self_test()
    if argv[:1] == ["--line"] and len(argv) == 2:
        print(result_line(argv[1]))
        return 0
    catalog = load_catalog()
    if argv[:1] == ["--spread"] and len(argv) >= 2:
        return 1 if spread_report(load_catalog(recorded=False),
                                  load_set(argv[1:])) else 0
    if argv[:1] == ["--agree"] and len(argv) == 3:
        return 1 if agree(catalog, load_set([argv[1]]), load_set([argv[2]])) else 0
    if len(argv) == 2 and not argv[0].startswith("--"):
        _, bad = judge(catalog, load_set([argv[0]]), load_set([argv[1]]))
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
