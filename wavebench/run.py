#!/usr/bin/env python3
"""wave benchmark: check-suite, serve-mix and check-spill.

    python3 wavebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the release `wave`
binary and the in-process harness (into $CARGO_TARGET_DIR, default
`.bench_build`). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer split
of a separate traced run. Progress and tables go to standard error.
See wavebench/README.md.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from wb import layers, oracle, pins, procs, stats  # noqa: E402
from wb.check import CheckWorkload  # noqa: E402
from wb.serve import ServeMix  # noqa: E402
from wb.speed import Speed  # noqa: E402

WORKLOADS = ("check-suite", "serve-mix", "check-spill")

# Set-ups per run; setup_s is their median.
SETUPS = 5

# Machine-speed probes after each serve-mix pass (the server is idle
# then), and probes on each side that scale a pass.
PROBES_PER_SERVE_PASS = 3
SERVE_SCALE_WINDOW = 4

END_TO_END = [
    ("wall_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]


def timed_setups(setup, speed):
    """Median set-up time, each set-up scaled by the probes after it."""
    raw, scaled = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        setup()
        raw.append(time.perf_counter() - t0)
        speed.sample(3)
        scaled.append(raw[-1] * speed.factor(speed.times[-1]))
    procs.log(f"  raw setup_s {[round(d, 4) for d in raw]}")
    return stats.median(scaled)


def end_to_end(wall, latencies, requests, rss, setup_s, speed):
    """The end-to-end metrics from values already scaled to the reference
    machine speed (see wb/speed.py); ``requests`` counts the latency
    samples a failure would have given."""
    lat = stats.latency_summary(latencies, requests)
    procs.log(f"  speed probe: median {1e3 * stats.median(speed.samples):.2f} ms over "
              f"{len(speed.samples)} samples (run factor {speed.factor():.4f})")
    procs.log(f"  req_p50_ms {lat['p50']:.3f} (n={lat['n']}), req_tail_ms p{lat['tail_pct']:g} "
              f"{lat['tail']:.3f} (n={lat['n']}, {lat['tail_beyond']} beyond)")
    values = {"wall_s": wall, "req_p50_ms": lat["p50"], "req_tail_ms": lat["tail"],
              "peak_rss_mb": rss, "setup_s": setup_s}
    return {name: {"value": finite(values[name]), "unit": unit} for name, unit in END_TO_END}


def finite(x):
    return None if x == float("inf") else x


def check_run(name, co, args, report):
    wl = CheckWorkload(name, co, args.seed)
    speed = Speed(window=1)
    try:
        setup_s = timed_setups(wl.setup, speed)
        report["list_hash"] = wl.list_hash
        tally = oracle.Tally()
        if args.trace:
            return traced_check(wl, co, tally, report)
        passes, rss = [], 0.0
        start = time.perf_counter()
        while (not passes or time.perf_counter() - start < args.seconds
               or stats.tail_pct(tally.attempted) is None):
            wall, lat, r = wl.run_pass(tally, speed)
            passes.append((wall, lat))
            rss = max(rss, r)
    finally:
        wl.close()
    estimate = wl.list_estimate(passes, speed)
    procs.log(f"  passes {len(passes)}: raw pass wall_s {[round(w, 3) for w, _ in passes]}; "
              f"scaled list estimate {estimate:.4f}")
    samples, requests = wl.latency_samples(passes, speed)
    return tally, end_to_end(estimate, samples, requests, rss, setup_s, speed)


def run_harness(co, kind, header, lines):
    """Run the in-process harness on a plan: a JSON header line, then one
    line per entry."""
    plan_path = os.path.join(co.work, f"{kind}-plan.jsonl")
    out_path = os.path.join(co.work, f"{kind}-trace.json")
    with open(plan_path, "w") as f:
        f.write("\n".join([json.dumps(header)] + lines) + "\n")
    done = procs.run([co.harness, kind, plan_path, out_path], co.work,
                     procs.child_env(co.work), tag="harness")
    if done.exit_code != 0:
        raise procs.BenchError(f"harness {kind} failed: {done.stderr.strip()[-500:]}")
    with open(out_path) as f:
        return json.load(f)


def harness_failures(out):
    return [f"request {r['id']}: {side}: {r[side]['error']}" for r in out["requests"]
            for side in ("bare", "traced") if "error" in r[side]]


def traced_check(wl, co, tally, report):
    _, lat, _ = wl.run_pass(tally)
    cli_latencies = [ms for _, ms in lat if ms is not None]
    out = run_harness(co, "check", {}, wl.plan())
    for line in harness_failures(out):
        tally.record("harness")
        procs.log(line)
    metrics, per_request = layers.traced_metrics(out, "check")
    if cli_latencies and per_request:
        metrics["wave.process_ms"] = (stats.median(cli_latencies)
                                      - stats.median([v["request_ms"] for v in per_request]))
    keys = [r.key for r in wl.requests]
    executions = [[row[s] for s in ("bare", "traced") if "error" not in row[s]]
                  for row in out["requests"]]
    report["drift"] = pins.drift(keys, executions, pins.committed(co))
    return tally, metrics


def serve_run(co, args, report):
    wl = ServeMix(co, args.seed)
    speed = Speed(SERVE_SCALE_WINDOW)
    try:
        setup_s = timed_setups(wl.setup, speed)
        report["list_hash"] = wl.list_hash
        tally, mix = oracle.Tally(), {"hit": 0, "miss": 0, "unplanned": 0}
        if args.trace:
            return traced_serve(wl, co, tally, mix, report)
        walls, latencies, raw = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            wall, lat = wl.run_pass(len(walls) + 1, tally, mix)
            speed.sample(PROBES_PER_SERVE_PASS)
            k = speed.factor(speed.times[-1])
            raw.append(wall)
            walls.append(wall * k)
            latencies += [ms * k for ms in lat]
        rss = wl.server.hwm_mb()
    finally:
        wl.close()
    report["mix"] = mix
    procs.log(f"  passes {len(walls)}: raw pass wall_s {[round(w, 3) for w in raw]}")
    procs.log(f"  served {len(latencies)} requests, cache {mix}, "
              f"raw {len(latencies) / sum(raw):.1f} req/s")
    return tally, end_to_end(stats.median(walls), latencies, tally.attempted, rss, setup_s,
                             speed)


def traced_serve(wl, co, tally, mix, report):
    _, client_latencies = wl.run_pass(1, tally, mix)
    server = wl.metrics()
    wl.close()
    report["mix"] = mix
    header, lines = wl.plan(1)
    out = run_harness(co, "serve", header, lines)
    for line in harness_failures(out):
        tally.record("harness")
        procs.log(line)
    metrics, per_request = layers.traced_metrics(out, "serve")
    if client_latencies and per_request:
        metrics["svc.wait_ms"] = (stats.median(client_latencies)
                                  - stats.median([v["request_ms"] for v in per_request]))
    hits, misses = server["wave_cache_hits_total"], server["wave_cache_misses_total"]
    metrics["svc.cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["svc.checks"] = server["wave_checks_total"]
    keys, executions = [], []
    for (suite, prop, fresh), row in zip(wl.pass_items(1), out["requests"]):
        if fresh is not None:
            keys.append((suite, prop, None))
            executions.append([row[s] for s in ("bare", "traced") if "error" not in row[s]])
    report["drift"] = pins.drift(keys, executions, pins.committed(co))
    return tally, metrics


def print_layers(metrics):
    width = max(len(n) for n, _ in layers.metric_names())
    for name, unit in layers.metric_names():
        procs.log(f"  {name:<{width}} {metrics[name]:>14.4f} {unit}")
    procs.log(f"  unattributed: other_ms is {metrics['other_pct']:.2f}% of traced request time")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    co = procs.Checkout(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    report = {"seed": args.seed}
    try:
        co.require_sources()
        co.build()
        procs.log(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        if args.workload == "serve-mix":
            tally, metrics = serve_run(co, args, report)
        else:
            tally, metrics = check_run(args.workload, co, args, report)
    except procs.BenchError as e:
        procs.log(f"wavebench: {e}")
        return 2
    if args.trace:
        print_layers(metrics)
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in layers.metric_names()}
    for problem in report.get("drift", []):
        procs.log(f"  COUNTER DRIFT: {problem}")
    mix_ok = report.get("mix", {}).get("unplanned", 0) == 0
    correct = tally.failed == 0 and not report.get("drift") and mix_ok
    procs.log(f"  list {report['list_hash']} (seed {args.seed}); attempted {tally.attempted}, "
              f"failed {tally.failed} ({100 * tally.failed_share():.2f}%) "
              f"{dict(tally.reasons)}; correct {correct}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
