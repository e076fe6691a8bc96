"""check-suite and check-spill: one fresh `wave check` process per request,
run one after another from a single client."""

import json
import os
import time

from . import inputs, oracle, procs, stats


def elapsed_by_case(co):
    """Committed search time per (suite id, property), joins=opt rows."""
    return {(r["suite"].split()[0], r["prop"]): r["elapsed_ms"]
            for r in co.bench_rows("BENCH_query.json") if r["joins"] == "opt"}


def write_specs(catalog, work):
    paths = {}
    os.makedirs(os.path.join(work, "specs"), exist_ok=True)
    for s in catalog["suites"]:
        path = os.path.join(work, "specs", f"{s['id'].lower()}.wave")
        with open(path, "w") as f:
            f.write(s["source"])
        paths[s["id"]] = path
    return paths


# Requests between two machine-speed probes (see wb/speed.py). Every
# request is scaled by the probes just before and after it. check-spill's
# requests take about a second and are all probed around; most of
# check-suite's take ~10 ms, so probing around each would cost a third of
# the run: it probes every 8 requests and around every heavy one, which
# set the list's wall time and its p90.
PROBE_EVERY = {"check-suite": 8, "check-spill": 1}


class CheckRequest:
    def __init__(self, suite, prop, holds, spec_path, text, mem_mb=None, heavy=False):
        self.suite, self.prop, self.holds = suite, prop, holds
        self.spec_path, self.text, self.mem_mb = spec_path, text, mem_mb
        self.heavy = heavy

    @property
    def key(self):
        return (self.suite, self.prop, self.mem_mb)

    def argv(self, co, spill_dir):
        argv = [co.wave, "check", self.spec_path, "--property", self.text]
        if self.mem_mb is not None:
            argv += ["--store", "tiered", "--store-mem-mb", str(self.mem_mb),
                     "--spill-dir", spill_dir]
        return argv

    def plan_entry(self, spill_dir):
        entry = {"spec_path": self.spec_path, "property": self.text}
        if self.mem_mb is not None:
            entry.update(store_mem_mb=self.mem_mb, spill_dir=spill_dir)
        return entry


class CheckWorkload:
    """Inputs and the request loop shared by the two check workloads."""

    def __init__(self, name, co, seed):
        self.name, self.co, self.seed = name, co, seed
        self.launcher = None

    def close(self):
        if self.launcher is not None:
            self.launcher.close()
            self.launcher = None

    def setup(self):
        """Generate the inputs and make one untimed warm-up request."""
        co = self.co
        self.close()
        work = co.fresh_work()
        self.launcher = procs.Launcher(co, procs.child_env(work))
        self.spill_dir = os.path.join(work, "spill")
        os.makedirs(self.spill_dir)
        catalog = co.catalog()
        specs = write_specs(catalog, work)
        cases = {(s["id"], p["name"]): p for s in catalog["suites"] for p in s["properties"]}
        elapsed = elapsed_by_case(co)
        if self.name == "check-suite":
            items = [tuple(i) + (None,) for i in inputs.check_suite(catalog, elapsed, self.seed)]
        else:
            items = [tuple(i) for i in inputs.check_spill(self.seed)]
        self.requests = []
        for suite, prop, mem_mb in items:
            case = cases[(suite, prop)]
            heavy = elapsed[(suite, prop)] >= inputs.HEAVY_MS
            self.requests.append(CheckRequest(suite, prop, case["holds"], specs[suite],
                                              case["text"], mem_mb, heavy))
        self.list_hash = inputs.list_hash([list(i) for i in items])
        # the lightest committed property, in memory, whatever the workload
        # and seed: set-up time must not depend on the shuffle or the disk
        suite, prop = min(elapsed, key=lambda case: (elapsed[case], case))
        case = cases[(suite, prop)]
        warmup = CheckRequest(suite, prop, case["holds"], specs[suite], case["text"])
        self.request(warmup, oracle.Tally())

    def request(self, req, tally):
        """Run one request; returns the finished process and its failure."""
        f = self.launcher.run(req.argv(self.co, self.spill_dir))
        failure = oracle.cli_failure(req.holds, f.exit_code, f.stdout, f.stderr)
        tally.record(failure)
        if failure is not None:
            procs.log(f"{self.name}: {req.suite}/{req.prop} failed ({failure}): "
                      f"exit {f.exit_code}: {f.stderr.strip()[-300:]}")
        return f, failure

    def run_pass(self, tally, speed=None):
        """One pass over the fixed list: (wall seconds, (start time, latency
        in ms or None when it failed) per request in list order, peak RSS
        in MiB). With ``speed``, the probe runs between requests; its time
        is not part of the pass's wall time."""
        latencies, rss = [], 0.0
        every = PROBE_EVERY[self.name]
        spent = speed.spent if speed else 0.0
        t0 = time.perf_counter()
        for i, req in enumerate(self.requests):
            start = time.perf_counter()
            f, failure = self.request(req, tally)
            rss = max(rss, f.maxrss_mb)
            latencies.append((start, f.seconds * 1e3 if failure is None else None))
            following = self.requests[i + 1] if i + 1 < len(self.requests) else None
            if speed and (i % every == 0 or req.heavy or (following and following.heavy)):
                speed.sample()
        wall = time.perf_counter() - t0 - (speed.spent - spent if speed else 0.0)
        return wall, latencies, rss

    def request_medians(self, passes, speed):
        """{request key: median of its scaled latencies (ms) over the run},
        for requests that answered every time."""
        by_key, failed = {}, set()
        for _, lat in passes:
            for req, (at, ms) in zip(self.requests, lat):
                if ms is None:
                    failed.add(req.key)
                else:
                    by_key.setdefault(req.key, []).append(ms * speed.factor(at))
        return {k: stats.median(v) for k, v in by_key.items() if k not in failed}

    def list_estimate(self, passes, speed):
        """The fixed list's wall time, in reference seconds: each request
        at the median of its scaled latencies over the run (so a short slow
        stretch that hit one execution does not count), plus the median
        time between requests. inf if a request failed."""
        medians = self.request_medians(passes, speed)
        if any(r.key not in medians for r in self.requests):
            return float("inf")
        gaps = [(wall - sum(ms for _, ms in lat) / 1e3) * speed.factor() for wall, lat in passes]
        return sum(medians[r.key] for r in self.requests) / 1e3 + stats.median(gaps)

    def latency_samples(self, passes, speed):
        """(latency samples in ms, requests they stand for). check-suite
        repeats every request at least four times a run, so each of its
        116 list positions counts once, at its request's median: p90 then
        sits on a median, not on the second-fastest of six executions.
        check-spill's five positions are too few, so every execution
        counts."""
        if self.name == "check-suite":
            medians = self.request_medians(passes, speed)
            samples = [medians[r.key] for r in self.requests if r.key in medians]
            return samples, len(self.requests)
        samples = [ms * speed.factor(at) for _, lat in passes for at, ms in lat if ms is not None]
        return samples, sum(len(lat) for _, lat in passes)

    def plan(self):
        """Harness plan lines, one JSON request each."""
        return [json.dumps(r.plan_entry(self.spill_dir)) for r in self.requests]
