"""Per-layer metrics of the traced run.

Each request's traced time is split over the layers, so that the parts
add up to the request span:

check workloads
    request = spec.parse + lint.run + wave.output + ltl.buchi
              + spec.compile + flow.slice + core.prepare + core.search
              + core.replay + other

    `Verifier::with_options` (the ``core.new`` span) is compile + slice;
    it is split between ``spec.compile`` and ``flow.slice`` in the ratio
    of the probe calls of `CompiledSpec::compile` and `SliceInfo::compute`
    on the same spec. `Verifier::prepare` starts with the Büchi
    construction; the probe of parse → extract → nnf → `Buchi::from_nnf`
    moves that share (never more than the prepare span) to ``ltl.buchi``.

serve-mix
    request = svc.json + svc.request + other

    ``svc.lint``, ``svc.key`` and, for fresh requests, ``spec.parse``,
    ``spec.compile`` and ``flow.slice`` are probe calls of the steps
    `VerifyService::run_request` makes inside; they break the request
    span down further but are not added to it.

``core.search`` is split by the search's own phase profile (`Stats.profile`)
into expand, intern, visit and FO eval; the remainder is
``core.search_other``. ``other`` is whatever part of the request span no
layer span covers.

Every metric is reported as the median per request (over the requests
the layer ran in) and as a total over the request list (``.total``): a
sum, a maximum for high-water marks, or the pooled ratio for rates. A
layer a workload does not run reports 0.
"""

from . import spans as sp
from .stats import median

MS = 1e-6

# name, unit, how the total aggregates ("sum", "max", "pooled"; None for
# run-level figures with no per-request median)
METRICS = [
    ("request_ms", "ms", "sum"),
    ("other_ms", "ms", "sum"),
    ("other_pct", "%", None),
    ("trace.overhead_pct", "%", None),
    ("wave.process_ms", "ms", None),
    ("wave.output_ms", "ms", "sum"),
    ("spec.parse_ms", "ms", "sum"),
    ("spec.compile_ms", "ms", "sum"),
    ("lint.run_ms", "ms", "sum"),
    ("lint.diagnostics", "count", "sum"),
    ("flow.slice_ms", "ms", "sum"),
    ("flow.rules_removed", "count", "sum"),
    ("ltl.buchi_ms", "ms", "sum"),
    ("ltl.buchi_states", "count", "sum"),
    ("core.prepare_ms", "ms", "sum"),
    ("core.units", "count", "sum"),
    ("core.search_ms", "ms", "sum"),
    ("core.expand_ms", "ms", "sum"),
    ("core.intern_ms", "ms", "sum"),
    ("core.visit_ms", "ms", "sum"),
    ("core.search_other_ms", "ms", "sum"),
    ("core.configs", "count", "sum"),
    ("core.cores", "count", "sum"),
    ("core.intern_hit_rate", "ratio", "pooled"),
    ("core.memo_hit_rate", "ratio", "pooled"),
    ("fol.eval_ms", "ms", "sum"),
    ("relalg.join_builds", "count", "sum"),
    ("core.replay_ms", "ms", "sum"),
    ("store.spill_pairs", "count", "sum"),
    ("store.spill_segments", "count", "sum"),
    ("store.spill_compactions", "count", "sum"),
    ("store.cold_probes", "count", "sum"),
    ("store.bloom_skip_rate", "ratio", "pooled"),
    ("store.max_resident", "count", "max"),
    ("svc.request_ms", "ms", "sum"),
    ("svc.hit_ms", "ms", "sum"),
    ("svc.fresh_ms", "ms", "sum"),
    ("svc.lint_ms", "ms", "sum"),
    ("svc.key_ms", "ms", "sum"),
    ("svc.json_ms", "ms", "sum"),
    ("svc.wait_ms", "ms", None),
    ("svc.cache_hit_rate", "ratio", None),
    ("svc.checks", "count", None),
]


def metric_names():
    """Every per-layer metric the traced run prints, with its unit."""
    out = []
    for name, unit, agg in METRICS:
        out.append((name, unit))
        if agg is not None:
            out.append((name + ".total", unit))
    return out


class Rate:
    """A ratio kept as numerator and denominator, so totals pool."""

    def __init__(self, num, den):
        self.num, self.den = num, den

    def value(self):
        return self.num / self.den if self.den else None


def search_split(values, c, search_ns):
    """Search time and its phase-profile split from a request's counters."""
    phases = {"core.expand_ms": c["expand_ns"], "core.intern_ms": c["intern_ns"],
              "core.visit_ms": c["visit_ns"], "fol.eval_ms": c["eval_ns"]}
    values["core.search_ms"] = search_ns * MS
    for name, ns in phases.items():
        values[name] = ns * MS
    values["core.search_other_ms"] = (search_ns - sum(phases.values())) * MS
    values["core.configs"] = c["configs"]
    values["core.cores"] = c["cores"]
    values["core.intern_hit_rate"] = Rate(c["intern_hits"], c["intern_hits"] + c["intern_misses"])
    values["core.memo_hit_rate"] = Rate(c["memo_hits"], c["memo_hits"] + c["memo_misses"])
    values["relalg.join_builds"] = c["join_builds"]


def check_request_layers(entry, c):
    """Layer values of one traced check request (``entry``: spans by
    name; ``c``: the request's counters)."""
    d = lambda name: sp.total(entry, name)  # noqa: E731
    v = {"request_ms": d("request") * MS, "other_ms": sp.self_total(entry, "request") * MS}
    v["spec.parse_ms"] = d("spec.parse") * MS
    v["lint.run_ms"] = d("lint.run") * MS
    v["lint.diagnostics"] = c["lint_diagnostics"]
    v["wave.output_ms"] = d("wave.output") * MS
    compile_probe, slice_probe = d("probe.spec.compile"), d("probe.flow.slice")
    new = d("core.new")
    share = compile_probe / (compile_probe + slice_probe) if compile_probe + slice_probe else 1.0
    v["spec.compile_ms"] = new * share * MS
    v["flow.slice_ms"] = new * (1 - share) * MS
    v["flow.rules_removed"] = c["rules_removed"]
    prepare = d("core.prepare")
    buchi = min(d("probe.ltl.buchi"), prepare)
    v["ltl.buchi_ms"] = (d("ltl.parse") + buchi) * MS
    v["ltl.buchi_states"] = c["buchi_states"]
    v["core.prepare_ms"] = (prepare - buchi) * MS
    v["core.units"] = c["units"]
    search_split(v, c, d("core.search"))
    if "core.replay" in entry:
        v["core.replay_ms"] = d("core.replay") * MS
    v["store.spill_pairs"] = c["spill_pairs"]
    v["store.spill_segments"] = c["spill_segments"]
    v["store.spill_compactions"] = c["spill_compactions"]
    v["store.cold_probes"] = c["cold_probes"]
    v["store.bloom_skip_rate"] = Rate(c["bloom_skips"], c["bloom_skips"] + c["cold_probes"])
    v["store.max_resident"] = c["max_resident"]
    return v


def serve_request_layers(entry, c):
    """Layer values of one traced serve request."""
    d = lambda name: sp.total(entry, name)  # noqa: E731
    v = {"request_ms": d("request") * MS, "other_ms": sp.self_total(entry, "request") * MS}
    v["svc.request_ms"] = d("svc.request") * MS
    v["svc.hit_ms" if c["cached"] else "svc.fresh_ms"] = d("svc.request") * MS
    v["svc.json_ms"] = d("svc.json") * MS
    v["svc.lint_ms"] = v["lint.run_ms"] = d("probe.svc.lint") * MS
    v["svc.key_ms"] = d("probe.svc.key") * MS
    v["lint.diagnostics"] = c["lint_diagnostics"]
    if not c["cached"]:
        v["spec.parse_ms"] = d("probe.spec.parse") * MS
        v["spec.compile_ms"] = d("probe.spec.compile") * MS
        v["flow.slice_ms"] = d("probe.flow.slice") * MS
        search_split(v, c, c["elapsed_ns"])
    return v


def aggregate(per_request):
    """Median per request and total of every per-request metric."""
    out = {}
    for name, _, agg in METRICS:
        if agg is None:
            continue
        values = [v[name] for v in per_request if name in v]
        if agg == "pooled":
            rates = [r.value() for r in values if r.value() is not None]
            pooled = Rate(sum(r.num for r in values), sum(r.den for r in values)).value()
            out[name] = median(rates) if rates else 0.0
            out[name + ".total"] = pooled or 0.0
        else:
            out[name] = median(values) if values else 0.0
            out[name + ".total"] = (max(values) if agg == "max" else sum(values)) if values else 0.0
    total_request = out["request_ms.total"]
    out["other_pct"] = 100.0 * out["other_ms.total"] / total_request if total_request else 0.0
    return out


def traced_metrics(harness_out, kind):
    """(aggregates, per-request layer values) from the harness output."""
    spans = [tuple(s) for s in harness_out["spans"]]
    entries = sp.by_request(spans)
    layer_fn = check_request_layers if kind == "check" else serve_request_layers
    per_request, traced_ns, bare_ns = [], 0, 0
    for row in harness_out["requests"]:
        entry, counters = entries[row["id"]], row["traced"]
        if "error" in counters:
            continue
        values = layer_fn(entry, counters)
        per_request.append(values)
        traced_ns += sp.total(entry, "request")
        bare_ns += row["bare_ns"]
    out = aggregate(per_request)
    out["trace.overhead_pct"] = 100.0 * (traced_ns - bare_ns) / bare_ns if bare_ns else 0.0
    for name, _, _ in METRICS:
        out.setdefault(name, 0.0)
    return out, per_request
