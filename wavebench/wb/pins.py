"""Counter pins: the traced run's deterministic counters against the
committed bench files, and against themselves.

* Every check request runs twice in the traced run (bare and traced), and
  every check-suite property twice in the list: all executions of one
  request must report identical counters.
* check-suite and serve-mix (fresh requests): verdict and search counters
  equal the `joins=opt` rows of BENCH_query.json.
* check-spill at 0 MiB: also the spill counters of the matching
  BENCH_store.json row.
* check-spill's read half (E1/P4 at 1 MiB) has no BENCH_store.json row
  (that file records 64 and 0 MiB); its search counters come from the
  BENCH_query.json row and its spill counters from READ_HALF below.
"""

SEARCH = ("verdict", "configs", "cores", "assignments", "max_run_len", "max_trie")
SPILL = ("max_resident", "max_spilled", "spill_pairs", "spill_segments", "spill_compactions")
REPEAT = SEARCH + SPILL + ("cold_probes", "bloom_skips", "units", "lint_diagnostics",
                           "rules_removed")

# E1/P4 with a 1 MiB hot tier, as measured when this benchmark was written.
READ_HALF = {("E1", "P4", 1): {"max_resident": 49152, "max_spilled": 49152,
                               "spill_pairs": 49152, "spill_segments": 3,
                               "spill_compactions": 0, "cold_probes": 9514}}


def committed(co):
    """{(suite id, property, mem_mb or None): {counter: value}}."""
    rows = {}
    for r in co.bench_rows("BENCH_query.json"):
        if r["joins"] == "opt":
            rows[(r["suite"].split()[0], r["prop"], None)] = {k: r[k] for k in SEARCH}
    for r in co.bench_rows("BENCH_store.json"):
        if r["mem_mb"] == 0:
            rows[(r["suite"].split()[0], r["prop"], 0)] = {k: r[k] for k in SEARCH + SPILL}
    for key, spill in READ_HALF.items():
        rows[key] = dict(rows[key[:2] + (None,)], **spill)
    return rows


def drift(keys, results, pins):
    """Every disagreement, as readable lines.

    ``keys[i]`` names request ``i`` as (suite, property, mem_mb);
    ``results[i]`` is a list of counter dicts, one per execution.
    """
    problems, seen = [], {}
    for key, executions in zip(keys, results):
        for c in executions:
            first = seen.setdefault(key, c)
            for k in REPEAT:
                if k in first and first.get(k) != c.get(k):
                    problems.append(f"{key}: {k} differs between executions "
                                    f"({first.get(k)} vs {c.get(k)})")
            pinned = pins.get(key if key in pins else key[:2] + (None,))
            if pinned is None:
                problems.append(f"{key}: no committed row to pin against")
                continue
            for k, want in pinned.items():
                if c.get(k) != want:
                    problems.append(f"{key}: {k} = {c.get(k)}, committed {want}")
    return sorted(set(problems))
