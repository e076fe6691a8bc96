"""Seeded request lists.

Every list is a pure function of the workload seed (and, for serve-mix,
the pass index): the order, the hit/fresh draw and the fresh spec names.
The program under test only ever sees what these functions generate.
"""

import hashlib
import json
import random
import re

# check-suite: every E1–E4 property this many times per list, so each
# run has more than ten samples beyond p90 (58 x 2 = 116 requests).
SUITE_COPIES = 2

# A property whose committed search time is at least this is "heavy".
# The heavy requests are spread evenly through the list, so a slow
# stretch of the machine cannot land on all of them at once.
HEAVY_MS = 100.0

# check-spill: the read half (E1/P4 spilling into a few segments, then
# probing the cold tier) and the write half (every pair spills). The read
# half runs twice per pass: with four requests of four different costs the
# median would be the slowest sample of the two cheapest, an extreme that
# jumps from run to run; with five it is the middle request's median.
SPILL_READ = [("E1", "P4", 1), ("E1", "P4", 1)]
SPILL_WRITE = [("E1", "P10", 0), ("E4", "S2", 0), ("E3", "R13", 0)]

# serve-mix: properties whose committed search time is under this, the
# share of requests that repeat an already-verified pair, and the size of
# one pass's fixed list.
SERVE_FAST_MS = 10.0
SERVE_HIT_SHARE = 0.75
SERVE_PASS = 240


def list_hash(requests):
    """Short content hash of a request list, recorded with the seed."""
    blob = json.dumps(requests, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def spread_evenly(heavy, light, rng):
    """Interleave ``heavy`` into ``light`` at evenly spaced positions.

    Both lists are shuffled with ``rng`` first; heavy item ``i`` of ``h``
    lands at the start of the ``i``-th of ``h`` equal slices of the list.
    """
    heavy, light = list(heavy), list(light)
    rng.shuffle(heavy)
    rng.shuffle(light)
    total = len(heavy) + len(light)
    slots = {(i * total) // len(heavy) + rng.randrange(max(1, total // len(heavy)))
             for i in range(len(heavy))} if heavy else set()
    # collisions are impossible for slice-start + offset < slice width,
    # but keep the invariant explicit
    assert len(slots) == len(heavy)
    out, hi, li = [], iter(heavy), iter(light)
    for pos in range(total):
        out.append(next(hi) if pos in slots else next(li))
    return out


def check_suite(catalog, elapsed_ms, seed):
    """116 `wave check` requests [suite, property]: the suite once per
    copy, each copy in its own seeded order with the heavy properties
    spread evenly through it."""
    cases = [[s["id"], p["name"]] for s in catalog["suites"] for p in s["properties"]]
    heavy = [c for c in cases if elapsed_ms[tuple(c)] >= HEAVY_MS]
    light = [c for c in cases if elapsed_ms[tuple(c)] < HEAVY_MS]
    rng = random.Random(f"check-suite/{seed}")
    return [c for _ in range(SUITE_COPIES) for c in spread_evenly(heavy, light, rng)]


def check_spill(seed):
    """The five tiered-store requests in a seeded order:
    [suite, property, store_mem_mb]."""
    items = [list(c) for c in SPILL_READ + SPILL_WRITE]
    random.Random(f"check-spill/{seed}").shuffle(items)
    return items


def fast_cases(catalog, elapsed_ms):
    return sorted((s["id"], p["name"]) for s in catalog["suites"] for p in s["properties"]
                  if elapsed_ms[(s["id"], p["name"])] < SERVE_FAST_MS)


def serve_mix(catalog, elapsed_ms, seed, pass_index, size=SERVE_PASS):
    """One pass of serve-mix: [suite, property, fresh_name or None].

    Exactly ``SERVE_HIT_SHARE`` of the list repeats a pre-warmed pair; the
    rest carry a renamed copy of the spec that no earlier request used.
    """
    rng = random.Random(f"serve-mix/{seed}/{pass_index}")
    cases = fast_cases(catalog, elapsed_ms)
    hits = round(size * SERVE_HIT_SHARE)
    fresh_at = set(rng.sample(range(size), size - hits))
    out = []
    for i in range(size):
        suite, prop = cases[rng.randrange(len(cases))]
        fresh = f"s{seed}p{pass_index}r{i}" if i in fresh_at else None
        out.append([suite, prop, fresh])
    return out


SPEC_NAME = re.compile(r"^spec (\w+) \{", re.M)


def renamed_spec(source, tag):
    """The spec under a new name: same pages, rules and verdicts, but a
    canonical text (and so a cache key) the service has not seen."""
    renamed, n = SPEC_NAME.subn(lambda m: f"spec {m.group(1)}_{tag} {{", source, count=1)
    if n != 1:
        raise ValueError("spec source has no `spec <name> {` header")
    return renamed
