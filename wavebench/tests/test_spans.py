import unittest

from wb import layers, pins, spans

CHECK_COUNTERS = {
    "lint_diagnostics": 3, "rules_removed": 0, "units": 1, "buchi_states": 4,
    "elapsed_ns": 0, "configs": 10, "cores": 1, "assignments": 1, "max_run_len": 2,
    "max_trie": 5, "max_resident": 5, "max_spilled": 0, "expand_ns": 100, "intern_ns": 50,
    "eval_ns": 25, "visit_ns": 5, "intern_hits": 3, "intern_misses": 1, "memo_hits": 1,
    "memo_misses": 1, "join_builds": 0, "spill_pairs": 0, "spill_segments": 0,
    "spill_compactions": 0, "bloom_skips": 0, "cold_probes": 0,
}


def check_spans():
    """One traced check request; times in ns."""
    s = [("request", 0, None, 0, 1000)]
    for name, a, b in (("spec.parse", 10, 60), ("lint.run", 60, 160), ("wave.output", 160, 170),
                       ("ltl.parse", 170, 180), ("core.new", 180, 280),
                       ("core.prepare", 280, 330), ("core.search", 330, 630),
                       ("core.replay", 630, 700), ("wave.output", 700, 990)):
        s.append((name, 0, 0, a, b))
    # probes after the request: compile 30, slice 10, buchi 20
    s += [("probe.spec.compile", 0, None, 1000, 1030), ("probe.flow.slice", 0, None, 1030, 1040),
          ("probe.ltl.buchi", 0, None, 1040, 1060)]
    return s


class SelfTime(unittest.TestCase):
    def test_union_of_intervals(self):
        self.assertEqual(spans.covered([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(spans.covered([(0, 10), (2, 3)]), 10)
        self.assertEqual(spans.covered([]), 0)

    def test_self_is_span_minus_children(self):
        s = [("a", 0, None, 0, 100), ("b", 0, 0, 10, 40), ("c", 0, 1, 20, 30),
             ("d", 0, 0, 35, 60)]
        self.assertEqual(spans.self_times(s), [100 - 50, 30 - 10, 10, 25])


class CheckSplit(unittest.TestCase):
    def test_layers_add_up_to_the_request(self):
        entry = spans.by_request(check_spans())[0]
        v = layers.check_request_layers(entry, CHECK_COUNTERS)
        parts = ("spec.parse_ms", "lint.run_ms", "wave.output_ms", "ltl.buchi_ms",
                 "spec.compile_ms", "flow.slice_ms", "core.prepare_ms", "core.search_ms",
                 "core.replay_ms", "other_ms")
        self.assertAlmostEqual(sum(v[p] for p in parts), v["request_ms"])
        self.assertAlmostEqual(v["other_ms"], 20e-6)  # 0–10 and 990–1000
        # core.new (100) split 3:1 by the compile and slice probes
        self.assertAlmostEqual(v["spec.compile_ms"], 75e-6)
        self.assertAlmostEqual(v["flow.slice_ms"], 25e-6)
        # the Büchi probe (20) moves out of prepare (50) into ltl (10 + 20)
        self.assertAlmostEqual(v["ltl.buchi_ms"], 30e-6)
        self.assertAlmostEqual(v["core.prepare_ms"], 30e-6)
        # search 300 = expand 100 + intern 50 + eval 25 + visit 5 + other 120
        self.assertAlmostEqual(v["core.search_other_ms"], 120e-6)

    def test_aggregate_medians_totals_and_pooled_rates(self):
        entry = spans.by_request(check_spans())[0]
        a = layers.check_request_layers(entry, CHECK_COUNTERS)
        b = layers.check_request_layers(entry, dict(CHECK_COUNTERS, intern_hits=0,
                                                    intern_misses=4, configs=30))
        out = layers.aggregate([a, b])
        self.assertEqual(out["core.configs"], 20)
        self.assertEqual(out["core.configs.total"], 40)
        self.assertAlmostEqual(out["core.intern_hit_rate"], 0.375)
        self.assertAlmostEqual(out["core.intern_hit_rate.total"], 3 / 8)
        self.assertAlmostEqual(out["other_pct"], 2.0)
        self.assertEqual(out["svc.request_ms"], 0.0)

    def test_every_metric_is_named_once(self):
        names = [n for n, _ in layers.metric_names()]
        self.assertEqual(len(names), len(set(names)))
        self.assertLessEqual(len(names), 128)


class Pins(unittest.TestCase):
    def test_drift_is_reported(self):
        key = ("E1", "P1", None)
        pinned = {key: {"verdict": "holds", "configs": 10}}
        same = {"verdict": "holds", "configs": 10}
        self.assertEqual(pins.drift([key], [[same, same]], pinned), [])
        moved = dict(same, configs=11)
        problems = pins.drift([key], [[same, moved]], pinned)
        self.assertTrue(any("differs between executions" in p for p in problems))
        self.assertTrue(any("committed 10" in p for p in problems))
        self.assertTrue(pins.drift([("E9", "X", None)], [[same]], pinned))


if __name__ == "__main__":
    unittest.main()
