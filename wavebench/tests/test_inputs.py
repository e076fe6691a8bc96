import unittest

from wb import inputs

SOURCE = "# comment\nspec demo {\n  home HP;\n}\n"


def catalog():
    """A stand-in for the harness catalog: 2 suites, 58 properties."""
    suites = []
    for sid, count in (("E1", 30), ("E2", 28)):
        props = [{"name": f"P{i}", "holds": i % 2 == 0, "text": f"G !@X{i}"}
                 for i in range(count)]
        suites.append({"id": sid, "name": f"{sid} demo", "source": SOURCE, "properties": props})
    return {"suites": suites}


def elapsed():
    """Six heavy properties, the rest light; a third of them fast."""
    out = {}
    for s in catalog()["suites"]:
        for i, p in enumerate(s["properties"]):
            out[(s["id"], p["name"])] = 500.0 if (s["id"], i) in {
                ("E1", 0), ("E1", 1), ("E1", 2), ("E2", 0), ("E2", 1), ("E2", 2)} \
                else (5.0 if i % 3 == 0 else 40.0)
    return out


class Lists(unittest.TestCase):
    def test_same_seed_same_list(self):
        c, e = catalog(), elapsed()
        self.assertEqual(inputs.check_suite(c, e, 7), inputs.check_suite(c, e, 7))
        self.assertEqual(inputs.check_spill(7), inputs.check_spill(7))
        self.assertEqual(inputs.serve_mix(c, e, 7, 3), inputs.serve_mix(c, e, 7, 3))
        self.assertEqual(inputs.list_hash(inputs.check_suite(c, e, 7)),
                         inputs.list_hash(inputs.check_suite(c, e, 7)))

    def test_other_seed_other_order(self):
        c, e = catalog(), elapsed()
        a, b = inputs.check_suite(c, e, 1), inputs.check_suite(c, e, 2)
        self.assertNotEqual(a, b)
        self.assertEqual(sorted(a), sorted(b))
        self.assertNotEqual(inputs.list_hash(a), inputs.list_hash(b))
        orders = {tuple(map(tuple, inputs.check_spill(s))) for s in range(10)}
        self.assertGreater(len(orders), 1)
        self.assertNotEqual(inputs.serve_mix(c, e, 1, 0), inputs.serve_mix(c, e, 2, 0))

    def test_suite_list_covers_every_property_per_copy(self):
        c, e = catalog(), elapsed()
        items = inputs.check_suite(c, e, 3)
        self.assertEqual(len(items), 58 * inputs.SUITE_COPIES)
        half = 58
        for copy in range(inputs.SUITE_COPIES):
            part = items[copy * half:(copy + 1) * half]
            self.assertEqual(len({tuple(i) for i in part}), 58)

    def test_heavy_requests_are_spread(self):
        c, e = catalog(), elapsed()
        for seed in range(20):
            items = inputs.check_suite(c, e, seed)
            heavy = [i for i, (s, p) in enumerate(items) if e[(s, p)] >= inputs.HEAVY_MS]
            self.assertEqual(len(heavy), 12)
            # one heavy request in each of the 6 equal slices of each copy
            starts = [(i * 58) // 6 for i in range(6)]
            for copy in range(inputs.SUITE_COPIES):
                in_copy = [i - 58 * copy for i in heavy if 58 * copy <= i < 58 * (copy + 1)]
                slices = [max(j for j in range(6) if starts[j] <= i) for i in in_copy]
                self.assertEqual(sorted(slices), list(range(6)))

    def test_serve_mix_shares_and_fresh_names(self):
        c, e = catalog(), elapsed()
        names = set()
        for p in range(3):
            items = inputs.serve_mix(c, e, 5, p)
            fresh = [f for _, _, f in items if f is not None]
            self.assertEqual(len(items) - len(fresh), round(len(items) * inputs.SERVE_HIT_SHARE))
            names.update(fresh)
            fast = set(inputs.fast_cases(c, e))
            self.assertTrue(all((s, q) in fast for s, q, _ in items))
        self.assertEqual(len(names), 3 * (inputs.SERVE_PASS - round(
            inputs.SERVE_PASS * inputs.SERVE_HIT_SHARE)))

    def test_renamed_spec_changes_only_the_name(self):
        renamed = inputs.renamed_spec(SOURCE, "s1p0r4")
        self.assertIn("spec demo_s1p0r4 {", renamed)
        self.assertEqual(renamed.replace("demo_s1p0r4", "demo"), SOURCE)
        with self.assertRaises(ValueError):
            inputs.renamed_spec("no header", "x")


if __name__ == "__main__":
    unittest.main()
