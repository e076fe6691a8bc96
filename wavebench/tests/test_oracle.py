import unittest

from wb import oracle

HOLDS_OUT = "property HOLDS (complete verification) — 1ms, max run length 1\n"
VIOLATED_OUT = "property VIOLATED — counterexample with 3 steps\n"


def reply(verdict, ok=True):
    return {"ok": ok, "results": [{"verdict": verdict, "cached": False}]}


class Cli(unittest.TestCase):
    def test_right_verdicts_pass(self):
        self.assertIsNone(oracle.cli_failure(True, 0, HOLDS_OUT))
        self.assertIsNone(oracle.cli_failure(False, 1, VIOLATED_OUT))

    def test_each_failure_kind(self):
        self.assertEqual(oracle.cli_failure(True, 1, VIOLATED_OUT), "mismatch")
        self.assertEqual(oracle.cli_failure(False, 0, HOLDS_OUT), "mismatch")
        self.assertEqual(oracle.cli_failure(True, 3, "UNKNOWN — budget exhausted"), "unknown")
        self.assertEqual(oracle.cli_failure(True, 2, "", "cannot read spec"), "error")
        self.assertEqual(oracle.cli_failure(
            False, 2, "", "internal error: counterexample failed replay: step 2"), "replay")
        self.assertEqual(oracle.cli_failure(True, -9, ""), "exit -9")
        self.assertEqual(oracle.cli_failure(True, 0, "garbage"), "output")


class Serve(unittest.TestCase):
    def test_right_verdicts_pass(self):
        self.assertIsNone(oracle.serve_failure(True, reply("holds")))
        self.assertIsNone(oracle.serve_failure(False, reply("violated")))

    def test_each_failure_kind(self):
        self.assertEqual(oracle.serve_failure(True, None), "connection")
        self.assertEqual(oracle.serve_failure(True, {"ok": False, "error": "x"}), "ok:false")
        self.assertEqual(oracle.serve_failure(True, reply("unknown")), "unknown")
        self.assertEqual(oracle.serve_failure(True, reply("error")), "error")
        self.assertEqual(oracle.serve_failure(True, reply("violated")), "mismatch")
        self.assertEqual(oracle.serve_failure(True, {"ok": True, "results": []}), "records")


class Accounting(unittest.TestCase):
    def test_tally_counts_failures_against_attempts(self):
        t = oracle.Tally()
        for failure in (None, None, "mismatch", None, "connection", "mismatch"):
            t.record(failure)
        self.assertEqual(t.attempted, 6)
        self.assertEqual(t.failed, 3)
        self.assertAlmostEqual(t.failed_share(), 0.5)
        self.assertEqual(t.reasons["mismatch"], 2)
        self.assertEqual(oracle.Tally().failed_share(), 0.0)


if __name__ == "__main__":
    unittest.main()
