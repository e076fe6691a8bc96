"""Verdict oracle and failure accounting.

The expected verdict of every property is the paper's hand-annotated
truth value (`PropCase.holds` in wave-apps). A request fails when its
verdict disagrees, is `unknown`, the CLI exits with 2 (errors, including
a counterexample that fails replay), the server answers `ok:false`, or
the connection is refused or times out.
"""

import collections

# `wave check` exit codes: 0 holds, 1 violated, 2 error, 3 unknown.
EXIT_VERDICT = {0: "holds", 1: "violated", 3: "unknown"}
HEADLINE = {"holds": "property HOLDS", "violated": "property VIOLATED"}


def expected(holds):
    return "holds" if holds else "violated"


def cli_failure(holds, exit_code, stdout, stderr=""):
    """Why a `wave check` request failed, or None when it answered right."""
    if exit_code == 2:
        return "replay" if "failed replay" in stderr else "error"
    verdict = EXIT_VERDICT.get(exit_code)
    if verdict is None:
        return f"exit {exit_code}"
    if verdict == "unknown":
        return "unknown"
    if verdict != expected(holds):
        return "mismatch"
    if not stdout.startswith(HEADLINE[verdict]):
        return "output"
    return None


def serve_failure(holds, reply):
    """Why a serve reply (a parsed JSON object, or None for a refused or
    timed-out connection) failed, or None when it answered right."""
    if reply is None:
        return "connection"
    if reply.get("ok") is not True:
        return "ok:false"
    results = reply.get("results") or []
    if len(results) != 1:
        return "records"
    verdict = results[0].get("verdict")
    if verdict in ("unknown", "error"):
        return verdict
    if verdict != expected(holds):
        return "mismatch"
    return None


class Tally:
    """Attempted and failed operations, with failures by reason."""

    def __init__(self):
        self.attempted = 0
        self.reasons = collections.Counter()

    def record(self, failure):
        self.attempted += 1
        if failure is not None:
            self.reasons[failure] += 1

    @property
    def failed(self):
        return sum(self.reasons.values())

    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0
