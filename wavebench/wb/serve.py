"""serve-mix: one `wave serve --jobs 2` with its in-memory result cache,
driven by one client process over two closed-loop connections."""

import json
import os
import re
import socket
import threading
import time

from . import inputs, oracle, procs
from .check import elapsed_by_case

JOBS = 2
CONNECTIONS = 2
TIMEOUT_S = 60.0
LISTENING = re.compile(r"listening on (\S+):(\d+)")


class Server:
    """A running `wave serve` child, reaped on shutdown."""

    def __init__(self, co, env):
        self.err_path = os.path.join(co.work, "serve.err")
        argv = [co.wave, "serve", "--addr", "127.0.0.1:0", "--jobs", str(JOBS)]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        self.pid = os.posix_spawn(co.wave, argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err_path, flags, 0o644),
        ])
        self.addr = None
        deadline = time.monotonic() + 10
        while self.addr is None:
            with open(self.err_path) as f:
                m = LISTENING.search(f.read())
            if m:
                self.addr = (m.group(1), int(m.group(2)))
            elif time.monotonic() > deadline or os.waitpid(self.pid, os.WNOHANG)[0]:
                self.kill()
                raise procs.BenchError("wave serve did not start listening")
            else:
                time.sleep(0.002)

    def connect(self):
        return Connection(self.addr)

    def hwm_mb(self):
        """High-water resident set of the server so far."""
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise procs.BenchError("no VmHWM in /proc status")

    def shutdown(self):
        try:
            with self.connect() as c:
                c.call('{"cmd":"shutdown"}')
        except OSError:
            self.kill()
            return
        os.waitpid(self.pid, 0)

    def kill(self):
        try:
            os.kill(self.pid, 9)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class Connection:
    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, line):
        """Send one line and return the full response line (bytes)."""
        self.sock.sendall(line.encode() + b"\n")
        reply = self.rfile.readline()
        if not reply.endswith(b"\n"):
            raise ConnectionError("connection closed mid-reply")
        return reply

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rfile.close()
        self.sock.close()


def job_line(source, text, name):
    return json.dumps({"spec": source, "property": text, "name": name})


class ServeMix:
    def __init__(self, co, seed):
        self.co, self.seed = co, seed
        self.server = None

    def setup(self):
        """Inputs, server start, cache pre-warm and one warm-up request."""
        if self.server is not None:
            self.server.shutdown()
        co = self.co
        work = co.fresh_work()
        catalog = co.catalog()
        self.elapsed = elapsed_by_case(co)
        self.catalog = catalog
        self.cases = {(s["id"], p["name"]): (s["source"], p) for s in catalog["suites"]
                      for p in s["properties"]}
        self.prewarm = [self.line(c, None) for c in inputs.fast_cases(catalog, self.elapsed)]
        self.server = Server(co, procs.child_env(work))
        with self.server.connect() as c:
            for line in self.prewarm:
                c.call(line)
            c.call(self.line(inputs.fast_cases(catalog, self.elapsed)[0], "warmup"))
        self.list_hash = inputs.list_hash(self.pass_items(0))

    def pass_items(self, pass_index):
        return inputs.serve_mix(self.catalog, self.elapsed, self.seed, pass_index)

    def line(self, case, fresh):
        source, prop = self.cases[tuple(case)]
        if fresh is not None:
            source = inputs.renamed_spec(source, fresh)
        return job_line(source, prop["text"], f"{case[0]}/{case[1]}")

    def requests(self, pass_index):
        """(line, expected holds, fresh) for every request of one pass."""
        out = []
        for suite, prop, fresh in self.pass_items(pass_index):
            out.append((self.line((suite, prop), fresh), self.cases[(suite, prop)][1]["holds"],
                        fresh is not None))
        return out

    def run_pass(self, pass_index, tally, mix):
        """Drive one pass's fixed list over the closed-loop connections.
        Returns (wall seconds, latencies in ms of answered requests).
        ``mix`` counts cache hits and misses against the plan."""
        reqs = self.requests(pass_index)
        results = [None] * len(reqs)
        next_index = iter(range(len(reqs)))
        lock = threading.Lock()

        def client():
            try:
                conn = self.server.connect()
            except OSError:
                conn = None
            while True:
                with lock:
                    i = next(next_index, None)
                if i is None:
                    break
                t0 = time.perf_counter()
                try:
                    if conn is None:
                        raise ConnectionError("refused")
                    reply = conn.call(reqs[i][0])
                    results[i] = (time.perf_counter() - t0, reply)
                except OSError:
                    results[i] = (time.perf_counter() - t0, None)
            if conn is not None:
                conn.__exit__()

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0

        latencies = []
        for (line, holds, fresh), (seconds, raw) in zip(reqs, results):
            reply = json.loads(raw) if raw is not None else None
            failure = oracle.serve_failure(holds, reply)
            tally.record(failure)
            if failure is None:
                latencies.append(seconds * 1e3)
                cached = reply["results"][0]["cached"]
                mix["hit" if cached else "miss"] += 1
                if cached == fresh:
                    mix["unplanned"] += 1
            else:
                procs.log(f"serve-mix: request failed ({failure}): {str(raw)[:300]}")
        return wall, latencies

    def metrics(self):
        with self.server.connect() as c:
            return json.loads(c.call('{"cmd":"metrics"}'))["metrics"]

    def plan(self, pass_index):
        """Harness plan: header, then the pre-warm and request wire lines."""
        lines = self.prewarm + [line for line, _, _ in self.requests(pass_index)]
        return {"jobs": JOBS, "prewarm": len(self.prewarm)}, lines

    def close(self):
        if self.server is not None:
            self.server.shutdown()
            self.server = None
