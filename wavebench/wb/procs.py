"""Building the program and running its processes.

Requests go through the harness's ``launch`` loop, which spawns each
process from a small parent and reaps it with ``wait4``: exit status,
spawn-to-reap wall time and the process's own peak resident set size
come back together. (A process spawned straight from this Python client
would report at least the client's footprint as its peak RSS.)
"""

import json
import os
import shutil
import subprocess
import sys
import time


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed build)."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Checkout:
    """Paths inside the checkout the benchmark runs from."""

    def __init__(self, root):
        self.root = os.path.abspath(root)
        self.target = os.path.join(self.root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.work = os.path.join(self.root, "wavebench", ".work")
        self.wave = os.path.join(self.target, "release", "wave")
        self.harness = os.path.join(self.target, "release", "wavebench-harness")

    def path(self, *parts):
        return os.path.join(self.root, *parts)

    def require_sources(self):
        for rel in ("Cargo.toml", "crates/wave/Cargo.toml", "BENCH_query.json", "BENCH_store.json"):
            if not os.path.exists(self.path(rel)):
                raise BenchError(f"{rel} is missing: run from the root of a full checkout")

    def fresh_work(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        return self.work

    def build(self):
        """Release-build `wave` and the in-process harness (no-ops when
        nothing changed)."""
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for args in (["-p", "wave"], ["--manifest-path", "wavebench/harness/Cargo.toml"]):
            cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
            done = subprocess.run(cmd, cwd=self.root, env=env, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                raise BenchError(f"{' '.join(cmd)} failed with exit code {done.returncode}")

    def catalog(self):
        out = subprocess.run([self.harness, "catalog"], capture_output=True, check=True,
                             text=True)
        return json.loads(out.stdout)

    def bench_rows(self, name):
        with open(self.path(name)) as f:
            return json.load(f)["rows"]


def child_env(work):
    """Environment for spawned programs: temporary files stay in `work`."""
    return dict(os.environ, TMPDIR=work)


class Finished:
    __slots__ = ("exit_code", "seconds", "maxrss_mb", "stdout", "stderr")


class Launcher:
    """A running ``wavebench-harness launch`` loop."""

    def __init__(self, co, env):
        self.work = co.work
        self.proc = subprocess.Popen([co.harness, "launch"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env, text=True, bufsize=1)

    def run(self, argv, tag="req"):
        """Run ``argv`` to completion; its output goes to files in `work`."""
        out_path = os.path.join(self.work, f"{tag}.out")
        err_path = os.path.join(self.work, f"{tag}.err")
        self.proc.stdin.write(json.dumps({"argv": argv, "out": out_path, "err": err_path}) + "\n")
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchError(f"launcher exited with {self.proc.wait()}")
        a = json.loads(answer)
        f = Finished()
        f.exit_code, f.seconds, f.maxrss_mb = a["exit"], a["ns"] * 1e-9, a["maxrss_kb"] / 1024.0
        with open(out_path, errors="replace") as o, open(err_path, errors="replace") as e:
            f.stdout, f.stderr = o.read(), e.read()
        return f

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run(argv, work, env, tag="req"):
    """Spawn ``argv`` and wait for it; returns exit code, wall time and
    output (the peak RSS reported here includes this client's)."""
    out_path = os.path.join(work, f"{tag}.out")
    err_path = os.path.join(work, f"{tag}.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    f = Finished()
    f.seconds = time.perf_counter() - t0
    f.exit_code = os.waitstatus_to_exitcode(status)
    f.maxrss_mb = usage.ru_maxrss / 1024.0
    with open(out_path, errors="replace") as o, open(err_path, errors="replace") as e:
        f.stdout, f.stderr = o.read(), e.read()
    return f
