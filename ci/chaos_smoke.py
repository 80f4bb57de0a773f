#!/usr/bin/env python3
"""Chaos smoke for the fault-injection/robustness stack.

Drives the *built release binaries* (not the unit suites) through a
fixed adversarial fault schedule and asserts the robustness contracts
end to end:

1. Cache-layer faults are absorbed: a smoke run with injected cache
   write/rename failures exits 0, reports the failures on the stats
   line, and produces a jobs array identical to the fault-free run —
   twice, byte-for-byte (deterministic replay).
2. Deadlines type, not hang: `--deadline-cycles 1` times out every job
   (status "timed_out", exit 1 via the incomplete-suite gate) — and the
   same with `--trace` on, which also writes a parseable trace: a traced
   run is the same grid run, not a path around the deadline.
3. Pool faults cost one job: an injected `pool.exec` failure yields
   exactly one "failed" slot, and the schedule replays identically.
4. The daemon survives a fault schedule: with an injected
   `serve.request` fault armed, a client that retries the one poisoned
   response still completes a normal job, a per-job deadline comes back
   "timed_out" without retry, and drain exits 0.
5. Hostile bytes are bounded: a client sending raw non-UTF-8 bytes, one
   sending brackets nested far past the parser's depth limit, and one
   sending a line longer than the daemon's 1 MiB bound (first exactly
   one byte over, then without ever stopping) each get an error answer
   or a closed connection — and the daemon keeps serving.

Artifacts land in --out. Stdlib only.
"""

import argparse
import json
import pathlib
import shutil
import socket
import subprocess
import sys
import time

SMOKE_JOBS = 9  # first three Table 3 benchmarks x three machines
MAX_REQUEST_LINE = 1 << 20  # dmt_serve::server::MAX_REQUEST_LINE


def run(binary, argv, out):
    """Runs a bench binary; returns (exit code, stderr text)."""
    proc = subprocess.run(
        [binary, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
        check=False,
    )
    (out / "last-stderr.log").write_text(proc.stderr)
    return proc.returncode, proc.stderr


def jobs_of(path):
    """The deterministic jobs array of a versioned artifact."""
    doc = json.loads(pathlib.Path(path).read_text())
    return doc["jobs"]


def check(cond, what):
    if not cond:
        sys.exit(f"chaos-smoke: FAIL: {what}")
    print(f"chaos-smoke: ok: {what}")


def batch_scenarios(bench_bin, out):
    base = out / "base.json"
    code, _ = run(
        bench_bin,
        ["--smoke", "--threads", "2", "--json", str(base)],
        out,
    )
    check(code == 0, "fault-free smoke run exits 0")
    base_jobs = jobs_of(base)
    check(len(base_jobs) == SMOKE_JOBS, f"baseline covers {SMOKE_JOBS} jobs")

    # 1. Cache write+rename faults: absorbed, counted, replayable.
    cache_spec = "seed=11;cache.write:nth=2;cache.rename:nth=5"
    for attempt in ("a", "b"):
        cache_dir = out / f"cache-{attempt}"
        art = out / f"cache-faults-{attempt}.json"
        code, err = run(
            bench_bin,
            [
                "--smoke",
                "--threads",
                "2",
                "--faults",
                cache_spec,
                "--cache",
                str(cache_dir),
                "--json",
                str(art),
            ],
            out,
        )
        check(code == 0, f"cache-fault run {attempt} exits 0 (degraded, not dead)")
        check(
            "2 store-failures" in err,
            f"cache-fault run {attempt} counts both injected failures",
        )
        check(
            jobs_of(art) == base_jobs,
            f"cache-fault run {attempt} jobs array matches the fault-free run",
        )

    # 2. A one-cycle deadline times out the whole suite, typed — untraced
    # and traced alike.
    for tag, traced in (("deadline", False), ("deadline-traced", True)):
        art = out / f"{tag}.json"
        trace = out / f"{tag}.trace.json"
        argv = ["--smoke", "--threads", "2", "--deadline-cycles", "1", "--json", str(art)]
        if traced:
            argv += ["--trace", str(trace)]
        code, err = run(bench_bin, argv, out)
        check(code == 1, f"{tag} run exits 1 via the incomplete-suite gate")
        check("suite row(s) failed" in err, f"{tag} run reports the failed rows")
        timed = [j for j in jobs_of(art) if j["status"] == "timed_out"]
        check(len(timed) == SMOKE_JOBS, f"{tag}: every job times out under a 1-cycle budget")
        check(
            all("deadline exceeded" in j["error"] for j in timed),
            f"{tag}: timeouts carry the deadline error",
        )
        if traced:
            events = json.loads(trace.read_text())["traceEvents"]
            check(isinstance(events, list), f"{tag}: the trace is written and parses")

    # 3. One pool.exec fault costs exactly one job; serial replay is
    # byte-identical (with >1 worker the fault ordinal races the
    # dispatch order, so WHICH job dies would be nondeterministic).
    docs = []
    for attempt in ("a", "b"):
        art = out / f"pool-fault-{attempt}.json"
        code, _ = run(
            bench_bin,
            [
                "--smoke",
                "--threads",
                "1",
                "--faults",
                "pool.exec:nth=4",
                "--json",
                str(art),
            ],
            out,
        )
        check(code == 1, f"pool-fault run {attempt} exits 1 (a row failed)")
        jobs = jobs_of(art)
        failed = [j for j in jobs if j["status"] == "failed"]
        check(len(failed) == 1, f"pool-fault run {attempt} fails exactly one job")
        check(
            failed[0]["error"] == "injected fault: pool.exec",
            f"pool-fault run {attempt} failure is typed and attributed",
        )
        check(
            len([j for j in jobs if j["status"] == "ok"]) == SMOKE_JOBS - 1,
            f"pool-fault run {attempt} siblings all complete",
        )
        docs.append(json.dumps(jobs, sort_keys=True))
    check(docs[0] == docs[1], "pool-fault schedule replays identically")


class Client:
    """One line-delimited JSON connection."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=120)
        self.rfile = self.sock.makefile("r")
        self.injected = 0

    def req(self, obj):
        """Sends one request, retrying through injected request faults."""
        for _ in range(16):
            self.sock.sendall((json.dumps(obj) + "\n").encode())
            line = self.rfile.readline()
            if not line:
                raise RuntimeError("server closed the connection")
            resp = json.loads(line)
            if "injected fault" in str(resp.get("error", "")):
                self.injected += 1
                continue
            return resp
        raise RuntimeError("fault kept firing; Nth triggers fire once")


def raw_exchange(addr, payload):
    """Sends raw bytes on a fresh connection; returns (first response
    line decoded as JSON or None, whether the daemon then closed)."""
    with socket.create_connection(addr, timeout=120) as sock:
        sock.sendall(payload)
        rfile = sock.makefile("rb")
        line = rfile.readline()
        resp = json.loads(line) if line else None
        sock.settimeout(0.5)
        try:
            closed = rfile.read(1) == b""
        except OSError:
            closed = False
        return resp, closed


def hostile_clients(addr):
    """Scenario 5: byte-level abuse from throwaway connections."""
    resp, closed = raw_exchange(addr, b'{"verb":\xff\xfe\x00}\n')
    check(
        resp == {"ok": False, "error": "request is not valid UTF-8"},
        "raw non-UTF-8 bytes get a typed error",
    )
    check(not closed, "the raw-bytes connection stays open")

    resp, closed = raw_exchange(addr, b"[" * 100_000 + b"\n")
    check(
        resp is not None
        and resp.get("ok") is False
        and "nesting deeper than 128" in resp.get("error", ""),
        "100k nested brackets hit the parser's depth limit, not the stack",
    )
    check(not closed, "the deep-nesting connection stays open")

    # Exactly one byte over the bound: the daemon has read everything
    # that was sent, so its close is clean and the answer arrives.
    resp, closed = raw_exchange(addr, b"x" * (MAX_REQUEST_LINE + 1))
    check(
        resp == {"ok": False, "error": "request line too long"},
        "an oversize line is answered from the bounded buffer",
    )
    check(closed, "the oversize-line connection is recycled")

    # An endless line: keep writing until the daemon hangs up. The answer
    # may be lost to the reset; the bound on the daemon's side is the
    # point. 64 MiB is far past anything it could be buffering.
    sent = 0
    chunk = b"y" * (1 << 16)
    with socket.create_connection(addr, timeout=120) as sock:
        try:
            while sent < (64 << 20):
                sock.sendall(chunk)
                sent += len(chunk)
        except OSError:
            pass
    check(
        MAX_REQUEST_LINE < sent < (64 << 20),
        f"an endless line is cut off ({sent >> 20} MiB accepted by the socket)",
    )


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_ready(addr, proc, timeout=60):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited early: {proc.returncode}")
        try:
            socket.create_connection(addr, timeout=1).close()
            return
        except OSError:
            time.sleep(0.1)
    raise RuntimeError("daemon never came up")


def serve_scenario(serve_bin, out):
    port = free_port()
    addr = ("127.0.0.1", port)
    proc = subprocess.Popen(
        [
            serve_bin,
            "--addr",
            f"127.0.0.1:{port}",
            "--cache",
            str(out / "serve-cache"),
            "--threads",
            "2",
            "--faults",
            "serve.request:nth=2",
        ]
    )
    try:
        wait_ready(addr, proc)
        client = Client(addr)
        resp = client.req(
            {
                "verb": "submit",
                "jobs": [
                    {"bench": "scan", "arch": "dmt_cgra"},
                    {"bench": "scan", "arch": "mt_cgra", "deadline_cycles": 1},
                ],
            }
        )
        check(resp.get("ok") is True, "daemon accepts the chaos submit")
        normal, timed = (job["job_hash"] for job in resp["jobs"])

        states = {}
        poll_deadline = time.monotonic() + 300
        for job_hash in (normal, timed):
            while True:
                status = client.req({"verb": "status", "job_hash": job_hash})
                state = status.get("state")
                if state not in ("queued", "running"):
                    states[job_hash] = status
                    break
                if time.monotonic() > poll_deadline:
                    raise RuntimeError(f"job {job_hash} never settled: {status}")
                time.sleep(0.05)

        check(states[normal]["state"] == "done", "unlimited job completes")
        check(
            states[timed]["state"] == "timed_out",
            "1-cycle-deadline job is typed timed_out",
        )
        check(
            states[timed]["attempts"] == 1,
            "a timeout is permanent: no retry burned on it",
        )
        check(
            client.injected == 1,
            "exactly one response was poisoned and the client retried through it",
        )

        hostile_clients(addr)

        metrics = client.req({"verb": "metrics"})
        check(metrics["jobs"]["timed_out"] == 1, "metrics count the timeout")
        check(metrics["jobs"]["done"] == 1, "metrics count the completion")
        check(
            metrics["requests"]["bad"] == 4,
            "metrics count the four refused lines as bad requests",
        )

        drain = client.req({"verb": "drain"})
        check(drain.get("ok") is True, "drain accepted")
        code = proc.wait(timeout=120)
        check(code == 0, "daemon drains and exits 0 despite the fault schedule")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-binary", default="target/release/fig11_speedup")
    ap.add_argument("--serve-binary", default="target/release/dmt-serve")
    ap.add_argument("--out", default="artifacts/chaos-smoke")
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)

    batch_scenarios(args.bench_binary, out)
    serve_scenario(args.serve_binary, out)
    print("chaos-smoke: PASS")


if __name__ == "__main__":
    main()
