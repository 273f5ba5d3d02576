"""The service path: a `diogenes serve` daemon driven by a closed loop.

One client process runs ``clients`` threads in lockstep rounds.  In a
round each thread makes a *fresh* submission (a fuzzed workload no one
has submitted before, so the daemon executes the pipeline and writes
the report store), then, once every thread's fresh one is done, a
*stored* one (a resubmission of its fresh workload, answered from the
store).  Each submission is waited for and its report bytes fetched,
so at most ``clients`` submissions are ever outstanding.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from measure import HostClock, median, quantile

FUZZ_WORKLOAD = "fuzzed"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


class SubprocessDaemon:
    """``python -m repro.core.cli serve`` on a fresh data directory.

    ``setup_s`` is the wall time from spawning the process until its
    first healthy ``/healthz`` answer: interpreter start, imports, and
    the daemon's own start-up.
    """

    def __init__(self, root: str, data_dir: str, workers: int,
                 log_path: str) -> None:
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(log_path, "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve",
             "--port", str(self.port), "--data-dir", data_dir,
             "--workers", str(workers)],
            cwd=root, env=env, stdout=self._log, stderr=self._log)
        try:
            self._wait_healthy(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    "answering /healthz")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                status, _ = _get(conn, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("daemon not healthy after "
                                   f"{timeout:.0f}s")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        from measure import pid_peak_rss_mb

        return pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill if it does not come."""
        if self.proc.poll() is None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=10)
            try:
                conn.request("POST", "/shutdown")
                conn.getresponse().read()
            except OSError:
                pass
            finally:
                conn.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


class ThreadDaemon:
    """A :class:`~repro.service.daemon.ServiceDaemon` on a thread of this
    process — the traced run's service rung for workloads (like the
    firehose) that only this process has registered."""

    def __init__(self, data_dir: str, workers: int) -> None:
        from repro.service.daemon import ServiceDaemon

        self.daemon = ServiceDaemon(data_dir, workers=workers)
        self.thread = threading.Thread(
            target=self.daemon.run, kwargs={"port": 0}, daemon=True)
        self.thread.start()
        if not self.daemon.started.wait(60):
            raise RuntimeError("in-process daemon did not start")
        self.url = f"http://127.0.0.1:{self.daemon.bound_port}"

    def stop(self) -> None:
        from repro.service.client import ServiceClient

        ServiceClient(self.url).shutdown()
        self.thread.join(60)
        if self.thread.is_alive():
            raise RuntimeError("in-process daemon did not stop")


@dataclass
class Submission:
    """One submission as the client saw it (times are ``perf_counter``
    seconds unless named ``*_epoch``)."""

    kind: str                  # "fresh" or "stored"
    params: dict
    round: int = 0             # index of its lockstep round
    latency: float = 0.0       # submit until report bytes in hand
    submit_rtt: float = 0.0
    fetch_s: float = 0.0
    submit_done_s: float = 0.0  # submit until DONE seen
    cached: bool = False
    body: bytes = b""
    job: dict = field(default_factory=dict)
    done_epoch: float = 0.0    # time.time() when DONE was seen
    events: list = field(default_factory=list)
    trace: dict | None = None


class Session:
    """One client thread's connections to the daemon."""

    def __init__(self, url: str) -> None:
        from repro.service.client import ServiceClient

        self.client = ServiceClient(url)
        host, port = url.rsplit("/", 1)[-1].split(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=120)

    def close(self) -> None:
        self.client.close()
        self.conn.close()

    def submit(self, workload: str, params: dict, kind: str,
               traced: bool) -> Submission:
        """Submit, wait until DONE, fetch the report bytes."""
        sub = Submission(kind=kind, params=params)
        t0 = time.perf_counter()
        result = self.client.submit(workload, params)
        t1 = time.perf_counter()
        job = result["job"]
        if job["state"] != "done":
            job = self.client.wait(job["id"])
        t2 = time.perf_counter()
        sub.done_epoch = time.time()
        status, body = _get(self.conn, f"/reports/{job['report_key']}")
        t3 = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"GET /reports -> HTTP {status}")
        sub.latency, sub.submit_rtt = t3 - t0, t1 - t0
        sub.submit_done_s, sub.fetch_s = t2 - t0, t3 - t2
        sub.cached, sub.body, sub.job = result["cached"], body, job
        if traced:
            sub.events = self.client.events(job["id"], timeout=0)["events"]
            if not sub.cached:
                sub.trace = self.client.trace(job["id"])
        return sub


def run_closed_loop(url: str, clients: int, seconds: float,
                    next_fresh, traced: bool, min_rounds: int = 1,
                    on_round=None) -> dict:
    """Lockstep rounds from ``clients`` threads for ``seconds``.

    In each round every thread submits one fresh workload, all wait at
    a barrier, then every thread resubmits its own fresh workload
    (stored) and all wait again.  So the two kinds alternate, at most
    ``clients`` submissions are outstanding, and stored submissions are
    timed while no fresh one executes: each path's latency is its own.
    ``next_fresh()`` hands out the parameters of the next fresh
    submission.  Between rounds, while the daemon is idle, one thread
    marks the host speed (:class:`~measure.HostClock`); that time is in
    no round.  The loop ends at the first round boundary after
    ``seconds`` once ``min_rounds`` rounds are done; ``on_round(n)`` is
    called at each boundary, outside the rounds.  Returns the
    submissions, round walls, the clock, and the operations that raised.
    """
    lock = threading.Lock()
    subs: list[Submission] = []
    rounds: list[float] = []
    errors: list[str] = []
    host = HostClock()
    host.mark()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    clock = {"round": t_start, "stop": False}

    def end_of_round() -> None:  # runs in one thread, all others parked
        now = time.perf_counter()
        rounds.append(now - clock["round"])
        if on_round is not None:
            on_round(len(rounds))
        host.mark()
        clock["round"] = time.perf_counter()
        clock["stop"] = now >= deadline and len(rounds) >= min_rounds

    fresh_done = threading.Barrier(clients)
    round_done = threading.Barrier(clients, action=end_of_round)

    def attempt(session: Session, params: dict, kind: str, index: int):
        try:
            sub = session.submit(FUZZ_WORKLOAD, params, kind, traced)
            sub.round = index
            return sub
        except Exception as exc:  # noqa: BLE001 - a failure is counted
            with lock:
                errors.append(f"{kind} {params}: {type(exc).__name__}: "
                              f"{exc}")
            return None

    def client_loop() -> None:
        session = Session(url)
        try:
            while not clock["stop"]:
                index = len(rounds)
                with lock:
                    params = next_fresh()
                fresh = attempt(session, params, "fresh", index)
                fresh_done.wait(timeout=600)
                stored = None
                if fresh is not None:
                    stored = attempt(session, params, "stored", index)
                else:
                    with lock:
                        errors.append(f"stored {params}: not attempted")
                with lock:
                    subs.extend(s for s in (fresh, stored) if s is not None)
                round_done.wait(timeout=600)
        finally:
            session.close()

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"subs": subs, "rounds": rounds, "errors": errors,
            "clock": host}


def store_hits(url: str) -> float:
    from repro.service.client import ServiceClient

    for line in ServiceClient(url).metrics().splitlines():
        if line.startswith("repro_service_store_hits"):
            return float(line.split()[-1])
    return 0.0


def _covered_seconds(spans: list[dict]) -> float:
    """Length of the union of the spans' wall intervals."""
    covered, end = 0.0, float("-inf")
    for start, stop in sorted((s["wall_start"], s["wall_end"])
                              for s in spans if s.get("wall_end") is not None):
        if stop <= end:
            continue
        covered += stop - max(start, end)
        end = stop
    return covered


def service_layer_metrics(subs: list[Submission], hits: float) -> dict:
    """The service layer's per-layer metrics from traced submissions."""
    fresh = [s for s in subs if s.kind == "fresh"]
    stored = [s for s in subs if s.kind == "stored"]
    covered = [_covered_seconds(s.trace["spans"]) for s in fresh if s.trace]
    spans_s = median(covered)
    done_s = median([s.submit_done_s for s in fresh])
    return {
        "fresh_p50_s": median([s.latency for s in fresh]),
        "stored_p50_s": median([s.latency for s in stored]),
        "submit_rtt_s": median([s.submit_rtt for s in subs]),
        "queue_wait_s": median([s.job["claimed"] - s.job["created"]
                                for s in fresh]),
        "execute_s": median([s.job["updated"] - s.job["claimed"]
                             for s in fresh]),
        "notice_lag_s": median([s.done_epoch - s.job["updated"]
                                for s in fresh]),
        "fetch_s": median([s.fetch_s for s in subs]),
        "fetch_bytes": median([len(s.body) for s in subs]),
        "store_hits": hits,
        "stored_hit_share": (sum(s.cached for s in stored)
                             / max(len(stored), 1)),
        "snapshots_per_job": median([
            sum(e["event"] == "stream.snapshot" for e in s.events)
            for s in fresh]),
        "trace_covered_s": spans_s,
        "submit_done_s": done_s,
        "trace_coverage": spans_s / done_s,
    }


def latency_summary(subs: list[Submission]) -> dict:
    """p50 (and p90 where a class has >= 100 samples) per class."""
    out = {}
    for kind in ("fresh", "stored"):
        lat = sorted(s.latency for s in subs if s.kind == kind)
        if not lat:
            continue
        out[f"{kind}_p50_s"] = median(lat)
        if len(lat) >= 100:
            out[f"{kind}_p90_s"] = quantile(lat, 0.9)
        out[f"{kind}_n"] = len(lat)
    return out


def events_of(body: bytes) -> int:
    return json.loads(body)["stages"]["stage2"]["event_count"]
