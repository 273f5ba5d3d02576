"""The service-mixed workload: fresh and stored submissions through a
`diogenes serve` subprocess, checked against serial in-process runs."""

from __future__ import annotations

import itertools
import os
import sys

import checks
import inputs
import service
from inproc import Op, Tally, layer_metrics
from measure import SETUP_REPEATS, HostClock, median

#: Fresh inputs the traced run also takes through the layer ladder,
#: and for how long ladder rounds over them repeat.
LADDER_INPUTS = 8
LADDER_SECONDS = 3.0

#: Rounds after which the daemon's peak RSS is read.  The daemon keeps
#: memory per job it has run, so a fixed job count (one fresh job per
#: client per round) keeps the figure comparable across host speeds.
RSS_ROUNDS = 32


def start_daemon(root: str, workdir: str, workers: int):
    """Start SETUP_REPEATS daemons in turn, each on a fresh data
    directory; keep the last.  Returns (daemon, median setup seconds,
    each rescaled by the host-speed marks around it)."""
    setups = []
    daemon = None
    clock = HostClock()
    clock.mark()
    for i in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        daemon = service.SubprocessDaemon(
            root, os.path.join(workdir, f"service-{i}"), workers,
            os.path.join(workdir, f"service-{i}.log"))
        clock.mark()
        setups.append(daemon.setup_s)
    return daemon, median(clock.scaled(setups))


def fresh_params(seed: int):
    """``next_fresh`` for the closed loop: fuzz seeds s*STRIDE + i."""
    counter = itertools.count()

    def next_fresh() -> dict:
        return {"seed": inputs.fuzz_seed(seed, next(counter)),
                "segments": inputs.FUZZ_SEGMENTS}
    return next_fresh


def reference_report(params: dict) -> tuple[bytes, dict]:
    """Serial in-process run of a fresh submission's workload: its
    report bytes and the generator's planted manifest."""
    from repro.core.diogenes import Diogenes
    from repro.core.jsonio import dumps_report
    from repro.fuzz.generator import FuzzedApp

    app = FuzzedApp(**params)
    return (dumps_report(Diogenes(app).run()).encode(),
            app.plan.planted_lines())


def check_loop(loop: dict, tally: Tally) -> None:
    """Every fresh report against its reference and planted manifest,
    every stored body against its fresh one.  Runs after the timed
    loop; the references are computed here, outside it."""
    fresh = {}
    for sub in loop["subs"]:
        key = (sub.params["seed"], sub.params["segments"])
        try:
            if sub.kind == "fresh":
                checks.expect(not sub.cached,
                              f"fresh submission {key} served from store")
                reference, planted = reference_report(sub.params)
                checks.check_fresh(sub.body, planted, reference)
                fresh[key] = sub.body
            else:
                checks.expect(sub.cached,
                              f"stored submission {key} was executed")
                checks.check_stored(sub.body, fresh[key])
        except checks.CheckFailed as exc:
            tally.wrong.append(str(exc))
            print(f"[perfbench] output check failed: {exc}", file=sys.stderr)


def _tally_loop(loop: dict, tally: Tally) -> None:
    tally.attempted += len(loop["subs"]) + len(loop["errors"])
    tally.failed += len(loop["errors"])
    for error in loop["errors"]:
        print(f"[perfbench] submission failed: {error}", file=sys.stderr)


def timed(root: str, seed: int, seconds: float, workdir: str,
          clients: int) -> dict:
    daemon, setup_s = start_daemon(root, workdir, clients)
    rss = {}

    def read_rss(done: int) -> None:
        if done == RSS_ROUNDS:
            rss["mb"] = daemon.peak_rss_mb()
    try:
        loop = service.run_closed_loop(daemon.url, clients, seconds,
                                       fresh_params(seed), traced=False,
                                       min_rounds=RSS_ROUNDS,
                                       on_round=read_rss)
    finally:
        daemon.stop()
    tally = Tally()
    _tally_loop(loop, tally)
    check_loop(loop, tally)
    clock = loop["clock"]
    events = sum(service.events_of(s.body) for s in loop["subs"]
                 if s.kind == "fresh")
    rounds = clock.scaled(loop["rounds"])
    info = service.latency_summary(loop["subs"])
    info["jobs_per_s"] = len(loop["subs"]) / sum(loop["rounds"])
    info["rounds"] = len(rounds)
    info["pass_wall_p50_s"] = median(loop["rounds"])
    info["reference_p50_s"] = clock.reference_p50_s()
    fresh = [s.latency * clock.factor(s.round) for s in loop["subs"]
             if s.kind == "fresh"]
    return {
        "tally": tally,
        "metrics": {
            "setup_s": setup_s,
            "pass_s": median(rounds),
            "slowest_op_s": median(fresh),
            "events_per_s": events / sum(rounds),
            "peak_rss_mb": rss["mb"],
        },
        "info": info,
    }


def traced(root: str, seed: int, seconds: float, workdir: str,
           clients: int) -> dict:
    """Half the time untraced, half traced (job records, ``/events`` and
    ``/trace`` read per submission), then the first fresh inputs through
    the in-process layer ladder, ledger and profile."""
    daemon, _ = start_daemon(root, workdir, clients)
    next_fresh = fresh_params(seed)
    try:
        plain = service.run_closed_loop(daemon.url, clients, seconds / 2,
                                        next_fresh, traced=False)
        traced_loop = service.run_closed_loop(daemon.url, clients,
                                              seconds / 2, next_fresh,
                                              traced=True)
        hits = service.store_hits(daemon.url)
    finally:
        daemon.stop()
    tally = Tally()
    for loop in (plain, traced_loop):
        _tally_loop(loop, tally)
        check_loop(loop, tally)
    metrics = service.service_layer_metrics(traced_loop["subs"], hits)
    plain_s = median(plain["rounds"])
    metrics["untraced_round_s"] = plain_s
    metrics["trace_overhead_s"] = median(traced_loop["rounds"]) - plain_s

    from repro.fuzz.generator import FuzzedApp

    ops = [Op(f"fuzz-{sub.params['seed']}", FuzzedApp(**sub.params),
              lambda report, app: None, (service.FUZZ_WORKLOAD, sub.params))
           for sub in traced_loop["subs"] if sub.kind == "fresh"]
    layers, _ = layer_metrics(ops[:LADDER_INPUTS], tally, LADDER_SECONDS)
    # The service loop's traced-vs-untraced walls are this workload's.
    layers.pop("untraced_round_s")
    layers.pop("trace_overhead_s")
    metrics.update(layers)
    return {"tally": tally, "metrics": metrics, "info": {}}
