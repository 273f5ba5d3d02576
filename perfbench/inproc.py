"""The in-process workloads: paper-apps and firehose.

An operation is ``Diogenes(app).run()`` followed by ``dumps_report`` —
what ``diogenes run --json`` does — timed from the call until the
report text is in hand.  A round is one operation per app in the
workload (four for paper-apps, one for firehose); runs attempt whole
rounds.  Outputs are checked after each operation, outside its timer.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
import inputs
from measure import HostClock, attribute_profile, median, self_peak_rss_mb


@dataclass
class Op:
    label: str
    app: object
    #: ``check(report_json, app)`` raises ``CheckFailed`` on bad output.
    check: object
    #: (registry name, params) to submit the same input to a daemon.
    submission: tuple[str, dict]


def operations(workload: str, seed: int) -> list[Op]:
    """The operations of one round, inputs derived from ``seed``.

    The paper apps take no seed: their inputs are the paper's bench
    scale.  The firehose's tail length comes from the seed.
    """
    if workload == "paper-apps":
        return [Op(name, app,
                   lambda report, app, name=name: checks.check_paper_app(
                       name, report, checks.app_outputs(name, app)),
                   (name, kwargs))
                for (name, app), (_, kwargs) in
                zip(inputs.paper_apps(), inputs.PAPER_APPS)]
    if workload == "firehose":
        n = inputs.firehose_events(seed)
        return [Op("firehose", inputs.CollectionFirehose(n),
                   lambda report, app: checks.check_firehose(
                       report, app.events, inputs.FIREHOSE_BLOCK),
                   (inputs.FIREHOSE_WORKLOAD, {"events": n}))]
    raise ValueError(f"not an in-process workload: {workload}")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def run(self, op: Op, fn):
        """Run one attempt of ``op``; ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a failed operation is counted
            self.failed += 1
            print(f"[perfbench] {op.label} failed:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            return None

    def check(self, op: Op, text: str) -> None:
        try:
            op.check(json.loads(text), op.app)
        except checks.CheckFailed as exc:
            self.wrong.append(str(exc))
            print(f"[perfbench] output check failed: {exc}",
                  file=sys.stderr)


def run_op(op: Op) -> tuple[float, str, int]:
    """One timed operation: (wall seconds, report text, traced events)."""
    from repro.core.diogenes import Diogenes
    from repro.core.jsonio import dumps_report

    t0 = time.perf_counter()
    report = Diogenes(op.app).run()
    text = dumps_report(report)
    wall = time.perf_counter() - t0
    return wall, text, len(report.stage2.events)


def plain_round(ops: list[Op], tally: Tally, latencies: dict) -> tuple:
    """One untraced round: (round wall, traced events, {label: digest})."""
    wall = events = 0
    digests = {}
    for op in ops:
        result = tally.run(op, lambda op=op: run_op(op))
        if result is None:
            continue
        op_wall, text, op_events = result
        latencies.setdefault(op.label, []).append(op_wall)
        wall += op_wall
        events += op_events
        tally.check(op, text)
        digests[op.label] = hashlib.sha256(text.encode()).hexdigest()
    return wall, events, digests


def timed(workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end run: whole rounds until ``seconds`` have passed,
    each operation between two host-speed marks and rescaled by them."""
    ops = operations(workload, seed)
    tally, clock = Tally(), HostClock()
    rounds, scaled_rounds, scaled, events = [], [], {}, 0
    deadline = time.perf_counter() + seconds
    clock.mark()
    while True:
        wall = scaled_wall = 0.0
        for op in ops:
            latencies = {}
            op_wall, op_events, _ = plain_round([op], tally, latencies)
            factor_at = len(clock.marks) - 1
            clock.mark()
            factor = clock.factor(factor_at)
            wall += op_wall
            scaled_wall += op_wall * factor
            events += op_events
            for label, walls in latencies.items():
                scaled.setdefault(label, []).extend(w * factor for w in walls)
        rounds.append(wall)
        scaled_rounds.append(scaled_wall)
        if time.perf_counter() >= deadline:
            break
    pass_s = median(scaled_rounds)
    info = {"rounds": len(rounds), "pass_wall_p50_s": median(rounds),
            "reference_p50_s": clock.reference_p50_s()}
    for label, v in scaled.items():
        info[f"app_p50_s.{label}"] = median(v)
    return {
        "tally": tally,
        "metrics": {
            "pass_s": pass_s,
            "slowest_op_s": max(median(v) for v in scaled.values()),
            "events_per_s": events / len(rounds) / pass_s,
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "info": info,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def ladder_op(op: Op) -> tuple[dict, str]:
    """One operation split along its layers, each public call timed.

    Rung L0 is an uninstrumented run of the app; then each collection
    stage, ``analyze()``, the rest of ``assemble_report`` and the
    report encoding, composed as ``Diogenes.run`` composes them.
    """
    from repro.core.analysis import analyze
    from repro.core.diogenes import DiogenesConfig, assemble_report
    from repro.core.jsonio import dumps_report
    from repro.core.records import Stage3Data
    from repro.core.stage1_baseline import run_stage1
    from repro.core.stage2_tracing import run_stage2
    from repro.core.stage3_memtrace import run_stage3
    from repro.core.stage4_syncuse import run_stage4

    cfg = DiogenesConfig()
    app = op.app
    walls: dict[str, float] = {}

    def timer(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        walls[name] = time.perf_counter() - t0
        return result

    timer("app_run_s", app.execute, cfg.machine_config)
    s1 = timer("stage1_s", run_stage1, app, cfg)
    s2 = timer("stage2_s", run_stage2, app, s1, cfg)
    mem = timer("stage3_memtrace_s", run_stage3, app, s1, cfg,
                mode="memtrace")
    hsh = timer("stage3_hashing_s", run_stage3, app, s1, cfg, mode="hashing")
    s3 = Stage3Data(execution_time=mem.execution_time,
                    sync_uses=mem.sync_uses,
                    transfer_hashes=hsh.transfer_hashes)
    s4 = timer("stage4_s", run_stage4, app, s1, s3, cfg)
    analysis = timer("analyze_s", analyze, s1, s2, s3, s4,
                     misplaced_min_delay=cfg.misplaced_min_delay,
                     benefit_config=cfg.benefit)
    report = timer("assemble_s", assemble_report,
                   getattr(app, "name", "workload"), s1, s2, s3, s4,
                   {"stage3_memtrace": mem.execution_time,
                    "stage3_hashing": hsh.execution_time}, cfg)
    # assemble_report calls analyze() itself; the rest is its own cost.
    walls["assemble_s"] -= walls["analyze_s"]
    text = timer("encode_s", dumps_report, report)
    stage_sum = sum(walls[k] for k in ("stage1_s", "stage2_s",
                                       "stage3_memtrace_s",
                                       "stage3_hashing_s", "stage4_s"))
    walls["collect_tool_s"] = stage_sum - 5 * walls["app_run_s"]
    walls["traced_events"] = len(s2.events)
    walls["problems"] = len(analysis.problems)
    walls["graph_nodes"] = len(analysis.graph)
    walls["report_bytes"] = len(text)
    return walls, text


def _sum_rows(rows: list[dict]) -> dict:
    out: dict[str, float] = {}
    for row in rows:
        for key, value in row.items():
            out[key] = out.get(key, 0) + value
    return out


def ladder_round(ops: list[Op], tally: Tally, digests: dict) -> dict:
    rows = []
    t0 = time.perf_counter()
    for op in ops:
        result = tally.run(op, lambda op=op: ladder_op(op))
        if result is None:
            continue
        row, text = result
        rows.append(row)
        if hashlib.sha256(text.encode()).hexdigest() != digests.get(op.label):
            tally.wrong.append(f"{op.label}: the layer-by-layer report "
                               "differs from Diogenes.run's")
    row = _sum_rows(rows)
    row["round_s"] = time.perf_counter() - t0
    return row


def ledger_round(ops: list[Op], tally: Tally) -> float:
    """The perturbation ledger's modelled stage 1-4 tool seconds."""
    import repro.obs as obs
    from repro.core.diogenes import Diogenes

    total = 0.0
    for op in ops:
        with obs.enabled() as session:
            if tally.run(op, lambda op=op: Diogenes(op.app).run()) is None:
                continue
        for (stage, bucket), cell in session.ledger.cells.items():
            if stage.startswith(("stage1", "stage2", "stage3", "stage4")) \
                    and bucket in ("callbacks", "record", "hashing",
                                   "tracing"):
                total += cell.seconds
    return total


def profile_round(ops: list[Op], tally: Tally) -> dict:
    """One plain round under cProfile, attributed to packages."""
    import cProfile

    profiler = cProfile.Profile()
    events = 0
    t0 = time.perf_counter()
    for op in ops:
        profiler.enable()
        try:
            result = tally.run(op, lambda op=op: run_op(op))
        finally:
            profiler.disable()
        if result is not None:
            events += result[2]
    wall = time.perf_counter() - t0
    out = attribute_profile(profiler, events)
    out["profile_round_s"] = wall
    return out


def service_rung(ops: list[Op], tally: Tally, digests: dict,
                 workdir: str, workers: int) -> dict:
    """Ladder rung L5: each input submitted fresh, then again (stored),
    to a daemon on a thread of this process."""
    import service

    inputs.register_firehose()
    daemon = service.ThreadDaemon(workdir, workers)
    try:
        session = service.Session(daemon.url)
        subs = []
        try:
            for op in ops:
                name, params = op.submission
                for kind in ("fresh", "stored"):
                    sub = tally.run(op, lambda: session.submit(
                        name, params, kind, traced=True))
                    if sub is None:
                        break
                    subs.append(sub)
                    if hashlib.sha256(sub.body).hexdigest() != \
                            digests.get(op.label):
                        tally.wrong.append(
                            f"{op.label}: {kind} service report differs "
                            "from Diogenes.run's")
        finally:
            session.close()
        hits = service.store_hits(daemon.url)
    finally:
        daemon.stop()
    return service.service_layer_metrics(subs, hits)


def layer_metrics(ops: list[Op], tally: Tally, seconds: float) -> tuple:
    """Per-layer metrics of one round of ``ops``: plain and laddered
    rounds alternate for ``seconds`` (at least one of each), then one
    ledger round and one profiled round.  Returns the metrics and the
    plain round's report digests."""
    plain, ladder = [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, _, digests = plain_round(ops, tally, {})
        plain.append(wall)
        ladder.append(ladder_round(ops, tally, digests))
        if time.perf_counter() >= deadline:
            break
    metrics = {key: median([row[key] for row in ladder])
               for key in ladder[0] if key != "round_s"}
    ledger_s = ledger_round(ops, tally)
    metrics["ledger_tool_s"] = ledger_s
    metrics["ledger_to_measured"] = ledger_s / metrics["collect_tool_s"]
    metrics.update(profile_round(ops, tally))
    plain_s = median(plain)
    metrics["untraced_round_s"] = plain_s
    metrics["trace_overhead_s"] = median([r["round_s"] for r in ladder]) \
        - plain_s
    metrics["profile_overhead_s"] = metrics.pop("profile_round_s") - plain_s
    return metrics, digests


def traced(workload: str, seed: int, seconds: float, workdir: str,
           workers: int) -> dict:
    """The per-layer run: the layer ladder, ledger and profile for
    ``seconds``, then the service rung on the same inputs."""
    ops = operations(workload, seed)
    tally = Tally()
    metrics, digests = layer_metrics(ops, tally, seconds)
    metrics.update(service_rung(ops, tally, digests, workdir, workers))
    return {"tally": tally, "metrics": metrics, "info": {}}
