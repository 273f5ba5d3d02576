"""Output checks, each computed apart from the program.

Every check takes the program's output as plain data (a parsed report
JSON, raw report bytes, an app's own result history) and raises
:class:`CheckFailed` with a message naming what is wrong.  The expected
values come from the workload's construction, never from the program's
own analysis: the firehose counts follow from its block shape, the
paper-app facts from the paper's case studies at bench scale, and the
fuzz expectations from the generator's planted manifest.
"""

from __future__ import annotations

from collections import Counter

UNNECESSARY_SYNC = "unnecessary_synchronization"
UNNECESSARY_TRANSFER = "unnecessary_transfer"


class CheckFailed(AssertionError):
    """An output did not match what the workload's construction implies."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _top_fold(report: dict, api: str) -> None:
    """The highest-benefit API fold is ``api``, and only ``api``."""
    folds = report["groups"]["api_folds"]
    expect(bool(folds), "report has no API folds")
    top = folds[0]
    expect(top["label"] == f"Fold on {api}",
           f"top API fold is {top['label']!r}, expected 'Fold on {api}'")
    apis = {p["api_name"] for p in _members(report, top)}
    expect(apis == {api}, f"top fold holds calls of {sorted(apis)}")


def _members(report: dict, group: dict) -> list[dict]:
    by_node = {p["node_index"]: p for p in report["problems"]}
    return [by_node[n] for n in group["member_nodes"]]


def problem_sites(report: dict) -> Counter:
    """(file, line, kind) -> detections, from each problem's own frame."""
    return Counter((p["stack"][-1]["file"], p["stack"][-1]["line"], p["kind"])
                   for p in report["problems"])


# ----------------------------------------------------------------------
# paper-apps
# ----------------------------------------------------------------------
def check_cumf_als(report: dict, rmse: list[float], iterations: int) -> None:
    seqs = report["sequences"]
    expect(bool(seqs), "cumf-als: no sequence reported")
    top = seqs[0]
    expect(len(top["entries"]) == 23 and top["length"] == 23,
           f"cumf-als: top sequence has {len(top['entries'])} entries, "
           "expected 23")
    expect(top["sync_issues"] == 23 and top["transfer_issues"] == 5,
           f"cumf-als: top sequence has {top['sync_issues']} sync and "
           f"{top['transfer_issues']} transfer issues, expected 23 and 5")
    files = {e["file"] for e in top["entries"]}
    expect(files == {"als.cpp", "cg.cu"},
           f"cumf-als: top sequence spans {sorted(files)}, "
           "expected als.cpp and cg.cu")
    dups = sum(p["kind"] == UNNECESSARY_TRANSFER for p in report["problems"])
    want = 5 * (iterations - 1)
    expect(dups == want,
           f"cumf-als: {dups} duplicate uploads, expected {want}")
    expect(len(rmse) == iterations and rmse[-1] < rmse[0],
           f"cumf-als: training RMSE did not fall ({rmse[:1]} -> "
           f"{rmse[-1:]})")


def check_cuibm(report: dict, residuals: list[float]) -> None:
    _top_fold(report, "cudaFree")
    expect(bool(residuals) and max(residuals) < 1.0,
           f"cuibm: pressure residual reached {max(residuals or [0])}")


def check_amg(report: dict, residuals: list[float]) -> None:
    _top_fold(report, "cudaMemset")
    kinds = {p["kind"] for p in
             _members(report, report["groups"]["api_folds"][0])}
    expect(kinds == {UNNECESSARY_SYNC},
           f"amg: top fold holds {sorted(kinds)}, expected only "
           "unnecessary syncs")
    expect(len(residuals) > 1 and residuals[0] >= 10 * residuals[-1],
           f"amg: residual fell only {residuals[0]} -> {residuals[-1]}")


def check_rodinia_gaussian(report: dict, residual: float) -> None:
    _top_fold(report, "cudaThreadSynchronize")
    expect(residual < 1e-9, f"rodinia-gaussian: residual {residual}")


def app_outputs(name: str, app) -> dict:
    """The results an app computed in its last run, as plain data."""
    if name == "cumf-als":
        return {"rmse": list(app.rmse_history),
                "iterations": app.iterations}
    if name == "rodinia-gaussian":
        return {"residual": app.residual}
    return {"residuals": list(app.residual_history)}


def check_paper_app(name: str, report: dict, outputs: dict) -> None:
    if name == "cumf-als":
        check_cumf_als(report, outputs["rmse"], outputs["iterations"])
    elif name == "cuibm":
        check_cuibm(report, outputs["residuals"])
    elif name == "amg":
        check_amg(report, outputs["residuals"])
    elif name == "rodinia-gaussian":
        check_rodinia_gaussian(report, outputs["residual"])
    else:
        raise CheckFailed(f"no checks for app {name!r}")


# ----------------------------------------------------------------------
# firehose
# ----------------------------------------------------------------------
def check_firehose(report: dict, events: int, block: int = 64) -> None:
    """N events in B blocks of ``block`` plus a tail of t uploads."""
    blocks, tail = divmod(events, block)
    stages = report["stages"]
    traced = stages["stage2"]["event_count"]
    expect(traced == events,
           f"firehose: {traced} traced events, expected {events}")
    syncs = sum(site["count"] for site in stages["stage1"]["sync_sites"])
    expect(syncs == 2 * blocks,
           f"firehose: {syncs} sync events, expected {2 * blocks}")
    kinds = Counter((p["kind"], p["api_name"]) for p in report["problems"])
    transfers = sum(n for (kind, _), n in kinds.items()
                    if kind == UNNECESSARY_TRANSFER)
    want = (block - 1) * blocks + tail - 1
    expect(transfers == want,
           f"firehose: {transfers} unnecessary transfers, expected {want}")
    syncs = kinds[(UNNECESSARY_SYNC, "cudaDeviceSynchronize")]
    expect(syncs == blocks,
           f"firehose: {syncs} unnecessary cudaDeviceSynchronize, "
           f"expected {blocks}")
    other = len(report["problems"]) - transfers - syncs
    expect(other == 0, f"firehose: {other} other problems reported")


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
def check_fresh(body: bytes, planted: dict, reference: bytes) -> None:
    """A fresh report finds exactly the planted problems and matches the
    serial in-process run byte for byte."""
    import json

    found = problem_sites(json.loads(body))
    missing = {k: n for k, n in planted.items() if found.get(k, 0) != n}
    expect(not missing,
           f"fuzz: planted problems not found as planted: {missing}")
    extra = {k: n for k, n in found.items() if k not in planted}
    expect(not extra, f"fuzz: unplanted problems reported: {extra}")
    expect(body == reference,
           f"fuzz: service report ({len(body)} bytes) differs from the "
           f"serial in-process report ({len(reference)} bytes)")


def check_stored(body: bytes, fresh_body: bytes) -> None:
    expect(body == fresh_body,
           f"stored response ({len(body)} bytes) differs from the fresh "
           f"response ({len(fresh_body)} bytes) for the same submission")
