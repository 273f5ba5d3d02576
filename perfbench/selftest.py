"""Self-test of the output checks: each must reject a corrupted output.

    python3 perfbench/selftest.py

Builds one genuine output per check (a fuzz report, a firehose report,
a stored body, a cumf-als report), confirms the check accepts it, then
corrupts it the way a faulty program might and confirms the check
rejects it.  Exits 0 only if every check does both.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _report(app) -> dict:
    from repro.core.diogenes import Diogenes
    from repro.core.jsonio import report_to_json

    return report_to_json(Diogenes(app).run())


def _encode(report: dict) -> bytes:
    return json.dumps(report, indent=2).encode()


def _fuzz_case():
    """A fuzz report with a planted problem dropped."""
    import checks
    from repro.fuzz.generator import FuzzedApp

    app = FuzzedApp(seed=7, segments=8)
    report = _report(app)
    planted = app.plan.planted_lines()
    body = _encode(report)
    checks.check_fresh(body, planted, body)
    bad = copy.deepcopy(report)
    first_site = next(iter(planted))
    victim = next(p for p in bad["problems"]
                  if (p["stack"][-1]["file"], p["stack"][-1]["line"],
                      p["kind"]) == first_site)
    bad["problems"].remove(victim)
    bad_body = _encode(bad)
    # The reference is the corrupted body itself, so only the planted
    # manifest can catch the loss.
    return lambda: checks.check_fresh(bad_body, planted, bad_body)


def _firehose_case():
    """A firehose report with one duplicate transfer missing."""
    import checks
    import inputs

    n = 2 * inputs.FIREHOSE_BLOCK + 5
    report = _report(inputs.CollectionFirehose(n))
    checks.check_firehose(report, n)
    bad = copy.deepcopy(report)
    victim = next(p for p in bad["problems"]
                  if p["kind"] == checks.UNNECESSARY_TRANSFER)
    bad["problems"].remove(victim)
    return lambda: checks.check_firehose(bad, n)


def _stored_case():
    """A stored body with one byte changed."""
    import checks

    body = _encode({"problems": [], "workload": "fuzzed-7"})
    checks.check_stored(body, body)
    i = len(body) // 2
    bad = body[:i] + bytes([body[i] ^ 0x01]) + body[i + 1:]
    return lambda: checks.check_stored(bad, body)


def _cumf_case():
    """A cumf-als report whose top sequence is cut to 22 entries."""
    import checks
    import inputs

    name, app = inputs.paper_apps()[0]
    assert name == "cumf-als"
    report = _report(app)
    outputs = checks.app_outputs(name, app)
    checks.check_paper_app(name, report, outputs)
    bad = copy.deepcopy(report)
    top = bad["sequences"][0]
    top["entries"] = top["entries"][:22]
    top["length"] = 22
    return lambda: checks.check_paper_app(name, bad, outputs)


CASES = {
    "fuzz report missing a planted problem": _fuzz_case,
    "firehose duplicate count off by one": _firehose_case,
    "stored body with one byte changed": _stored_case,
    "cumf-als sequence cut to 22 entries": _cumf_case,
}


def main() -> int:
    sys.path.insert(0, SRC)
    import checks

    failures = 0
    for name, build in CASES.items():
        corrupted = build()   # raises if the genuine output is rejected
        try:
            corrupted()
        except checks.CheckFailed as exc:
            print(f"ok    {name}: rejected ({exc})")
        else:
            failures += 1
            print(f"FAIL  {name}: the corrupted output was accepted")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
