"""One benchmark for the whole tool: paper apps, collection firehose and
mixed service traffic, end to end (``--trace 0``) and per layer
(``--trace 1``).

    python3 perfbench/run.py --workload firehose --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload service-mixed --spread 5

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("paper-apps", "firehose", "service-mixed")


def _need_program() -> None:
    """The program's source must sit beside the benchmark."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program source at {SRC}/repro; run from "
                 "the root of a checkout")
    sys.path.insert(0, SRC)


def setup_probe(workload: str, seed: int) -> None:
    """Child of an in-process run: import the program and build the
    workload's inputs, then print the seconds that took."""
    t0 = time.perf_counter()
    _need_program()
    import repro.core.diogenes  # noqa: F401
    import repro.core.jsonio  # noqa: F401

    import inproc

    inproc.operations(workload, seed)
    print(time.perf_counter() - t0)


def inprocess_setup_s(workload: str, seed: int) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the set-up time,
    each rescaled by the host-speed marks around it."""
    from measure import SETUP_REPEATS, HostClock

    clock = HostClock()
    clock.mark()
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        clock.mark()
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(clock.scaled(times))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> dict:
    _need_program()
    clients = os.cpu_count() or 1
    if workload == "service-mixed":
        import mixed

        run = mixed.traced if trace else mixed.timed
        return run(ROOT, seed, seconds, workdir, clients)
    import inproc

    if trace:
        return inproc.traced(workload, seed, seconds,
                             os.path.join(workdir, "service"), clients)
    setup_s = inprocess_setup_s(workload, seed)
    result = inproc.timed(workload, seed, seconds)
    result["metrics"]["setup_s"] = setup_s
    return result


def emit(result: dict, trace: bool) -> None:
    """Print the human-readable lines, then the one-line JSON result
    holding exactly the metrics ``BENCHMARK.json`` lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        wanted = json.load(fp)["per_layer" if trace else "end_to_end"]
    tally = result["tally"]
    for name, value in sorted(result.get("info", {}).items()):
        print(f"info {name} = {value:.6g}")
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        sys.exit(f"perfbench: the run produced no value for {missing}")
    metrics = {}
    for m in wanted:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": not tally.wrong,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))


# ----------------------------------------------------------------------
# Spread mode
# ----------------------------------------------------------------------
def spread(workload: str, runs: int, first_seed: int, seconds: int,
           trace: int) -> None:
    """Run ``workload`` ``runs`` times, one process per run, and print
    each metric's median, quartiles, and spread against its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for i in range(runs):
        seed = first_seed + i
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"run with seed {seed} exited {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in out.stdout.splitlines():
            if line.startswith("info "):
                name, _, value = line[5:].partition(" = ")
                values.setdefault(f"({name})", []).append(float(value))
    print(f"\n{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6} {'worst/bound':>11}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        iqr = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        worst = max(abs(v - med) for v in vals) / abs(med) if med else 0.0
        rel = f"{worst / bound:11.2f}" if bound else f"{'-':>11}"
        print(f"{name:<28} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f} "
              f"{bound if bound else '-':>6} {rel}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="K",
                        help="run the workload K times (seeds --seed.."
                             "--seed+K-1) and summarise each metric")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.spread:
        spread(args.workload, args.spread, args.seed, args.seconds,
               args.trace)
        return 0
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    emit(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
