"""Measurement helpers shared by the workloads: medians, memory, the
host-speed reference, and the cProfile attribution of a run to the
program's packages."""

from __future__ import annotations

import math
import resource
import statistics
import time

#: Set-ups per end-to-end run (interpreters started, or daemons brought
#: up); ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Packages the whole-program profile attributes time and calls to.
PROFILE_PACKAGES = ("sim", "driver", "runtime", "hostmem", "instr", "core",
                    "exec", "obs", "stream", "json", "numpy")


#: Wall seconds the reference kernel takes on a calm host (2-vCPU VM,
#: CPython 3); end-to-end timings are rescaled to that host speed.
REFERENCE_S = 0.05

#: Iterations of the reference kernel.
REFERENCE_ITERATIONS = 40_000


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_kernel() -> float:
    """Wall seconds of a fixed pure-Python kernel of the interpreter
    work the program does most: small objects, attribute and dict
    access, list appends and a keyed sort.  It does not touch the
    program, so a change to the program cannot move it; only the
    host's speed does."""
    t0 = time.perf_counter()
    totals: dict[int, int] = {}
    points = []
    for i in range(REFERENCE_ITERATIONS):
        point = _Point(i * 7919 & 1023, i)
        totals[point.key] = totals.get(point.key, 0) + point.value
        points.append(point)
    points.sort(key=lambda p: (p.key, -p.value))
    return time.perf_counter() - t0


class HostClock:
    """Rescales wall times to the host speed of :data:`REFERENCE_S`.

    The shared host's speed drifts by up to 2x between minutes, and a
    pure-Python program slows with it.  So every timed interval sits
    between two runs of :func:`reference_kernel`: call :meth:`mark`
    before the first interval and after each one.  Interval ``i`` is
    rescaled by ``REFERENCE_S`` over the mean of the marks around it.
    """

    def __init__(self) -> None:
        self.marks: list[float] = []

    def mark(self) -> None:
        self.marks.append(reference_kernel())

    def factor(self, i: int) -> float:
        """Rescaling factor of interval ``i`` (needs marks i and i+1)."""
        return 2 * REFERENCE_S / (self.marks[i] + self.marks[i + 1])

    def scaled(self, walls: list[float]) -> list[float]:
        return [w * self.factor(i) for i, w in enumerate(walls)]

    def reference_p50_s(self) -> float:
        return median(self.marks)


def median(values) -> float:
    return statistics.median(values)


def quantile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile: the smallest value with at least a
    ``q`` share of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of another process, from its ``VmHWM``."""
    with open(f"/proc/{pid}/status") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _package(filename: str, funcname: str) -> str | None:
    """Which of :data:`PROFILE_PACKAGES` a profiled function belongs to."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        pkg = path.split("/repro/", 1)[1].split("/", 1)[0]
        return pkg if pkg in PROFILE_PACKAGES else None
    if "/numpy/" in path:
        return "numpy"
    if "/json/" in path:
        return "json"
    if filename == "~":  # a C function: name the module it lives in
        if "numpy" in funcname:
            return "numpy"
        if "_json" in funcname:
            return "json"
    return None


def attribute_profile(profiler, events: int) -> dict[str, float]:
    """``calls_per_event.<pkg>`` and ``self_s.<pkg>`` from a cProfile run.

    Self time is each function's own time (``tottime``); calls count
    every call, recursive ones included, divided by ``events`` traced
    events so a deterministic program repeats it exactly.
    """
    import pstats

    calls = dict.fromkeys(PROFILE_PACKAGES, 0)
    self_s = dict.fromkeys(PROFILE_PACKAGES, 0.0)
    for (filename, _, funcname), (_, ncalls, tottime, _, _) in \
            pstats.Stats(profiler).stats.items():
        pkg = _package(filename, funcname)
        if pkg is not None:
            calls[pkg] += ncalls
            self_s[pkg] += tottime
    out: dict[str, float] = {}
    for pkg in PROFILE_PACKAGES:
        out[f"calls_per_event.{pkg}"] = calls[pkg] / max(events, 1)
        out[f"self_s.{pkg}"] = self_s[pkg]
    return out
