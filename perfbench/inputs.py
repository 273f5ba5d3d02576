"""The benchmark's inputs: what each workload runs, derived from --seed.

Everything here is plain data or a workload class; nothing runs at
import.  ``repro`` must be importable (``run.py`` puts ``src`` on the
path).  The same seed always yields the same inputs.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Workload

#: The four paper applications at bench scale: registry name and the
#: constructor arguments of ``benchmarks/common.bench_scale_apps``.
#: Kept here so the benchmark's inputs cannot change under it.
PAPER_APPS = (
    ("cumf-als", {"iterations": 20}),
    ("cuibm", {"steps": 10, "cg_iters": 20}),
    ("amg", {"cycles": 20}),
    ("rodinia-gaussian", {"n": 64}),
)

#: Firehose shape: whole 64-event blocks over 64 call sites, plus a
#: seed-chosen tail of 1..FIREHOSE_MAX_TAIL uploads.  The tail stays
#: short so run length hardly depends on the seed.
FIREHOSE_BLOCK = 64
FIREHOSE_BLOCKS = 32
FIREHOSE_SITES = 64
FIREHOSE_MAX_TAIL = 15

#: Segments in every fuzzed service submission.
FUZZ_SEGMENTS = 8

#: Spacing of fuzz seeds between benchmark seeds: submission ``i`` of
#: a run with ``--seed s`` fuzzes seed ``s * FUZZ_SEED_STRIDE + i``.
FUZZ_SEED_STRIDE = 1_000_000

#: Registry name the traced run uses to submit the firehose to an
#: in-process daemon (the L5 rung of the layer ladder).
FIREHOSE_WORKLOAD = "perfbench-firehose"


def firehose_events(seed: int) -> int:
    """Traced events in one firehose run for ``seed``."""
    return FIREHOSE_BLOCK * FIREHOSE_BLOCKS + 1 + seed % FIREHOSE_MAX_TAIL


def fuzz_seed(seed: int, index: int) -> int:
    """Fuzz-generator seed of fresh submission ``index``."""
    return seed * FUZZ_SEED_STRIDE + index


def paper_apps():
    """Fresh instances of the four paper apps, in pass order."""
    import repro.apps.amg  # noqa: F401  (apps register at import)
    import repro.apps.cuibm  # noqa: F401
    import repro.apps.cumf_als  # noqa: F401
    import repro.apps.rodinia_gaussian  # noqa: F401
    from repro.apps.base import registry

    return [(name, registry.create(name, **kwargs))
            for name, kwargs in PAPER_APPS]


class CollectionFirehose(Workload):
    """A traced-call firehose: ``events`` root events over 64 sites.

    The shape of ``benchmarks/bench_hotpath._CollectionApp``: each
    64-event block is 62 pinned asynchronous uploads issued straight at
    the driver API under one call site, one pageable readback the CPU
    then reads (so stage 3 marks that sync required), and one
    ``cudaDeviceSynchronize`` drain.  Every payload carries the same
    64 bytes, so every transfer after the first is a duplicate.
    Payloads are tiny: the per-event cost of the tool dominates.
    """

    name = "bench-collection"

    def __init__(self, events: int, sites: int = FIREHOSE_SITES) -> None:
        self.events = events
        self.sites = sites

    def run(self, ctx) -> None:
        rt = ctx.cudart
        elements = 8
        with ctx.frame("main", "collect.cpp", 10):
            pinned = rt.cudaMallocHost(elements, label="staging")
            pinned.write(np.arange(elements, dtype=np.float64))
            dev = rt.cudaMalloc(elements * 8, label="dev")
            out = ctx.host_array(elements, label="out")
        frame = ctx.frame
        upload = ctx.driver.cuMemcpyHtoDAsync
        sites = self.sites
        blocks, tail = divmod(self.events, FIREHOSE_BLOCK)
        for block in range(blocks):
            with frame("upload", "collect.cpp", 100 + block % sites):
                for _ in range(FIREHOSE_BLOCK - 2):
                    upload(dev, pinned)
            with frame("readback", "collect.cpp", 2000 + block % sites):
                rt.cudaMemcpy(out, dev)
            with frame("consume", "collect.cpp", 3000):
                out.read()
            with frame("drain", "collect.cpp", 1000 + block % sites):
                rt.cudaDeviceSynchronize()
        if tail:
            with frame("upload", "collect.cpp", 100 + blocks % sites):
                for _ in range(tail):
                    upload(dev, pinned)


def register_firehose() -> None:
    """Make the firehose submittable by name to an in-process daemon."""
    from repro.apps.base import registry

    if FIREHOSE_WORKLOAD not in registry.names():
        registry.register(FIREHOSE_WORKLOAD, CollectionFirehose)
