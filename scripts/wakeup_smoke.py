#!/usr/bin/env python
"""CI smoke test for the scheduler-aware event kernel.

Runs every benchmark of the quick suite on every registered timing core
twice —
once with the event-driven kernel (the default), once with the strictly
ticked reference loop — and diffs the two runs cycle-exact: cycles,
instructions, issue count, every stall counter, and every ``extra``
activity statistic must be bit-identical.  This is the end-to-end guard
for the O(woken) wakeup index and the ``issue_horizon`` publishers: any
skip past a cycle in which the scheduler could have acted shows up here
as a counter diff.

Also reports the per-core wall-clock ratio (event kernel vs ticked) so
CI logs show how much the skip loop is actually buying on each paradigm,
next to the host-independent work count behind it: the cycles the event
kernel's loop visits per 1k retired instructions (counted on a separate,
untimed run by wrapping the stage methods; see repro.obs.workcount).

Exits non-zero with a per-core, per-counter diagnostic on any divergence.

Usage::

    PYTHONPATH=src python scripts/wakeup_smoke.py [max_instructions]
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs.workcount import StageVisits
from repro.sim.registry import core_registry
from repro.sim.run import build_core

QUICK = ("gcc", "mcf", "swim", "equake")

# every registered paradigm, so a new core gets this guard for free
CORES = {
    key: (descriptor.config_factory(8), descriptor.braided)
    for key, descriptor in core_registry().items()
}


def fail(message: str) -> None:
    print(f"wakeup_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def fingerprint(result) -> dict:
    """Every architectural counter a run produces, flattened for diffing."""
    flat = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "issued": result.issued,
    }
    for field, value in dataclasses.asdict(result.stalls).items():
        flat[f"stalls.{field}"] = value
    for key, value in sorted(result.extra.items()):
        flat[f"extra.{key}"] = value
    return flat


def main() -> None:
    max_instructions = (
        int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
    )
    ctx = ExperimentContext(
        benchmarks=QUICK,
        max_instructions=max_instructions,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )
    divergences = 0
    for kind, (config, braided) in CORES.items():
        event_seconds = 0.0
        ticked_seconds = 0.0
        visited = 0
        retired = 0
        for name in QUICK:
            workload = ctx.workload(name, braided=braided)

            core = build_core(workload, config)
            assert core.event_kernel, "event kernel should be the default"
            started = time.perf_counter()
            fast = fingerprint(core.run())
            event_seconds += time.perf_counter() - started

            core = build_core(workload, config)
            core.event_kernel = False
            started = time.perf_counter()
            slow = fingerprint(core.run())
            ticked_seconds += time.perf_counter() - started

            core = build_core(workload, config)
            visits = StageVisits(core)
            retired += core.run().instructions
            visited += visits.visited

            if fast != slow:
                divergences += 1
                diffs = [
                    f"    {counter}: event={fast.get(counter)!r} "
                    f"ticked={slow.get(counter)!r}"
                    for counter in sorted(fast.keys() | slow.keys())
                    if fast.get(counter) != slow.get(counter)
                ]
                print(
                    f"wakeup_smoke: {name}/{kind} diverged on "
                    f"{len(diffs)} counter(s):",
                    file=sys.stderr,
                )
                for line in diffs:
                    print(line, file=sys.stderr)
        ratio = ticked_seconds / event_seconds if event_seconds else 0.0
        print(
            f"wakeup_smoke: {kind}: bit-identical across {len(QUICK)} "
            f"benchmarks; event kernel {ratio:.2f}x vs ticked "
            f"({event_seconds:.2f}s vs {ticked_seconds:.2f}s), "
            f"{1000 * visited / retired:.0f} visited cycles per 1k "
            f"retired instructions"
        )
    if divergences:
        fail(f"{divergences} run(s) diverged between kernels")
    print("wakeup smoke OK")


if __name__ == "__main__":
    main()
