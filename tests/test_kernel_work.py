"""Work-count guard for the event kernel, plus the dispatch-stall certificate.

The event kernel's speed comes from the cycles it never visits.  Wall
clock cannot pin that (host noise swings timings by tens of percent), but
the number of cycles the run loop enters is deterministic: the same
program on the same config visits the same cycles on every host.  These
tests count visits from outside the kernel
(:class:`repro.obs.workcount.StageVisits` wraps the stage methods; the
fast loop carries no counter) and pin them exactly, so a change that
brings back per-cycle ticking — e.g. a dispatch blocked on a full ROB or
issue structure re-visited every cycle just to bump its stall counter —
fails here even when it is bit-identical in every simulated counter.

The second half pins the certificate's lifetime: it is cleared by every
dispatch_stage call, on ``_run_until`` entry and by ``fast_forward``, so
no resume seam trusts a stale one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs.workcount import StageVisits
from repro.sim.config import ooo_config
from repro.sim.registry import core_registry
from repro.sim.run import build_core

MAX_CYCLES = 1_000_000

#: cycles the run loop enters per core on gcc (8000 instructions, 8-wide)
VISITED = {
    "ooo": 1828,
    "inorder": 4168,
    "depsteer": 2154,
    "braid": 2234,
    "blockooo": 1989,
}


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        benchmarks=("gcc",),
        max_instructions=8_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


def fingerprint(result):
    return (
        result.cycles,
        result.issued,
        dataclasses.asdict(result.stalls),
        sorted(result.extra.items()),
    )


class TestVisitedCycles:
    def test_every_core_is_pinned(self):
        assert set(VISITED) == set(core_registry())

    @pytest.mark.parametrize("key", list(VISITED))
    def test_visited_cycles_pinned(self, key, ctx):
        descriptor = core_registry()[key]
        workload = ctx.workload("gcc", braided=descriptor.braided)
        config = descriptor.config_factory(8)
        core = build_core(workload, config)
        visits = StageVisits(core)
        counted = core.run()
        assert visits.visited == VISITED[key], (
            f"{key}: the run loop visited {visits.visited} cycles, "
            f"pinned {VISITED[key]} (of {counted.cycles} simulated)"
        )
        # No visited cycle exists only to re-bump a dispatch stall.
        assert visits.stalled_only() == []
        # Counting from outside changes nothing it counts.
        assert fingerprint(build_core(workload, config).run()) == (
            fingerprint(counted)
        )

    def test_ticked_loop_revisits_stalled_dispatch(self, ctx):
        """The counter is not vacuous: the ticked reference loop enters a
        stage in nearly every simulated cycle, many of them only to
        re-bump a dispatch stall."""
        core = build_core(ctx.workload("gcc"), ooo_config(8))
        core.event_kernel = False
        visits = StageVisits(core)
        result = core.run()
        assert visits.visited > 3 * VISITED["ooo"]
        assert visits.stalled_only()
        assert visits.visited <= result.cycles


class TestDispatchStallCertificate:
    def test_cleared_by_dispatch_stage(self, ctx):
        core = build_core(ctx.workload("gcc"), ooo_config(8))
        core._dispatch_stall = "in_flight_cap"
        core.dispatch_stage(0)  # nothing fetched: no stall to certify
        assert core._dispatch_stall is None

    def test_skip_idle_after_fast_forward_ignores_stale_certificate(
        self, ctx
    ):
        """A certificate left over from before a sampling gap must not
        hide the next window's fetch-buffer head from ``_skip_idle``."""
        core = build_core(ctx.workload("gcc"), ooo_config(8))
        core._fetch_limit = 200
        cycle = core._run_until(200, 0, MAX_CYCLES)
        cycle = core.drain_in_flight(cycle)
        # A stale certificate, as if dispatch had stalled before the gap.
        core._dispatch_stall = "in_flight_cap"
        core._fetch_limit = len(core.trace)
        core.fast_forward(1_000, cycle)
        assert core._dispatch_stall is None
        core.fetch_stage(cycle)
        core._fetch_limit = core._next_fetch  # only the head publishes now
        ready = core._fetch_buffer[0].dispatch_ready
        assert ready > cycle
        assert core._skip_idle(cycle) == ready
        # The same probe with the stale certificate put back would tick
        # in place: nothing else is armed.
        core._dispatch_stall = "in_flight_cap"
        assert core._skip_idle(cycle) == cycle

    @pytest.mark.parametrize("key", ("ooo", "braid"))
    def test_run_until_entry_clears_stale_certificate(self, key, ctx):
        """A resumed ``_run_until`` re-derives the certificate instead of
        trusting one planted between calls: resumed after every single
        retirement with a wrong certificate planted each time, the run
        still equals the uninterrupted one."""
        descriptor = core_registry()[key]
        workload = ctx.workload("gcc", braided=descriptor.braided)
        config = descriptor.config_factory(8)
        whole = build_core(workload, config).run()

        core = build_core(workload, config)
        total = len(core.trace)
        cycle = 0
        while core._retired_count < total:
            core._dispatch_stall = "checkpoints"  # stale and mostly wrong
            cycle = core._run_until(core._retired_count + 1, cycle, MAX_CYCLES)
        assert cycle == whole.cycles
        assert dataclasses.asdict(core.stalls) == dataclasses.asdict(
            whole.stalls
        )
        if key == "braid":
            assert core.distribute_stalls == whole.extra["distribute_stalls"]
