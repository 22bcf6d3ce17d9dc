"""Oracle for the window due table of the braid and blockooo cores.

Both cores visit an issue window only once its due cycle
(``core._issue_due``) has arrived, instead of re-scanning every window
every cycle.  That is sound only if the table never runs late: whenever a
brute-force scan of a window's examined entries (the first ``depth``
entries issue_stage would look at) finds one eligible — no pending
producer and its certified ``issue_wake`` arrived — the window's due
cycle must already have arrived too.  The oracle checks exactly that at
every cycle, across the braid's issue modes (windowed out-of-order,
strict in-order windows, exception mode, queued braids), blockooo, and
runs where fault injection reorders a window behind the table's back.
It also checks the published issue horizon never lands after the
brute-force one (a late horizon would skip real work).
"""

from __future__ import annotations

import random

import pytest

from repro.faults import FaultSession
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.blockooo import blockooo_config
from repro.sim.braidcore import BraidCore
from repro.sim.config import braid_config
from repro.sim.core import PARKED, SimulationError
from repro.sim.run import build_core

CONFIGS = {
    "braid": braid_config(8),
    "braid-strict": braid_config(8, beu_window_ooo=False),
    "braid-exception": braid_config(8, beu_exception_mode=True),
    "braid-queued": braid_config(8, beu_queue_braids=True),
    "blockooo": blockooo_config(8),
}


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        benchmarks=("gcc", "equake"),
        max_instructions=5_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


def examined(core):
    """(window index, entries issue_stage examines first) per window."""
    if isinstance(core, BraidCore):
        return [
            (beu.beu_id, list(beu.fifo)[:core._examined])
            for beu in core.beus
        ]
    depth = core.config.beu_window
    return [
        (index, list(window)[:depth])
        for index, window in enumerate(core._windows)
    ]


def attach_oracle(core):
    """Check the table after every cycle; returns the checked cycles.

    The end of cycle ``c`` is the state the kernel sees at the start of
    ``c + 1`` (nothing happens in between), so eligibility and due are
    judged against ``c + 1``.
    """
    checked = []

    def check(core, cycle):
        now = cycle + 1
        brute = None
        for index, entries in examined(core):
            for winst in entries:
                if winst.pending:
                    continue
                wake = winst.issue_wake
                if wake <= now:
                    assert core._issue_due[index] <= now, (
                        f"cycle {now}: seq={winst.seq} is eligible in "
                        f"window {index} but the window is due at "
                        f"{core._issue_due[index]}"
                    )
                    brute = now
                elif wake < PARKED and (brute is None or wake < brute):
                    brute = wake
        if brute is not None and core._ready_unissued:
            horizon = core.issue_horizon(now)
            assert horizon is not None and horizon <= brute, (
                f"cycle {now}: horizon {horizon} after the brute-force "
                f"horizon {brute}"
            )
        checked.append(cycle)

    core.invariant_hook = check
    return checked


@pytest.mark.parametrize("name", ("gcc", "equake"))
@pytest.mark.parametrize("label", list(CONFIGS))
def test_due_table_never_late(label, name, ctx):
    config = CONFIGS[label]
    core = build_core(ctx.workload(name, braided=label != "blockooo"), config)
    woken = []
    wake_waiters = core._wake_store_waiters

    def counting(waiters, wake):
        woken.extend(waiters)
        wake_waiters(waiters, wake)

    core._wake_store_waiters = counting
    checked = attach_oracle(core)
    result = core.run()
    assert len(checked) == result.cycles  # the oracle saw every cycle
    assert all(due == PARKED for due in core._issue_due)  # drained
    if name == "equake" and label != "braid-exception":
        # Loads parked on older stores were woken through the table (in
        # exception mode one in-order BEU never issues a load ahead of an
        # older store, so nothing parks).
        assert woken


@pytest.mark.parametrize(
    "label,structure,name,seed",
    (("braid", "beu_fifo", "equake", 33),
     ("braid-strict", "beu_fifo", "equake", 34),
     ("blockooo", "scheduler", "gcc", 32)),
)
def test_due_table_after_fault_injection(label, structure, name, seed, ctx):
    """A window rotated by fault injection is re-scanned (the fault-hook
    call site invalidates the table), so the oracle keeps holding for
    the rest of the run, whatever the fault does to the outcome.  Each
    seed's flip rotates a window; on the strict braid and blockooo ones
    the rotation moves an eligible entry into the examined region, which
    a table left alone would miss."""
    core = build_core(
        ctx.workload(name, braided=label != "blockooo"), CONFIGS[label]
    )
    session = FaultSession(
        structure, 150 + 37 * seed, random.Random(seed)
    ).attach(core)
    checked = attach_oracle(core)
    try:
        core.run(max_cycles=200_000)
    except SimulationError:
        pass  # a hang or wedge is a legitimate fault outcome
    assert "rotated" in session.detail
    assert checked[-1] > session.applied_cycle
