"""Host-independent work counts of the event kernel, taken from outside.

:class:`StageVisits` wraps the five stage methods of one core instance and
records which stages ran in which cycle.  The fast loop binds its stage
methods from the instance at entry, so the wrappers see every call while
the loop itself carries no counting code.  The counts are deterministic
(the same program on the same config visits the same cycles on any host),
which makes them a regression guard that wall-clock noise cannot hide:
a kernel change that reintroduces per-cycle ticking shows up as more
visited cycles.

Usage::

    visits = StageVisits(core)
    core.run()
    visits.visited            # cycles the loop entered at least one stage
    visits.stalled_only()     # cycles spent only re-bumping a dispatch stall
"""

from __future__ import annotations

from typing import Dict, List, Set

#: the stage methods of :class:`~repro.sim.core.TimingCore`, in cycle order
STAGES = (
    "complete_stage", "retire_stage", "issue_stage", "dispatch_stage",
    "fetch_stage",
)

#: stall counters a structurally blocked dispatch bumps
STRUCTURAL_STALLS = (
    "in_flight_cap", "regfile_entries", "checkpoints", "structure_full",
)


class StageVisits:
    """Records the stages each cycle of a run entered (attach before run)."""

    def __init__(self, core) -> None:
        self.core = core
        #: cycle -> stage method names called in it, in call order
        self.cycles: Dict[int, List[str]] = {}
        #: cycles whose dispatch bumped a structural stall counter and
        #: dispatched nothing
        self.blocked_dispatch: Set[int] = set()
        for name in STAGES:
            setattr(core, name, self._wrap(name, getattr(core, name)))

    def _wrap(self, name: str, stage):
        cycles = self.cycles
        if name != "dispatch_stage":
            def visit(cycle: int) -> None:
                cycles.setdefault(cycle, []).append(name)
                stage(cycle)
            return visit

        core = self.core

        def dispatch(cycle: int) -> None:
            cycles.setdefault(cycle, []).append(name)
            before = self._structural()
            in_flight = len(core._rob)
            stage(cycle)
            if len(core._rob) == in_flight and self._structural() != before:
                self.blocked_dispatch.add(cycle)
        return dispatch

    def _structural(self):
        stalls = self.core.stalls
        return tuple(getattr(stalls, field) for field in STRUCTURAL_STALLS)

    @property
    def visited(self) -> int:
        """Cycles in which the run loop entered at least one stage."""
        return len(self.cycles)

    def stalled_only(self) -> List[int]:
        """Visited cycles whose only stage action was a structurally
        blocked dispatch (the event kernel skips these)."""
        return sorted(
            cycle for cycle in self.blocked_dispatch
            if self.cycles[cycle] == ["dispatch_stage"]
        )
