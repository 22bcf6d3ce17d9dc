"""How fast the host runs Python right now, and the timed figures scaled
to a reference speed.

On a shared virtual machine the CPU time of the same work drifts by up to
2x over minutes, and by 20% from one second to the next (other tenants'
load on the physical cores and caches).  The runner therefore reports CPU
seconds *at reference speed*: the CPU time measured, times the reference
time of a fixed calibration loop over its time now.  The loop is a small
pure-Python issue-window scheduler written here, so that it uses the
interpreter the way the simulator does (objects with slots, list scans,
dict counters) while sharing no code with ``src/``: a change to the
simulator moves the figures, not the calibration.

A timed pass is calibrated finely: a :class:`Meter` runs a short chunk of
the loop before every call into the simulator, in whichever process makes
the call, so the calibration samples the host at the same moments as the
work.  Set-ups are calibrated coarsely, by :func:`calibrate` just before
and after.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import List, Optional, Tuple

#: CPU seconds ``calibrate()`` took on the reference host: a 2-CPU Xeon
#: virtual machine at 2.1 GHz, Python 3.11.  On that host at its usual
#: speed, the scaled figures are plain CPU seconds.
REFERENCE_S = 0.33

#: scheduler runs per calibration
REPEATS = 60
#: scheduler runs per chunk of a Meter
CHUNK_REPEATS = 2


class _Inst:
    __slots__ = ("op", "dst", "srcs", "latency")

    def __init__(self, op: int, dst: int, srcs, latency: int) -> None:
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.latency = latency


def _program(length: int, seed: int = 12345) -> List[_Inst]:
    """A fixed pseudo-random instruction stream (a linear congruential
    generator, so it is the same on every host and Python version)."""
    state = seed
    program = []
    for _ in range(length):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        program.append(_Inst(
            state % 7,
            (state >> 4) % 32,
            ((state >> 9) % 32, (state >> 14) % 32),
            1 + (state >> 19) % 4,
        ))
    return program


PROGRAM = _program(4000)


def schedule(program, width: int = 4, window: int = 32):
    """Issue ``program`` through a ``window``-entry window, ``width`` a
    cycle, each instruction once its sources are ready; returns
    ``(cycles, issued)``."""
    ready = [0] * 32
    issued_by_op = {}
    pending: List[_Inst] = []
    stream = iter(program)
    exhausted = False
    cycle = issued = 0
    while not exhausted or pending:
        while not exhausted and len(pending) < window:
            inst = next(stream, None)
            if inst is None:
                exhausted = True
            else:
                pending.append(inst)
        slots = width
        waiting = []
        for inst in pending:
            if slots and all(ready[src] <= cycle for src in inst.srcs):
                ready[inst.dst] = cycle + inst.latency
                issued_by_op[inst.op] = issued_by_op.get(inst.op, 0) + 1
                slots -= 1
                issued += 1
            else:
                waiting.append(inst)
        pending = waiting
        cycle += 1
    return cycle, issued


def calibrate() -> float:
    """CPU seconds of a fixed amount of scheduling work."""
    began = time.process_time()
    for _ in range(REPEATS):
        schedule(PROGRAM)
    return time.process_time() - began


def scale(before: float, after: float) -> float:
    """Factor that turns CPU seconds measured between two calibrations
    into CPU seconds at reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)


class Meter:
    """Runs a calibration chunk before each call into the simulator while
    a pass is metered, in the process that makes the call: forked pool
    and service workers inherit it.  Each process appends its chunks' CPU
    seconds to its own file, so the pass can subtract them from its CPU
    time and scale the rest."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.out_dir: Optional[Path] = None
        #: CPU seconds of this process's chunks so far
        self.seconds = 0.0
        self._passes = 0

    def install(self) -> None:
        """Wrap ``simulate`` and ``prepare_workload`` (phase one)."""
        import repro.harness.context  # noqa: F401  (binds both)
        import repro.service.jobs  # noqa: F401
        import repro.service.supervisor  # noqa: F401
        import repro.sim.run as run
        import repro.sim.workload as workload
        from layers import wrap_function

        def metered(original):
            def wrapper(*args, **kwargs):
                self.chunk()
                return original(*args, **kwargs)
            return wrapper

        wrap_function(run, "simulate", metered)
        wrap_function(workload, "prepare_workload", metered)

    def start(self) -> None:
        self._passes += 1
        self.out_dir = self.root / f"pass-{self._passes}"
        self.out_dir.mkdir(parents=True)

    def chunk(self) -> None:
        if self.out_dir is None:
            return
        began = time.process_time()
        for _ in range(CHUNK_REPEATS):
            schedule(PROGRAM)
        seconds = time.process_time() - began
        self.seconds += seconds
        path = self.out_dir / f"chunks-{os.getpid()}.txt"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(f"{seconds!r}\n")

    def stop(self) -> Tuple[float, float]:
        """End the pass: ``(CPU seconds of its chunks in every process,
        factor to reference speed)``."""
        if not any(self.out_dir.glob("chunks-*.txt")):
            self.chunk()  # a pass that never simulated: sample once
        chunks = [float(line)
                  for path in sorted(self.out_dir.glob("chunks-*.txt"))
                  for line in path.read_text().split()]
        self.out_dir = None
        seconds = sum(chunks)
        per_run = seconds / (len(chunks) * CHUNK_REPEATS)
        return seconds, REFERENCE_S / REPEATS / per_run
