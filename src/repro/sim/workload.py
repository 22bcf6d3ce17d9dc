"""Prepared workloads: a dynamic trace plus front-end/memory oracles.

The timing cores are execution-driven in two phases, mirroring the paper's
simulator split.  Phase one (here) runs the functional executor once and
records, per dynamic instruction:

* the correct-path dynamic stream (branch outcomes, memory addresses);
* branch-predictor outcomes, trained in fetch (program) order — the
  misprediction *set* is therefore identical across machine configurations,
  which is what lets one prepared workload drive every sweep point;
* cache latencies for instruction fetches and data accesses, simulated in
  trace order.

Phase two (the timing cores) replays the stream against the machine's
structural constraints: widths, windows, ports, bypass bandwidth, functional
units, and misprediction/refill penalties.  Wrong-path *timing* is charged
through those penalties (the paper's minimum-misprediction-penalty
formulation); wrong-path cache pollution is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.program import Program
from ..isa.registers import Space
from ..uarch.branchpred import make_predictor
from ..uarch.cache import MemoryHierarchy, MemoryHierarchyConfig
from .functional import DynInst, FunctionalExecutor


class DecodedInst:
    """Decode-stage facts of one static instruction, computed once.

    The timing cores replay the same trace against many machine
    configurations; everything here depends only on the instruction word
    (opcode, operands, braid annotation bits), so it is extracted once per
    static instruction instead of being re-derived from attribute chains on
    every dynamic dispatch of every sweep point.
    """

    __slots__ = (
        "is_load", "is_store", "is_branch", "latency", "start",
        "dest_external", "dest_internal", "written_key",
        "src_keys", "ext_src_ops", "ext_dest_ops",
    )

    def __init__(self, inst: Instruction) -> None:
        annot = inst.annot
        self.is_load = inst.is_load
        self.is_store = inst.is_store
        self.is_branch = inst.is_branch
        self.latency = inst.opcode.latency
        self.start = annot.start
        written = inst.writes()
        self.dest_external = written is not None and annot.dest_external
        self.dest_internal = written is not None and annot.dest_internal
        self.written_key = (
            (written.rclass.value, written.index) if written is not None else None
        )
        #: ((register key, reads internal file), ...) for each non-zero source
        src_keys = []
        ext_src_ops = 0
        for position, reg in enumerate(inst.srcs):
            if reg.is_zero:
                continue
            internal = annot.src_space(position) is Space.INTERNAL
            src_keys.append(((reg.rclass.value, reg.index), internal))
            if not internal:
                ext_src_ops += 1
        self.src_keys: Tuple = tuple(src_keys)
        # Rename bandwidth accounting: only external operands are renamed.
        self.ext_src_ops = ext_src_ops
        self.ext_dest_ops = 1 if self.dest_external else 0

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


def decode_trace(trace: List[DynInst]) -> List[DecodedInst]:
    """Per-trace-entry decode facts, shared across repeats of a static inst."""
    memo: Dict[int, DecodedInst] = {}
    decoded: List[DecodedInst] = []
    for dyn in trace:
        inst = dyn.inst
        facts = memo.get(id(inst))
        if facts is None:
            facts = memo[id(inst)] = DecodedInst(inst)
        decoded.append(facts)
    return decoded


class ReplayFacts:
    """Config-invariant phase-two replay arrays, indexed by trace position.

    Everything here is a pure function of the trace and its decode facts,
    so it is computed once per workload and shared read-only by every
    timing core replaying it — including every config of a batched sweep
    (:mod:`repro.sim.batch`).  The arrays replace per-dispatch scoreboard
    walks and per-instruction dict probes in the timing cores' hot loop:

    * ``deps[i]`` — static dependence row: ``((producer_index, internal),
      ...)`` for every register source of instruction ``i`` that has an
      in-trace producer, under exactly the semantics the dynamic
      scoreboards implemented (last writer in trace order, separate
      external/internal namespaces, internal bindings dying at braid
      start bits).  Dispatch resolves each row against a small live
      table of in-flight producers instead of re-deriving it per config.
    * ``arch_reads[i]`` — external sources with *no* in-trace producer
      (architectural-file reads).  Sources whose producer retired before
      a sampling gap are added at resolve time.
    * ``insertable[i]`` — 1 if some later instruction's row references
      ``i``; only those producers enter the live table.
    * ``evictions[i]`` — producer indices whose last scoreboard binding
      instruction ``i`` overwrites (or clears, for a braid start); the
      live table drops them when ``i`` dispatches, keeping it bounded by
      the register namespace instead of growing with the trace.
    * ``ifetch_extra[i]`` / ``load_latency[i]`` / ``mem_word[i]`` — the
      phase-one dict oracles flattened to position-indexed lists
      (``None`` where absent) for O(1) un-hashed access.
    * ``store_conflict[i]`` — for a load, the trace position of the
      *youngest older* store to the same memory word (``None`` when no
      such store exists).  Because dispatch and retirement are both
      in order, this single static fact answers run-time memory
      disambiguation exactly: if that store is still in the LSQ it is
      precisely the entry a full age-ordered scan would find, and if it
      has retired then every older matching store has retired too.  The
      issue stage therefore replaces its per-attempt O(stores) LSQ scan
      with one dict probe.
    """

    __slots__ = (
        "deps", "arch_reads", "insertable", "evictions",
        "ifetch_extra", "load_latency", "mem_word", "store_conflict",
        "analytic_retire",
    )

    def __init__(self, deps, arch_reads, insertable, evictions,
                 ifetch_extra, load_latency, mem_word, store_conflict) -> None:
        self.deps = deps
        self.arch_reads = arch_reads
        self.insertable = insertable
        self.evictions = evictions
        self.ifetch_extra = ifetch_extra
        self.load_latency = load_latency
        self.mem_word = mem_word
        self.store_conflict = store_conflict
        #: lazily computed analytic retirement-time curve (see
        #: :func:`repro.sim.sampling._analytic_retire`); config-invariant
        #: like everything else here, so one walk serves every sweep point
        self.analytic_retire = None


def build_replay(trace: List[DynInst], decoded: List[DecodedInst],
                 load_latency: Dict[int, int],
                 ifetch_extra: Dict[int, int]) -> ReplayFacts:
    """Walk the trace once, building every :class:`ReplayFacts` array.

    The builder mirrors the scoreboard discipline of the dispatch stage:
    sources read the tables *before* the instruction's own start-clear and
    destination writes take effect, and consumers always resolve before
    the overwriting writer dispatches (dispatch is in trace order), so
    evict-at-overwrite is observationally identical to the dynamic maps.
    """
    n = len(trace)
    ifetch = [0] * n
    for seq, extra in ifetch_extra.items():
        ifetch[seq] = extra
    loads: List[Optional[int]] = [None] * n
    for seq, value in load_latency.items():
        loads[seq] = value

    mem: List[Optional[int]] = [None] * n
    store_conflict: List[Optional[int]] = [None] * n
    #: memory word -> trace position of its youngest store so far
    last_store: Dict[int, int] = {}
    deps: List[Tuple] = [()] * n
    arch = [0] * n
    referenced = bytearray(n)
    #: producer index -> number of scoreboard slots still binding it
    slots: Dict[int, int] = {}
    evictions: List[Optional[Tuple[int, ...]]] = [None] * n
    ext_last: Dict[Tuple, int] = {}
    int_last: Dict[Tuple, int] = {}

    for i in range(n):
        dyn = trace[i]
        facts = decoded[i]
        if dyn.mem_addr is not None:
            word = dyn.mem_addr & ~0x7
            mem[i] = word
            if facts.is_load:
                store_conflict[i] = last_store.get(word)
            elif facts.is_store:
                last_store[word] = i
        row = []
        plain_reads = 0
        for key, internal in facts.src_keys:
            producer = (int_last if internal else ext_last).get(key)
            if producer is None:
                if not internal:
                    plain_reads += 1
                continue
            row.append((producer, internal))
            referenced[producer] = 1
        if row:
            deps[i] = tuple(row)
        arch[i] = plain_reads
        # Bindings instruction ``i`` drops: its start bit clears the
        # internal table, its writes overwrite their register's binding.
        released = []
        if facts.start and int_last:
            # Internal values never cross braid boundaries.
            released.extend(int_last.values())
            int_last.clear()
        key = facts.written_key
        if key is not None:
            if facts.dest_internal:
                previous = int_last.get(key)
                int_last[key] = i
                slots[i] = slots.get(i, 0) + 1
                if previous is not None:
                    released.append(previous)
            if facts.dest_external:
                previous = ext_last.get(key)
                ext_last[key] = i
                slots[i] = slots.get(i, 0) + 1
                if previous is not None:
                    released.append(previous)
        if released:
            # A producer dies with its last binding; only referenced ones
            # are in the live table and need evicting.
            dying = []
            for producer in released:
                remaining = slots[producer] - 1
                if remaining:
                    slots[producer] = remaining
                else:
                    del slots[producer]
                    if referenced[producer]:
                        dying.append(producer)
            if dying:
                evictions[i] = tuple(dying)

    return ReplayFacts(
        deps=deps,
        arch_reads=arch,
        insertable=referenced,
        evictions=evictions,
        ifetch_extra=ifetch,
        load_latency=loads,
        mem_word=mem,
        store_conflict=store_conflict,
    )


@dataclass
class WorkloadStats:
    """Phase-one facts about a prepared workload."""

    dynamic_instructions: int = 0
    branches: int = 0
    mispredicts: int = 0
    loads: int = 0
    stores: int = 0
    l1d_miss_rate: float = 0.0
    l1i_miss_rate: float = 0.0

    @property
    def branch_accuracy(self) -> float:
        if not self.branches:
            return 1.0
        return 1.0 - self.mispredicts / self.branches


@dataclass
class PreparedWorkload:
    """Everything a timing core needs to replay one benchmark."""

    name: str
    program: Program
    trace: List[DynInst]
    #: sequence numbers of mispredicted branches
    mispredicted: Set[int]
    #: per-load total data-cache latency (seq -> cycles)
    load_latency: Dict[int, int]
    #: per-instruction *extra* fetch latency beyond the L1I hit time
    ifetch_extra: Dict[int, int]
    stats: WorkloadStats = field(default_factory=WorkloadStats)
    #: lazily computed decode facts, aligned with ``trace`` (see :meth:`decode`)
    decoded: Optional[List[DecodedInst]] = field(
        default=None, repr=False, compare=False
    )
    #: lazily computed replay arrays (see :meth:`replay`); dropped from
    #: pickles — they rebuild in one linear pass and would triple the
    #: artifact-cache footprint
    replay_facts: Optional[ReplayFacts] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.trace)

    def decode(self) -> List[DecodedInst]:
        """Decode facts for every trace entry, computed once per workload."""
        if self.decoded is None:
            self.decoded = decode_trace(self.trace)
        return self.decoded

    def replay(self) -> ReplayFacts:
        """Replay arrays shared by every timing core driving this workload."""
        if self.replay_facts is None:
            self.replay_facts = build_replay(
                self.trace, self.decode(), self.load_latency, self.ifetch_extra
            )
        return self.replay_facts

    def __getstate__(self):
        state = self.__dict__.copy()
        state["replay_facts"] = None
        return state


def prepare_workload(
    program: Program,
    predictor: str = "perceptron",
    memory: Optional[MemoryHierarchyConfig] = None,
    perfect: bool = False,
    max_instructions: int = 200_000,
    warmup_passes: int = 2,
) -> PreparedWorkload:
    """Run phase one on ``program``.

    ``perfect=True`` gives the Figure 1 study's ideal front end: no
    mispredictions and flat L1-hit memory latencies.

    ``warmup_passes`` trains the branch predictor over the trace before the
    measured pass.  The paper simulates MinneSPEC runs of millions of
    instructions where predictor training is amortized to nothing; the
    reproduction's traces are short samples, so warm-up models the same
    steady state instead of measuring cold-start aliasing.
    """
    executor = FunctionalExecutor(program, max_instructions=max_instructions)
    trace = list(executor.trace())

    stats = WorkloadStats(
        dynamic_instructions=len(trace),
        branches=executor.stats.dynamic_branches,
        loads=executor.stats.loads,
        stores=executor.stats.stores,
    )

    mispredicted: Set[int] = set()
    load_latency: Dict[int, int] = {}
    ifetch_extra: Dict[int, int] = {}

    hierarchy = MemoryHierarchy(memory)
    l1_hit = hierarchy.config.l1d_latency

    if perfect:
        for dyn in trace:
            if dyn.is_load:
                load_latency[dyn.seq] = l1_hit
        return PreparedWorkload(
            name=program.name,
            program=program,
            trace=trace,
            mispredicted=mispredicted,
            load_latency=load_latency,
            ifetch_extra=ifetch_extra,
            stats=stats,
        )

    branch_predictor = make_predictor(predictor)
    predict = branch_predictor.predict
    update = branch_predictor.update
    branches = [dyn for dyn in trace if dyn.is_branch]
    for _ in range(max(0, warmup_passes)):
        for dyn in branches:
            predict(dyn.pc)
            update(dyn.pc, bool(dyn.taken))

    previous_line = -1
    line_bytes = hierarchy.config.line_bytes
    l1i_hit = hierarchy.config.l1i_latency
    instruction_fetch = hierarchy.instruction_fetch
    data_access = hierarchy.data_access

    for dyn in trace:
        pc = dyn.pc
        line = pc // line_bytes
        if line != previous_line:
            extra = instruction_fetch(pc) - l1i_hit
            if extra > 0:
                ifetch_extra[dyn.seq] = extra
            previous_line = line

        if dyn.is_branch:
            prediction = predict(pc)
            actual = bool(dyn.taken)
            update(pc, actual)
            if prediction != actual:
                mispredicted.add(dyn.seq)
        elif dyn.is_load:
            load_latency[dyn.seq] = data_access(dyn.mem_addr)
        elif dyn.is_store:
            data_access(dyn.mem_addr)

    stats.mispredicts = len(mispredicted)
    stats.l1d_miss_rate = hierarchy.l1d.stats.miss_rate
    stats.l1i_miss_rate = hierarchy.l1i.stats.miss_rate
    return PreparedWorkload(
        name=program.name,
        program=program,
        trace=trace,
        mispredicted=mispredicted,
        load_latency=load_latency,
        ifetch_extra=ifetch_extra,
        stats=stats,
    )
