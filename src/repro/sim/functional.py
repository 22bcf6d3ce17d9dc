"""Functional (architectural) executor.

Interprets a :class:`~repro.isa.program.Program` at the architectural level:
register files, a word-granular memory, branch resolution.  It serves three
roles in the reproduction:

1. **Execution-driven traces.**  :meth:`FunctionalExecutor.trace` yields the
   dynamic instruction stream (with branch outcomes and memory addresses)
   that drives every timing core, mirroring the paper's execution-driven
   simulator split.
2. **Translation validation.**  Braid formation reorders instructions and
   re-allocates registers; property tests execute the original and the
   translated program and require identical architectural results.
3. **Braid semantics.**  The executor honours the S/T/I/E annotation bits:
   internal operands live in a small internal file whose values die at braid
   boundaries (``strict_internal`` turns violations into hard errors).

Like the paper's compiler, which decides each instruction's dataflow facts
once and encodes them in the S/T/I/E bits, the executor decodes each static
instruction once: :func:`compile_instruction` resolves operand spaces,
register banks and the category into a :class:`StepPlan`, and
:func:`run_step` executes a plan against an :class:`ArchState` without
re-deriving any of it per dynamic instruction.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import MASK64, OpCategory, Semantics, to_unsigned
from ..isa.program import BasicBlock, Program
from ..isa.registers import NUM_FP_REGS, NUM_INT_REGS, NUM_INTERNAL_REGS, Space

#: Size of one encoded instruction in bytes (the 64-bit braid word).
INSTRUCTION_BYTES = 8


class ExecutionError(RuntimeError):
    """Raised on architectural violations (e.g. reading a dead internal value)."""


class ProgramLayout:
    """Assigns a byte address to every static instruction.

    Blocks are laid out contiguously in program order, eight bytes per
    instruction, so instruction caches and branch predictors can index on
    realistic addresses.
    """

    def __init__(self, program: Program, base: int = 0x1000) -> None:
        self.program = program
        self.base = base
        self.block_start: List[int] = []
        self.address_of: Dict[int, int] = {}  # id(instruction) -> address
        cursor = base
        for block in program.blocks:
            self.block_start.append(cursor)
            for inst in block.instructions:
                self.address_of[id(inst)] = cursor
                cursor += INSTRUCTION_BYTES
        self.end = cursor

    def address(self, inst: Instruction) -> int:
        return self.address_of[id(inst)]


#: (is_branch, is_load, is_store) per opcode category
_CATEGORY_FLAGS = {
    category: (
        category is OpCategory.BRANCH,
        category is OpCategory.LOAD,
        category is OpCategory.STORE,
    )
    for category in OpCategory
}


@dataclass(slots=True)
class DynInst:
    """One dynamic instruction: a static instruction plus run-time facts.

    ``is_branch``/``is_load``/``is_store`` are plain fields, filled in by
    the trace loop from the compiled plan, so the timing cores and phase
    one read them without walking ``inst.opcode.category``.  They are
    derived facts: pickles carry only the seven run-time fields and
    re-derive the flags from ``inst`` on load, which keeps cached traces
    compact.
    """

    seq: int
    inst: Instruction
    block: int
    pc: int
    taken: Optional[bool] = None
    next_pc: int = 0
    mem_addr: Optional[int] = None
    is_branch: bool = field(default=False, kw_only=True)
    is_load: bool = field(default=False, kw_only=True)
    is_store: bool = field(default=False, kw_only=True)

    def __getstate__(self):
        return (self.seq, self.inst, self.block, self.pc, self.taken,
                self.next_pc, self.mem_addr)

    def __setstate__(self, state) -> None:
        (self.seq, self.inst, self.block, self.pc, self.taken,
         self.next_pc, self.mem_addr) = state
        self.is_branch, self.is_load, self.is_store = (
            _CATEGORY_FLAGS[self.inst.opcode.category]
        )


@dataclass
class ExecutionStats:
    """Aggregate facts about one functional run."""

    dynamic_instructions: int = 0
    dynamic_branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    block_counts: Dict[int, int] = field(default_factory=dict)
    completed: bool = False  # reached program exit (vs. instruction cap)


# Register banks, indexed by a compiled operand's bank code (see
# ``ArchState.banks``); the zero banks make hardwired-zero reads ordinary
# indexed reads.
_EXT_INT, _EXT_FP, _INTERNAL_INT, _INTERNAL_FP, _ZERO_INT, _ZERO_FP = range(6)
_ZEROS_INT = (0,) * NUM_INT_REGS
_ZEROS_FP = (0.0,) * NUM_FP_REGS
_DEAD = (None,) * NUM_INTERNAL_REGS


class ArchState:
    """Architectural register/memory state, including the braid internal file."""

    def __init__(self) -> None:
        self.int_regs: List[int] = [0] * 32
        self.fp_regs: List[float] = [0.0] * 32
        self.internal_int: List[Optional[int]] = list(_DEAD)
        self.internal_fp: List[Optional[float]] = list(_DEAD)
        self.memory: Dict[int, object] = {}
        #: every register bank by bank code; the lists are the attributes
        #: above, so they are only ever updated in place
        self.banks = (self.int_regs, self.fp_regs, self.internal_int,
                      self.internal_fp, _ZEROS_INT, _ZEROS_FP)

    def clear_internal(self) -> None:
        """Discard internal values (a braid has finished executing)."""
        self.internal_int[:] = _DEAD
        self.internal_fp[:] = _DEAD

    # ------------------------------------------------------------------ memory
    @staticmethod
    def _word_address(addr: int) -> int:
        return addr & ~0x7

    def load(self, addr: int, fp: bool) -> object:
        value = self.memory.get(self._word_address(addr), 0)
        if fp:
            return float(value)
        if isinstance(value, float):
            return to_unsigned(int(value))
        return to_unsigned(value)

    def store(self, addr: int, value: object) -> None:
        self.memory[self._word_address(addr)] = value

    def snapshot(self) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple]:
        """Hashable view of external architectural state (for equivalence tests)."""
        memory = tuple(sorted(self.memory.items()))
        return tuple(self.int_regs), tuple(self.fp_regs), memory


# Category codes of a compiled step.
COMPUTE, BRANCH, LOAD, STORE, NOP = range(5)
_KIND = {OpCategory.BRANCH: BRANCH, OpCategory.LOAD: LOAD,
         OpCategory.STORE: STORE, OpCategory.NOP: NOP}


class StepPlan(NamedTuple):
    """One static instruction, decoded once for execution.

    Every per-instruction decision of the interpreter is made here, at
    compile time: which bank each source reads (constant zero, internal
    or external, int or fp), the category, and where the result goes
    (internal and/or external file; writes to a hardwired zero dropped).
    """

    inst: Instruction
    #: braid start bit: internal values die before this instruction
    start: bool
    #: ``(bank code, index)`` per source operand, in operand order
    sources: Tuple[Tuple[int, int], ...]
    reads_internal: bool
    #: COMPUTE, BRANCH, LOAD, STORE or NOP
    kind: int
    semantics: Optional[Semantics]
    imm: int
    #: loads: the opcode loads a floating-point value
    load_fp: bool
    #: the destination register is floating point
    dest_fp: bool
    #: ``(bank code, index)`` per destination write, internal first
    writes: Tuple[Tuple[int, int], ...]


def compile_instruction(inst: Instruction) -> StepPlan:
    """Decode ``inst`` into the :class:`StepPlan` that :func:`run_step` runs."""
    annot = inst.annot
    sources = []
    for position, reg in enumerate(inst.srcs):
        if annot.src_space(position) is Space.INTERNAL:
            bank = _INTERNAL_FP if reg.is_fp else _INTERNAL_INT
        elif reg.is_zero:
            bank = _ZERO_FP if reg.is_fp else _ZERO_INT
        else:
            bank = _EXT_FP if reg.is_fp else _EXT_INT
        sources.append((bank, reg.index))
    writes = []
    dest = inst.dest
    if dest is not None:
        if annot.dest_internal:
            writes.append((_INTERNAL_FP if dest.is_fp else _INTERNAL_INT,
                           dest.index))
        if annot.dest_external and not dest.is_zero:
            writes.append((_EXT_FP if dest.is_fp else _EXT_INT, dest.index))
    opcode = inst.opcode
    return StepPlan(
        inst=inst,
        start=annot.start,
        sources=tuple(sources),
        reads_internal=any(bank in (_INTERNAL_INT, _INTERNAL_FP)
                           for bank, _ in sources),
        kind=_KIND.get(opcode.category, COMPUTE),
        semantics=opcode.semantics,
        imm=inst.imm,
        load_fp=opcode.dest_fp,
        dest_fp=dest is not None and dest.is_fp,
        writes=tuple(writes),
    )


def run_step(state: ArchState, plan: StepPlan, strict_internal: bool = True):
    """Apply one compiled instruction to ``state``.

    Returns the branch outcome for a branch, the memory address for a
    load or store, and ``None`` otherwise.
    """
    (inst, start, sources, reads_internal, kind, semantics, imm,
     load_fp, dest_fp, writes) = plan
    if start and strict_internal:
        # Internal values must not flow across braid boundaries.
        state.clear_internal()
    banks = state.banks
    count = len(sources)
    if count == 2:
        (bank0, index0), (bank1, index1) = sources
        srcs = (banks[bank0][index0], banks[bank1][index1])
    elif count == 1:
        bank0, index0 = sources[0]
        srcs = (banks[bank0][index0],)
    else:
        srcs = tuple(banks[bank][index] for bank, index in sources)
    if reads_internal and None in srcs:
        reg = inst.srcs[srcs.index(None)]
        raise ExecutionError(
            f"read of dead internal register {reg} "
            f"(internal values do not survive braid boundaries)"
        )

    if kind == COMPUTE:
        value = semantics(srcs, imm)
        outcome = None
    elif kind == BRANCH:
        return bool(semantics(srcs, imm))
    elif kind == LOAD:
        outcome = (int(srcs[0]) + imm) & MASK64
        value = state.load(outcome, fp=load_fp)
    elif kind == STORE:
        outcome = (int(srcs[1]) + imm) & MASK64
        state.store(outcome, srcs[0])
        return outcome
    else:
        return None
    if writes:
        value = float(value) if dest_fp else int(value) & MASK64
        try:
            for bank, index in writes:
                banks[bank][index] = value
        except IndexError:
            # Only an internal destination can be out of range, and it is
            # written first: the state is still untouched.
            raise ExecutionError(
                f"internal register index {inst.dest} out of range"
            ) from None
    return outcome


#: compiled plans of the instructions seen so far.  A plan is a pure
#: function of its instruction, which nothing mutates after construction,
#: so every caller may share it; weak keys make a plan live exactly as
#: long as its instruction.
_PLANS: "weakref.WeakKeyDictionary[Instruction, StepPlan]" = (
    weakref.WeakKeyDictionary()
)


def plan_of(inst: Instruction) -> StepPlan:
    """The memoized :class:`StepPlan` of ``inst`` (compiled on first use)."""
    plan = _PLANS.get(inst)
    if plan is None:
        plan = _PLANS[inst] = compile_instruction(inst)
    return plan


def apply_instruction(
    state: ArchState, inst: Instruction, strict_internal: bool = True
) -> Tuple[Optional[bool], Optional[int]]:
    """Apply one instruction's architectural effects to ``state``.

    Returns ``(taken, mem_addr)``: the branch outcome (``None`` for
    non-branches) and the memory address touched (``None`` for non-memory
    instructions).  This runs the memoized compiled plan of ``inst``
    through :func:`run_step`, the single source of instruction semantics:
    :class:`FunctionalExecutor` runs the same plans, and the lockstep
    validation oracle (:mod:`repro.validate.lockstep`) replays timing-core
    retirement streams through this function, so the two can never drift
    apart.
    """
    plan = plan_of(inst)
    outcome = run_step(state, plan, strict_internal)
    kind = plan.kind
    if kind == BRANCH:
        return outcome, None
    if kind == LOAD or kind == STORE:
        return None, outcome
    return None, None


class FunctionalExecutor:
    """Architectural interpreter producing dynamic instruction streams."""

    def __init__(
        self,
        program: Program,
        max_instructions: int = 5_000_000,
        strict_internal: bool = True,
        initial_state: Optional[ArchState] = None,
    ) -> None:
        program.validate()
        self.program = program
        self.layout = ProgramLayout(program)
        self.max_instructions = max_instructions
        self.strict_internal = strict_internal
        self.state = initial_state if initial_state is not None else ArchState()
        self.stats = ExecutionStats()

    # ------------------------------------------------------------------ running
    def run(self) -> ExecutionStats:
        """Execute to completion (or the instruction cap); returns statistics."""
        for _ in self.trace():
            pass
        return self.stats

    def _compile_block(self, block: BasicBlock) -> List[Tuple]:
        """Per-instruction trace-loop entries of ``block``:
        ``(plan, inst, kind, pc, fallthrough pc, taken pc)``."""
        block_start = self.layout.block_start
        entries = []
        for inst in block.instructions:
            plan = plan_of(inst)
            pc = self.layout.address(inst)
            taken_pc = block_start[inst.target] if plan.kind == BRANCH else None
            entries.append((plan, inst, plan.kind, pc,
                            pc + INSTRUCTION_BYTES, taken_pc))
        return entries

    def trace(self) -> Iterator[DynInst]:
        """Execute, yielding one :class:`DynInst` per retired instruction."""
        program = self.program
        blocks = program.blocks
        state = self.state
        strict = self.strict_internal
        stats = self.stats
        block_counts = stats.block_counts
        limit = self.max_instructions
        compiled: Dict[int, List[Tuple]] = {}
        block = blocks[program.entry]
        seq = 0
        while block is not None and seq < limit:
            index = block.index
            block_counts[index] = block_counts.get(index, 0) + 1
            entries = compiled.get(index)
            if entries is None:
                entries = compiled[index] = self._compile_block(block)
            taken_block: Optional[int] = None
            for plan, inst, kind, pc, fallthrough_pc, taken_pc in entries:
                outcome = run_step(state, plan, strict)
                if kind == COMPUTE or kind == NOP:
                    dyn = DynInst(seq, inst, index, pc, None, fallthrough_pc,
                                  None)
                elif kind == BRANCH:
                    stats.dynamic_branches += 1
                    if outcome:
                        stats.taken_branches += 1
                        taken_block = inst.target
                        dyn = DynInst(seq, inst, index, pc, True, taken_pc,
                                      None, is_branch=True)
                    else:
                        dyn = DynInst(seq, inst, index, pc, False,
                                      fallthrough_pc, None, is_branch=True)
                elif kind == LOAD:
                    stats.loads += 1
                    dyn = DynInst(seq, inst, index, pc, None, fallthrough_pc,
                                  outcome, is_load=True)
                else:
                    stats.stores += 1
                    dyn = DynInst(seq, inst, index, pc, None, fallthrough_pc,
                                  outcome, is_store=True)
                seq += 1
                yield dyn
                if seq >= limit:
                    stats.dynamic_instructions = seq
                    return
            taken, fallthrough = program.successors(block)
            if taken_block is not None:
                next_index: Optional[int] = taken_block
            else:
                next_index = fallthrough
            block = blocks[next_index] if next_index is not None else None
        stats.dynamic_instructions = seq
        stats.completed = block is None


def execute(program: Program, max_instructions: int = 5_000_000,
            strict_internal: bool = True) -> Tuple[ArchState, ExecutionStats]:
    """Convenience wrapper: run ``program`` and return final state + stats."""
    executor = FunctionalExecutor(
        program, max_instructions=max_instructions, strict_internal=strict_internal
    )
    stats = executor.run()
    return executor.state, stats


def observably_equivalent(
    original: Program,
    translated: Program,
    max_instructions: int = 5_000_000,
) -> bool:
    """Whether two programs are observably equivalent.

    Braid translation deliberately stops writing *internalized* values to the
    architectural register file (they are dead outside their braid), so plain
    register-state comparison is too strict.  The observables that must match
    are: final memory contents, the control-flow path (per-block execution
    counts and branch outcome totals), and the dynamic instruction count.
    """
    state_a, stats_a = execute(original, max_instructions=max_instructions)
    state_b, stats_b = execute(translated, max_instructions=max_instructions)
    return (
        state_a.memory == state_b.memory
        and stats_a.block_counts == stats_b.block_counts
        and stats_a.dynamic_instructions == stats_b.dynamic_instructions
        and stats_a.taken_branches == stats_b.taken_branches
        and stats_a.completed == stats_b.completed
    )
