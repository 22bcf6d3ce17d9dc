"""Unit tests for the functional executor."""

import pytest

from repro.isa import assemble
from repro.isa.instruction import BraidAnnotation, Instruction
from repro.isa.opcodes import opcode_by_name, to_unsigned
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import Space, int_reg
from repro.sim.functional import (
    INSTRUCTION_BYTES,
    ArchState,
    ExecutionError,
    FunctionalExecutor,
    ProgramLayout,
    apply_instruction,
    execute,
)


class TestStraightLine:
    def test_arithmetic(self):
        program = assemble(
            """
            addq r31, #6, r1
            addq r31, #7, r2
            mulq r1, r2, r3
            """
        )
        state, stats = execute(program)
        assert state.int_regs[3] == 42
        assert stats.dynamic_instructions == 3
        assert stats.completed

    def test_memory_round_trip(self):
        program = assemble(
            """
            addq r31, #4096, r1
            addq r31, #99, r2
            stq r2, 8(r1)
            ldq r3, 8(r1)
            """
        )
        state, _ = execute(program)
        assert state.int_regs[3] == 99
        assert state.memory[4096 + 8] == 99

    def test_uninitialized_memory_reads_zero(self):
        program = assemble("addq r31, #4096, r1\nldq r2, 0(r1)")
        state, _ = execute(program)
        assert state.int_regs[2] == 0

    def test_word_addressing_ignores_low_bits(self):
        state = ArchState()
        state.store(0x1004, 7)
        assert state.load(0x1000, fp=False) == 7

    def test_fp_flow(self):
        program = assemble(
            """
            addq r31, #3, r1
            itoft r1, f1
            addt f1, f1, f2
            addq r31, #4096, r2
            stt f2, 0(r2)
            """
        )
        state, _ = execute(program)
        assert state.fp_regs[2] == 6.0
        assert state.memory[4096] == 6.0


class TestControlFlow:
    def test_loop_runs_to_completion(self, small_program):
        state, stats = execute(small_program)
        assert stats.completed
        assert state.int_regs[2] == 5  # loop counter reached n
        assert stats.block_counts[1] == 5  # LOOP executed 5 times

    def test_branch_statistics(self, small_program):
        _, stats = execute(small_program)
        assert stats.dynamic_branches == 5
        assert stats.taken_branches == 4  # last iteration falls through

    def test_instruction_cap_stops_execution(self):
        program = assemble(
            ".block SPIN\n addq r1, r2, r3\n br SPIN"
        )
        _, stats = execute(program, max_instructions=100)
        assert not stats.completed
        assert stats.dynamic_instructions == 100


class TestTrace:
    def test_trace_sequence_numbers_are_dense(self, small_program):
        trace = list(FunctionalExecutor(small_program).trace())
        assert [d.seq for d in trace] == list(range(len(trace)))

    def test_branch_outcomes_recorded(self, small_program):
        trace = list(FunctionalExecutor(small_program).trace())
        branches = [d for d in trace if d.is_branch]
        assert all(d.taken is not None for d in branches)
        assert branches[-1].taken is False

    def test_memory_addresses_recorded(self, small_program):
        trace = list(FunctionalExecutor(small_program).trace())
        stores = [d for d in trace if d.is_store]
        assert stores and all(d.mem_addr is not None for d in stores)

    def test_next_pc_of_taken_branch_is_target_block(self, small_program):
        executor = FunctionalExecutor(small_program)
        layout = executor.layout
        for dyn in executor.trace():
            if dyn.is_branch and dyn.taken:
                assert dyn.next_pc == layout.block_start[dyn.inst.target]


class TestLayout:
    def test_addresses_are_contiguous(self, small_program):
        layout = ProgramLayout(small_program)
        addresses = [
            layout.address(inst) for inst in small_program.instructions()
        ]
        assert addresses == sorted(addresses)
        deltas = {b - a for a, b in zip(addresses, addresses[1:])}
        assert deltas == {INSTRUCTION_BYTES}

    def test_block_starts_match_first_instruction(self, small_program):
        layout = ProgramLayout(small_program)
        for block in small_program.blocks:
            assert layout.block_start[block.index] == layout.address(
                block.instructions[0]
            )


class TestInternalSpace:
    def _internal_program(self, read_before_write: bool) -> Program:
        addq = opcode_by_name("addq")
        write = Instruction(
            opcode=addq, dest=int_reg(2), srcs=(int_reg(31), int_reg(31)),
            annot=BraidAnnotation(
                braid_id=0, start=True, src_spaces=(Space.EXTERNAL,) * 2,
                dest_internal=True, dest_external=False,
            ),
        )
        read = Instruction(
            opcode=addq, dest=int_reg(5), srcs=(int_reg(2), int_reg(31)),
            annot=BraidAnnotation(
                braid_id=0 if not read_before_write else 1,
                start=read_before_write,
                src_spaces=(Space.INTERNAL, Space.EXTERNAL),
            ),
        )
        block = BasicBlock(0, [read] if read_before_write else [write, read])
        return Program(name="internal", blocks=[block])

    def test_internal_value_flows_within_braid(self):
        state, _ = execute(self._internal_program(read_before_write=False))
        assert state.int_regs[5] == 0

    def test_reading_dead_internal_value_raises(self):
        with pytest.raises(ExecutionError,
                           match=r"read of dead internal register r2 "):
            execute(self._internal_program(read_before_write=True))

    def test_out_of_range_internal_destination_raises(self):
        inst = Instruction(
            opcode=opcode_by_name("addqi"), dest=int_reg(9),
            srcs=(int_reg(1),), imm=3,
            annot=BraidAnnotation(braid_id=0, start=True,
                                  dest_internal=True, dest_external=True),
        )
        state = ArchState()
        with pytest.raises(ExecutionError,
                           match=r"internal register index r9 out of range"):
            apply_instruction(state, inst)
        # Raised before any write: the external copy is not written either.
        assert state.int_regs[9] == 0

    def test_apply_instruction_compiles_each_instruction_once(
        self, monkeypatch
    ):
        import repro.sim.functional as functional

        compiled = []
        original = functional.compile_instruction

        def counting(inst):
            compiled.append(inst)
            return original(inst)

        monkeypatch.setattr(functional, "compile_instruction", counting)
        inst = Instruction(opcode=opcode_by_name("addqi"), dest=int_reg(1),
                           srcs=(int_reg(1),), imm=1)
        state = ArchState()
        for _ in range(3):
            apply_instruction(state, inst)
        assert state.int_regs[1] == 3
        assert compiled == [inst]

    def test_strict_internal_can_be_disabled(self):
        program = self._internal_program(read_before_write=True)
        with pytest.raises(ExecutionError):
            # Still fails: the value was never written at all.
            execute(program, strict_internal=False)

    def test_zero_register_write_discarded(self):
        program = assemble("addq r1, r2, r31")
        state, _ = execute(program)
        assert state.int_regs[31] == 0

    def test_snapshot_is_hashable_and_stable(self, small_program):
        a, _ = execute(small_program)
        b, _ = execute(small_program)
        assert a.snapshot() == b.snapshot()
        hash(a.snapshot())


class TestCmovSemantics:
    def test_cmov_in_context(self):
        program = assemble(
            """
            addq r31, #1, r1
            addq r31, #5, r3
            cmovne r1, #9, r3
            cmoveq r1, #7, r3
            """
        )
        state, _ = execute(program)
        assert state.int_regs[3] == 9  # cmovne fired, cmoveq kept value
