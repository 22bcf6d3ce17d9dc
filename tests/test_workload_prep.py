"""Tests for prepared workloads (phase-one oracles)."""

import pickle

import pytest

from repro.sim.workload import decode_trace, prepare_workload
from repro.workloads import build_program, kernel


@pytest.fixture(scope="module")
def gcc():
    return build_program("gcc")


class TestPreparation:
    def test_trace_matches_functional_length(self, gcc):
        workload = prepare_workload(gcc)
        assert len(workload) == workload.stats.dynamic_instructions
        assert len(workload.trace) > 0

    def test_deterministic(self, gcc):
        a = prepare_workload(gcc)
        b = prepare_workload(gcc)
        assert a.mispredicted == b.mispredicted
        assert a.load_latency == b.load_latency

    def test_mispredicted_are_branches(self, gcc):
        workload = prepare_workload(gcc)
        by_seq = {d.seq: d for d in workload.trace}
        for seq in workload.mispredicted:
            assert by_seq[seq].is_branch

    def test_load_latencies_cover_all_loads(self, gcc):
        workload = prepare_workload(gcc)
        loads = [d for d in workload.trace if d.is_load]
        assert len(loads) == len(workload.load_latency)
        l1 = 3
        for latency in workload.load_latency.values():
            assert latency >= l1

    def test_stats_populated(self, gcc):
        workload = prepare_workload(gcc)
        assert workload.stats.branches > 0
        assert 0.0 <= workload.stats.branch_accuracy <= 1.0
        assert workload.stats.mispredicts == len(workload.mispredicted)

    def test_instruction_cap(self, gcc):
        workload = prepare_workload(gcc, max_instructions=500)
        assert len(workload) == 500


class TestPerfectMode:
    def test_no_mispredictions(self, gcc):
        workload = prepare_workload(gcc, perfect=True)
        assert workload.mispredicted == set()

    def test_flat_l1_latencies(self, gcc):
        workload = prepare_workload(gcc, perfect=True)
        assert set(workload.load_latency.values()) <= {3}
        assert workload.ifetch_extra == {}


class TestPredictorChoice:
    def test_bimodal_usually_worse_or_equal(self, gcc):
        perceptron = prepare_workload(gcc, predictor="perceptron")
        taken = prepare_workload(gcc, predictor="taken")
        assert len(perceptron.mispredicted) <= len(taken.mispredicted)

    def test_kernel_loop_branches_learnable(self):
        workload = prepare_workload(kernel("daxpy"))
        # One perfectly-biased loop branch: only warm-up mispredicts.
        assert workload.stats.branch_accuracy > 0.9


class TestSerialization:
    """Workloads travel through the artifact cache and worker specs pickled."""

    def test_pickle_round_trip_preserves_oracles(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        clone = pickle.loads(pickle.dumps(workload))
        assert len(clone) == len(workload)
        assert clone.mispredicted == workload.mispredicted
        assert clone.load_latency == workload.load_latency
        assert clone.ifetch_extra == workload.ifetch_extra
        assert [d.seq for d in clone.trace] == [d.seq for d in workload.trace]

    def test_pickle_round_trip_preserves_every_dyninst_field(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        clone = pickle.loads(pickle.dumps(workload))
        for ours, theirs in zip(workload.trace, clone.trace):
            assert (theirs.seq, theirs.block, theirs.pc, theirs.taken,
                    theirs.next_pc, theirs.mem_addr) == (
                ours.seq, ours.block, ours.pc, ours.taken,
                ours.next_pc, ours.mem_addr)
            assert theirs.inst.render() == ours.inst.render()
            assert theirs.inst.annot == ours.inst.annot
            # The flags are not in the pickle: they are re-derived.
            assert (theirs.is_branch, theirs.is_load, theirs.is_store) == (
                ours.is_branch, ours.is_load, ours.is_store)
            assert (theirs.is_branch, theirs.is_load, theirs.is_store) == (
                theirs.inst.is_branch, theirs.inst.is_load,
                theirs.inst.is_store)
        kinds = {(d.is_branch, d.is_load, d.is_store) for d in clone.trace}
        assert {(True, False, False), (False, True, False),
                (False, False, True)} <= kinds

    def test_dyninst_pickle_state_omits_derived_flags(self, gcc):
        workload = prepare_workload(gcc, max_instructions=500)
        branch = next(d for d in workload.trace if d.is_branch)
        state = branch.__getstate__()
        assert state == (branch.seq, branch.inst, branch.block, branch.pc,
                         branch.taken, branch.next_pc, branch.mem_addr)
        assert b"is_branch" not in pickle.dumps(branch)

    def test_dataclass_replace_keeps_flags(self, gcc):
        """Fault injection rewrites in-flight payloads with
        ``dataclasses.replace``; the copy keeps every other field."""
        import dataclasses

        workload = prepare_workload(gcc, max_instructions=500)
        load = next(d for d in workload.trace if d.is_load)
        moved = dataclasses.replace(load, pc=load.pc ^ 0x40)
        assert moved.pc == load.pc ^ 0x40 and moved is not load
        assert moved.is_load and not moved.is_branch and not moved.is_store
        assert (moved.seq, moved.inst, moved.mem_addr) == (
            load.seq, load.inst, load.mem_addr)
        assert workload.trace[load.seq] is load

    def test_pickle_round_trip_preserves_decode(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        workload.decode()
        clone = pickle.loads(pickle.dumps(workload))
        assert clone.decoded is not None
        for ours, theirs in zip(workload.decoded, clone.decoded):
            assert ours.latency == theirs.latency
            assert ours.src_keys == theirs.src_keys
            assert ours.written_key == theirs.written_key

    def test_decode_trace_shares_static_facts(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        decoded = decode_trace(workload.trace)
        assert len(decoded) == len(workload.trace)
        by_static = {}
        for dyn, facts in zip(workload.trace, decoded):
            assert by_static.setdefault(id(dyn.inst), facts) is facts
        # Sharing is the point: far fewer decode objects than trace entries.
        assert len(by_static) < len(decoded)

    def test_decode_memoized_on_workload(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        assert workload.decode() is workload.decode()


class TestMemoryBehaviour:
    def test_cache_hostile_benchmark_misses_more(self):
        friendly = prepare_workload(build_program("gzip"))
        hostile = prepare_workload(build_program("mcf"))
        assert hostile.stats.l1d_miss_rate > friendly.stats.l1d_miss_rate

    def test_icache_warm_after_first_touch(self, gcc):
        workload = prepare_workload(gcc)
        # Static code is tiny vs 64KB L1I: only cold misses.
        assert len(workload.ifetch_extra) < len(workload.trace) * 0.02
