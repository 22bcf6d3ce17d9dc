"""Golden phase-one fingerprint: pins every phase-one output absolutely.

The other phase-one checks compare two paths of the same tree (cached vs
fresh, serial vs parallel); a rewrite that shifts both sides the same way
passes them all.  This test compares against a committed file instead.
Each row is one (quick-suite program, original|braided) pair at scale 1
and holds a sha256 per phase-one output — every ``DynInst`` field, the
mispredict set, the load and fetch latencies, ``WorkloadStats``, the
decode facts, every ``ReplayFacts`` array, the executor's statistics and
final architectural state, the lockstep-oracle replay state, and a
bimodal predictor's mispredict set — plus one hash over the row.

On a mismatch the test names the first differing row and field.  The
file is only rewritten on request, and a rewrite needs a CHANGES.md line
saying why phase one moved::

    PYTHONPATH=src python -m tests.test_phase1_golden --regenerate
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List

from repro.core import braidify
from repro.sim.functional import ArchState, FunctionalExecutor, apply_instruction
from repro.sim.workload import prepare_workload
from repro.uarch.branchpred import make_predictor
from repro.workloads import QUICK_BENCHMARKS, build_program

GOLDEN = Path(__file__).resolve().parent / "data" / "phase1_golden.json"
SCALE = 1.0
#: prepare_workload's default trace cap
MAX_INSTRUCTIONS = 200_000
REPLAY_ARRAYS = (
    "deps", "arch_reads", "insertable", "evictions",
    "ifetch_extra", "load_latency", "mem_word", "store_conflict",
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _bimodal_mispredicts(trace, warmup_passes: int = 2) -> List[int]:
    """prepare_workload's predictor protocol, run with a bimodal table."""
    predictor = make_predictor("bimodal")
    branches = [dyn for dyn in trace if dyn.is_branch]
    for _ in range(warmup_passes):
        for dyn in branches:
            predictor.predict(dyn.pc)
            predictor.update(dyn.pc, bool(dyn.taken))
    missed = []
    for dyn in branches:
        if predictor.predict(dyn.pc) != bool(dyn.taken):
            missed.append(dyn.seq)
        predictor.update(dyn.pc, bool(dyn.taken))
    return missed


def fingerprint(program) -> Dict[str, str]:
    """Per-field sha256 of every phase-one output for ``program``."""
    position = {
        id(inst): (block.index, slot)
        for block in program.blocks
        for slot, inst in enumerate(block.instructions)
    }
    workload = prepare_workload(program, max_instructions=MAX_INSTRUCTIONS)
    trace = workload.trace
    fields = {
        "trace": _digest([
            (dyn.seq, position[id(dyn.inst)], dyn.inst.render(),
             dyn.inst.annot, dyn.block, dyn.pc, dyn.taken, dyn.next_pc,
             dyn.mem_addr, dyn.is_branch, dyn.is_load, dyn.is_store)
            for dyn in trace
        ]),
        "mispredicted": _digest(sorted(workload.mispredicted)),
        "load_latency": _digest(sorted(workload.load_latency.items())),
        "ifetch_extra": _digest(sorted(workload.ifetch_extra.items())),
        "stats": _digest(sorted(dataclasses.asdict(workload.stats).items())),
        "decoded": _digest([facts.__getstate__() for facts in workload.decode()]),
        "bimodal_mispredicted": _digest(_bimodal_mispredicts(trace)),
    }
    replay = workload.replay()
    for name in REPLAY_ARRAYS:
        fields[f"replay.{name}"] = _digest(list(getattr(replay, name)))

    executor = FunctionalExecutor(program, max_instructions=MAX_INSTRUCTIONS)
    executor.run()
    stats = dataclasses.asdict(executor.stats)
    stats["block_counts"] = sorted(stats["block_counts"].items())
    fields["exec_stats"] = _digest(sorted(stats.items()))
    fields["final_state"] = _digest(executor.state.snapshot())
    oracle = ArchState()
    for dyn in trace:
        apply_instruction(oracle, dyn.inst)
    fields["oracle_state"] = _digest(oracle.snapshot())
    return fields


def compute_rows() -> Dict[str, Dict]:
    rows = {}
    for name in QUICK_BENCHMARKS:
        program = build_program(name, scale=SCALE)
        for variant, subject in (
            ("original", program),
            ("braided", braidify(program).translated),
        ):
            fields = fingerprint(subject)
            rows[f"{name}/{variant}"] = {
                "row": _digest(sorted(fields.items())),
                "fields": fields,
            }
    return rows


def first_difference(golden: Dict[str, Dict], rows: Dict[str, Dict]):
    """``(row, field)`` of the first mismatch, or ``None``."""
    for key in sorted(set(golden) | set(rows)):
        if key not in golden or key not in rows:
            return key, "missing"
        if golden[key]["row"] == rows[key]["row"]:
            continue
        want, got = golden[key]["fields"], rows[key]["fields"]
        for field in sorted(set(want) | set(got)):
            if want.get(field) != got.get(field):
                return key, field
        return key, "row"
    return None


def test_phase_one_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    assert golden["scale"] == SCALE
    mismatch = first_difference(golden["rows"], compute_rows())
    assert mismatch is None, (
        "phase one moved: first difference in {} field {!r} "
        "(regenerate only with a CHANGES.md line saying why)".format(*mismatch)
    )


def test_first_difference_names_row_and_field():
    rows = {"a/original": {"row": "1", "fields": {"trace": "x", "stats": "y"}}}
    moved = {"a/original": {"row": "2", "fields": {"trace": "x", "stats": "z"}}}
    assert first_difference(rows, rows) is None
    assert first_difference(rows, moved) == ("a/original", "stats")
    assert first_difference(rows, {}) == ("a/original", "missing")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the golden file from this tree")
    args = parser.parse_args(argv)
    if not args.regenerate:
        parser.error("refusing to rewrite the golden file without --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    document = {"scale": SCALE, "rows": compute_rows()}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
