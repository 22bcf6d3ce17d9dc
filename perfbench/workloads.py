"""The benchmark's three workloads: inputs, set-up, one timed pass, checks.

Every workload is a closed loop driven by one caller.  A *pass* is one
unit of timed work; the runner repeats passes for ``--seconds`` and
reports medians.  Each pass returns a :class:`PassResult` whose ``cells``
hold the simulated outputs that the runner checks against the other
passes and against ``reference.json``.

* ``kernel`` — exact, unhooked ``repro.sim.run.simulate`` of a seeded
  four-program mix on all five registered cores.  Set-up is phase one.
* ``figure_sweep`` — T1-T3, F13 at 8-wide on the sampled tier and CS (CPI
  stacks, Observer attached) on a one-program slice (gcc), through the
  ``repro.harness.experiments`` functions on a fresh ``ExperimentContext``
  with an empty artifact cache and ``jobs=2``.
* ``service`` — one client submits a seeded batch of small jobs to a fresh
  ``JobStore`` and drains it with ``serve(ServiceConfig(jobs=2,
  drain_when_idle=True))``.  Each pass runs in a fresh interpreter (see
  ``run.py``), because the service keeps warm phase-one state per process.

The simulator is reached only through module attributes (``run.simulate``,
not a name imported from it), so the traced run's wrappers apply.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import resource
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Tuple

import hostspeed
import repro.core.pipeline as pipeline
import repro.harness.experiments as experiments
import repro.sim.run as run
import repro.sim.workload as sim_workload
import repro.workloads.generator as generator
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.config import (
    braid_config,
    depsteer_config,
    inorder_config,
    ooo_config,
)
from repro.sim.registry import core_keys, core_registry, descriptor_for_key
from repro.sim.sampling import SamplingConfig
from repro.workloads.profiles import (
    ALL_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    profile,
    scaled,
)

WIDTH = 8

#: gcc is branchy, mcf cache-hostile, swim wide streaming DAGs, equake fp;
#: each with its trace cap at scale 1.  A seeded variant's trace is 1.4x
#: to 2.9x its program's cap (112 variants), so every variant retires
#: exactly the cap: uncapped, a pass's instructions moved by 10% from
#: seed to seed.
KERNEL_CAPS = {"gcc": 2500, "mcf": 2000, "swim": 8000, "equake": 2800}

#: the figure_sweep's CS slice, whatever the seed: the Observer's cost
#: grows with simulated cycles, and a seeded slice moved the pass's
#: Observer time by 3x (mcf against vortex)
CS_PROGRAM = "gcc"

#: each suite's programs from cheapest to dearest in a figure_sweep pass
#: (phase one plus the four sampled F13 cells, at scale 8 capped at 9000
#: instructions, on the reference host).  Costs span 1.8x within a suite;
#: a subset drawn uniformly moved the pass's CPU time by 12% from seed to
#: seed, so the seed picks one program from each stratum of this order.
INT_BY_COST = ("eon", "gap", "vortex", "twolf", "gcc", "gzip", "perlbmk",
               "mcf", "crafty", "vpr", "bzip2", "parser")
FP_BY_COST = ("wupwise", "fma3d", "mesa", "art", "mgrid", "galgel",
              "equake", "swim", "applu", "facerec", "apsi", "lucas",
              "sixtrack", "ammp")

#: F13's four paradigms at 8-wide, exactly as fig13_paradigms builds them
F13_POINTS = (
    ("inorder", inorder_config(WIDTH), False),
    ("depsteer", depsteer_config(WIDTH), False),
    ("braid", braid_config(WIDTH), True),
    ("ooo", ooo_config(WIDTH), False),
)

#: programs whose traces are shortest at the service's default scale, so a
#: faults job is never the batch's long pole
FAULTS_PROGRAMS = ("bzip2", "mcf", "parser", "crafty")
#: the service's sweeps, in turn: an int and an fp program each, of
#: middling length at the service's default scale
SWEEP_PROGRAMS = (("gcc", "equake"), ("vpr", "fma3d"), ("twolf", "art"))


@dataclass(frozen=True)
class Sizes:
    """How much work one set-up or pass does."""

    kernel_scale: float = 1.0
    #: seeded variants of each kernel program: one generated program is a
    #: small static sample, and its simulated cycles swing about 20%
    #: (quartile spread) from seed to seed; four variants cut that to 5%
    kernel_variants: int = 4
    kernel_setups: int = 3
    #: programs per suite (int and fp) in the figure_sweep subset
    sweep_per_suite: int = 5
    #: at scale 8 every program runs past the cap, so the seeded subsets
    #: all simulate the same number of instructions
    sweep_scale: float = 8.0
    sweep_cap: int = 9_000
    #: simulate cells per core: every program on every core, so the
    #: batch's simulated work is the same whatever the seed (a seeded
    #: subset moved the braid instructions of a pass by 25%)
    service_cells_per_core: int = 26
    service_resubmits: int = 20
    service_sweeps: int = 3
    service_faults: int = 2
    #: cold starts timed per run for ``setup_s`` (figure_sweep)
    setup_repeats: int = 3


FULL = Sizes()
#: a few seconds per workload, for the benchmark's own tests
SMOKE = Sizes(
    kernel_scale=0.25, kernel_variants=1, kernel_setups=2,
    sweep_per_suite=1, sweep_scale=1.0, sweep_cap=3_000,
    service_cells_per_core=1, service_resubmits=2, service_sweeps=1,
    service_faults=1, setup_repeats=1,
)


def cpu_clock() -> float:
    """CPU seconds (user + system) used so far by this process and by the
    children it has waited for.

    Timed figures are CPU time, not wall time: on a shared host other
    tenants' load stretches the wall clock of the same work by up to 1.6x,
    while the CPU time it takes barely moves.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def begin(meter) -> Tuple[float, float]:
    """Start a timed section (metered if ``meter``): wall and CPU now."""
    if meter is not None:
        meter.start()
    return time.perf_counter(), cpu_clock()


def finish(out: "PassResult", began: Tuple[float, float], meter) -> None:
    """End a timed section: its wall time, and its CPU time less the
    meter's calibration chunks, with the factor to reference speed."""
    out.wall = time.perf_counter() - began[0]
    out.cpu = cpu_clock() - began[1]
    if meter is not None:
        calibration, out.scale = meter.stop()
        out.cpu -= calibration


@dataclass
class PassResult:
    """What one timed pass did, and what it produced."""

    wall: float
    #: CPU seconds of the timed section, workers included (see cpu_clock)
    cpu: float = 0.0
    #: turns this pass's CPU seconds into seconds at reference host speed
    #: (see hostspeed; 1 when the pass is not metered)
    scale: float = 1.0
    #: checked outputs: cell or job label -> field -> value
    cells: Dict[str, Dict] = field(default_factory=dict)
    #: seconds per job (kernel: one core on one variant of the mix; F13
    #: cell; service job)
    latencies: List[float] = field(default_factory=list)
    #: simulated instructions retired in the pass
    insts: int = 0
    braid_insts: int = 0
    #: CPU seconds charged to the braid instructions
    braid_cpu: float = 0.0
    #: one message per failed operation
    errors: List[str] = field(default_factory=list)
    #: workload-specific counts and times
    extra: Dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return len(self.cells)


def _cell(result) -> Dict:
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": round(result.instructions / result.cycles, 9),
    }


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")
    ).hexdigest()


# --------------------------------------------------------------------- kernel
def kernel_profiles(seed: int, sizes: Sizes):
    """The seeded four-program mix, each program in seeded variants
    (named ``gcc-0``, ``gcc-1``, ...)."""
    return [
        replace(
            scaled(profile(name), sizes.kernel_scale),
            name=f"{name}-{variant}",
            seed=zlib.crc32(f"{name}:{seed}:{variant}".encode("utf-8")),
        )
        for name in KERNEL_CAPS
        for variant in range(sizes.kernel_variants)
    ]


def kernel_setup(seed: int, sizes: Sizes) -> Dict[Tuple[str, bool], object]:
    """Phase one: program, braid compilation, prepared and decoded
    workloads with their replay facts, for every (program, braided)."""
    prepared = {}
    for prof in kernel_profiles(seed, sizes):
        program = generator.generate(prof)
        compilation = pipeline.braidify(program)
        cap = round(KERNEL_CAPS[prof.name.rsplit("-", 1)[0]]
                    * sizes.kernel_scale)
        for braided, source in ((False, program),
                                (True, compilation.translated)):
            workload = sim_workload.prepare_workload(
                source, max_instructions=cap
            )
            workload.decode()
            workload.replay()
            prepared[(prof.name, braided)] = workload
    return prepared


def kernel_warmup(prepared) -> None:
    """Untimed: every core once on the shortest program."""
    name = min((n for n, _ in prepared),
               key=lambda n: len(prepared[(n, False)]))
    for descriptor in core_registry().values():
        run.simulate(prepared[(name, descriptor.braided)],
                     descriptor.config_factory(WIDTH))


def kernel_pass(prepared, meter=None) -> PassResult:
    """Every core on every program.  A job is one core on one variant of
    the four-program mix: single calls differ in length by 50x, so
    percentiles of them jump between clusters from seed to seed.

    The cores take turns program by program, so each core's time is
    sampled across the whole pass rather than in one stretch of it: host
    speed drifts within seconds.
    """
    out = PassResult(wall=0.0)
    began_pass = begin(meter)
    names = sorted({name for name, _ in prepared},
                   key=lambda n: (n.rsplit("-", 1)[1], n))
    jobs: Dict[Tuple[str, str], float] = {}
    for name in names:
        for key, descriptor in core_registry().items():
            config = descriptor.config_factory(WIDTH)
            workload = prepared[(name, descriptor.braided)]
            chunks = meter.seconds if meter is not None else 0.0
            began, began_cpu = time.perf_counter(), time.process_time()
            result = run.simulate(workload, config)
            seconds = time.perf_counter() - began
            cpu = time.process_time() - began_cpu
            if meter is not None:
                cpu -= meter.seconds - chunks
            label = f"{name}/{key}"
            job = (key, name.rsplit("-", 1)[1])
            jobs[job] = jobs.get(job, 0.0) + seconds
            out.cells[label] = _cell(result)
            out.insts += result.instructions
            if key == "braid":
                out.braid_insts += result.instructions
                out.braid_cpu += cpu
            if result.instructions != len(workload):
                out.errors.append(
                    f"{label}: retired {result.instructions} of "
                    f"{len(workload)} instructions"
                )
    out.latencies.extend(jobs.values())
    finish(out, began_pass, meter)
    return out


# --------------------------------------------------------------- figure_sweep
def _stratified(rng: random.Random, ordered, count: int) -> List[str]:
    """One seeded pick from each of ``count`` runs of ``ordered``."""
    return [
        rng.choice(ordered[index * len(ordered) // count:
                           (index + 1) * len(ordered) // count])
        for index in range(count)
    ]


def sweep_programs(seed: int, sizes: Sizes) -> List[str]:
    """The program subset, as many int as fp programs: the CS slice first,
    then seeded programs, one from each cost stratum of its suite."""
    if (sorted(INT_BY_COST) != sorted(INT_BENCHMARKS)
            or sorted(FP_BY_COST) != sorted(FP_BENCHMARKS)):
        raise ValueError("INT_BY_COST / FP_BY_COST miss a suite program")
    rng = random.Random(seed)
    others = [name for name in INT_BY_COST if name != CS_PROGRAM]
    return ([CS_PROGRAM]
            + _stratified(rng, others, sizes.sweep_per_suite - 1)
            + _stratified(rng, FP_BY_COST, sizes.sweep_per_suite))


def sweep_cold_setup(cache_root: Path, names) -> float:
    """CPU seconds of a fresh interpreter that starts, imports the harness
    and creates the context: what a user waits for before a sweep
    starts."""
    probe = (
        "import sys; from pathlib import Path; "
        "sys.path[:0] = sys.argv[1:3]; import workloads; "
        "workloads.sweep_context(Path(sys.argv[3]), sys.argv[4:], "
        "workloads.FULL)"
    )
    here = Path(__file__).resolve().parent
    began = cpu_clock()
    subprocess.run(
        [sys.executable, "-c", probe, str(here), str(here.parent / "src"),
         str(cache_root), *names],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return cpu_clock() - began


def sweep_context(cache_root: Path, names, sizes: Sizes) -> ExperimentContext:
    return ExperimentContext(
        benchmarks=names,
        scale=sizes.sweep_scale,
        max_instructions=sizes.sweep_cap,
        jobs=2,
        cache=ArtifactCache(root=cache_root, enabled=True),
        sampling=SamplingConfig(),
        result_cache=False,
        fidelity="sampled",
    )


def sweep_pass(names, cache_root: Path, sizes: Sizes, tracer,
               meter=None) -> PassResult:
    """Regenerate T1-T3, F13 (8-wide, sampled) and CS on a fresh cache."""
    out = PassResult(wall=0.0)
    began = begin(meter)
    ctx = sweep_context(cache_root, names, sizes)
    tables = {}
    for table_id, function in (("T1", experiments.tab1_braids_per_block),
                               ("T2", experiments.tab2_braid_size_width),
                               ("T3", experiments.tab3_braid_io)):
        with tracer.span(f"experiment.{table_id}"):
            tables[table_id] = function(ctx).rows
    with tracer.span("experiment.F13"):
        experiments.fig13_paradigms(ctx, widths=(WIDTH,))
    cs_ctx = sweep_context(cache_root, names[:1], sizes)
    with tracer.span("experiment.CS"):
        cs_rows = experiments.cpi_stack_experiment(cs_ctx).rows
    finish(out, began, meter)

    # Outputs, untimed: F13 results are memoized on the context.
    for table_id, rows in tables.items():
        values = [v for row in rows.values() for v in row.values()]
        out.cells[table_id] = {"rows_sha256": digest(rows)}
        if not rows or not all(math.isfinite(v) for v in values):
            out.errors.append(f"{table_id}: empty or non-finite rows")
    for name in names:
        for key, config, braided in F13_POINTS:
            result = ctx.run(name, config, braided=braided)
            label = f"F13:{name}/{key}"
            out.cells[label] = _cell(result)
            out.insts += result.instructions
            expected = len(ctx.workload(name, braided=braided))
            if result.instructions != expected:
                out.errors.append(
                    f"{label}: retired {result.instructions} of {expected} "
                    f"instructions"
                )
    for event in ctx.runlog.read():
        if event.get("event") == "cell":
            out.latencies.append(event["seconds"])
            if event["machine"].startswith("braid"):
                out.braid_insts += event["instructions"]
    # A pool worker's CPU time per cell is not visible: the braid rate is
    # the braid cells' share of the pass's throughput.
    out.braid_cpu = out.cpu
    name = names[0]
    for row_label, row in cs_rows.items():
        key = row_label.split("/", 1)[1]
        cpi = sum(row.values())
        label = f"CS:{row_label}"
        insts = len(cs_ctx.workload(
            name, braided=descriptor_for_key(key).braided
        ))
        out.cells[label] = {"cycles": round(cpi * insts),
                            "instructions": insts,
                            "ipc": round(1.0 / cpi, 9)}
        out.insts += insts
        # An Observer must not change timing: the CPI stack of a CS cell
        # sums to the CPI of the same F13 cell run unobserved.
        twin = out.cells.get(f"F13:{name}/{key}")
        if twin is not None:
            unobserved = twin["cycles"] / twin["instructions"]
            if abs(cpi - unobserved) > 1e-6 * unobserved:
                out.errors.append(
                    f"{label}: observed CPI {cpi:.6f} != unobserved "
                    f"{unobserved:.6f}"
                )
    return out


# -------------------------------------------------------------------- service
def service_requests(seed: int, sizes: Sizes) -> List[Tuple[str, Dict, str]]:
    """The seeded batch, in submission order: ``(kind, params, client)``.

    Simulate cells over the 26 programs x 5 cores at the service's default
    sizing, as many per core; some of them resubmitted by a second client
    (dedup coalesces them); a few small sweeps and two-run fault campaigns.
    The seed picks the resubmitted cells, each campaign's injection seed
    and the submission order.  Sweeps and campaigns take their programs
    and cores in turn: the programs differ in length by 8x, and seeded
    sweep programs moved a pass's simulated instructions by 7%.
    """
    rng = random.Random(seed)
    cores = list(core_keys())
    batch = [
        ("simulate", {"benchmark": name, "core": core}, "alice")
        for core in cores
        for name in rng.sample(ALL_BENCHMARKS, sizes.service_cells_per_core)
    ]
    batch += [
        ("simulate", dict(params), "bob")
        for _, params, _ in rng.sample(batch, sizes.service_resubmits)
    ]
    batch += [
        ("sweep", {"benchmarks": sorted(programs),
                   "cores": sorted({cores[2 * index % len(cores)],
                                    cores[(2 * index + 1) % len(cores)]})},
         "alice")
        for index, programs in zip(range(sizes.service_sweeps),
                                   itertools.cycle(SWEEP_PROGRAMS))
    ]
    batch += [
        ("faults", {"benchmarks": [program],
                    "cores": [("braid", "ooo")[index % 2]],
                    "runs": 2, "seed": rng.randrange(1000)}, "carol")
        for index, program in zip(range(sizes.service_faults),
                                  itertools.cycle(FAULTS_PROGRAMS))
    ]
    rng.shuffle(batch)
    return batch


def _job_label(kind: str, params: Dict) -> str:
    if kind == "simulate":
        return f"simulate:{params['benchmark']}/{params['core']}"
    if kind == "sweep":
        return (f"sweep:{'+'.join(params['benchmarks'])}/"
                f"{'+'.join(params['cores'])}")
    return (f"faults:{'+'.join(params['benchmarks'])}/"
            f"{'+'.join(params['cores'])}/seed{params['seed']}")


def service_pass(seed: int, store_root: Path, sizes: Sizes, tracer,
                 meter=None) -> PassResult:
    """Create the store, then submit the batch and drain it (timed).

    Runs in a fresh interpreter: set-up is the CPU time of its cold start
    up to an open store, scaled by one calibration right after it.
    """
    from repro.service import JobRequest, JobStore
    from repro.service.jobs import normalize_params
    from repro.service.supervisor import ServiceConfig, serve

    store = JobStore(store_root / "store")
    setup = cpu_clock()
    calibration = hostspeed.calibrate()
    requests = [
        (kind, normalize_params(kind, params), client)
        for kind, params, client in service_requests(seed, sizes)
    ]

    out = PassResult(wall=0.0)
    job_ids = []
    with tracer.span("pass"):
        began = begin(meter)
        for kind, params, client in requests:
            with tracer.span("service.submit"):
                request = JobRequest(kind, params, client)
                job_ids.append(store.submit(request)[0])
        summary = serve(store, ServiceConfig(jobs=2, drain_when_idle=True))
        finish(out, began, meter)

    distinct = list(dict.fromkeys(job_ids))
    queue_waits, run_times = [], []
    simulated_cells: Dict[Tuple[str, str], Dict] = {}
    for job_id in distinct:
        job = store.job(job_id)
        label = _job_label(job.kind, job.params)
        payload = store.result(job_id)
        if job.status != "done" or payload is None:
            out.errors.append(f"{label}: ended {job.status} ({job.error})")
            out.cells[label] = {"status": job.status}
            continue
        out.cells[label] = {"sha256": digest(payload)}
        timeline = store.timeline(job_id)
        events = {event["event"]: event for event in timeline["events"]}
        out.latencies.append(events["done"]["mono"] - events["submit"]["mono"])
        queue_waits.append(timeline["queue_wait"])
        run_times.append(timeline["run_time"])
        simulated = [] if job.kind == "faults" else payload.get(
            "cells", [payload]
        )
        for cell in simulated:
            out.insts += cell["instructions"]
            if cell["core"] == "braid":
                out.braid_insts += cell["instructions"]
            if cell["ipc"] != round(cell["instructions"] / cell["cycles"], 6):
                out.errors.append(f"{label}: ipc does not match its counts")
            # a cell simulated by a simulate job and by a sweep job must
            # come back identical
            twin = simulated_cells.setdefault(
                (cell["benchmark"], cell["core"]), cell
            )
            if twin != cell:
                out.errors.append(
                    f"{label}: {cell['benchmark']}/{cell['core']} differs "
                    f"from the same cell in another job"
                )
        if job.kind == "faults" and payload["quarantined"]:
            out.errors.append(f"{label}: {payload['quarantined']} quarantined")
    expected_coalesced = len(job_ids) - len(distinct)
    counters = summary["counters"]
    if counters["coalesced"] != expected_coalesced:
        out.errors.append(
            f"service: coalesced {counters['coalesced']}, expected "
            f"{expected_coalesced}"
        )
    out.extra = {
        "setup": setup * hostspeed.scale(calibration, calibration),
        "calibration": calibration,
        "queue_waits": queue_waits,
        "run_times": run_times,
        "rounds": summary["rounds"],
        "coalesced": counters["coalesced"],
        "journal_events": len(store.journal.records),
        "journal_bytes": (store.root / "journal.jsonl").stat().st_size,
    }
    # Worker-side time per cell is not visible untraced: the braid rate
    # is the braid cells' share of the pass's throughput.
    out.braid_cpu = out.cpu
    store.close()
    return out
