"""Per-layer metrics from the spans of a traced run.

Every time and count is *per unit*: per timed pass, except phase one on
``kernel``, whose phase one is its set-up and is reported per set-up.
Shares are self times of the layers within the passes' own process,
divided by the passes' wall time, so they add up to one.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from spans import duration, root_of, self_times

CORES = ("ooo", "inorder", "depsteer", "braid", "blockooo")

#: span-name prefix -> layer (module) it is charged to; first match wins
LAYERS = (
    ("phase1.generate", "repro.workloads"),
    ("phase1.braidify", "repro.core"),
    ("phase1.", "repro.sim.workload"),
    ("sim.", "repro.sim"),
    ("sampling.", "repro.sim.sampling"),
    ("obs.", "repro.obs"),
    ("harness.", "repro.harness"),
    ("experiment.", "repro.harness"),
    ("service.", "repro.service"),
    ("faults.", "repro.faults"),
    ("pass", "benchmark"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer in LAYERS))


def _units() -> Dict[str, str]:
    units = {
        "phase1.generate_s": "s",
        "phase1.braidify_s": "s",
        "core.braids": "count",
        "phase1.prepare_s": "s",
        "phase1.prepare_us_per_inst": "us",
        "phase1.decode_s": "s",
        "phase1.replay_s": "s",
    }
    for core in CORES:
        units.update({
            f"sim.{core}.host_s": "s",
            f"sim.{core}.insts_per_s": "1/s",
            f"sim.{core}.host_ns_per_cycle": "ns",
            f"sim.{core}.cycles": "count",
            f"sim.{core}.ipc": "inst/cycle",
        })
    units.update({
        "sampling.host_s": "s",
        "sampling.detail_fraction": "fraction",
        "sampling.ipc_err_pct_max": "%",
        "obs.host_s": "s",
        "obs.observer_cost_pct": "%",
        "harness.parent_phase1_s": "s",
        "harness.pool_s": "s",
        "harness.pool_busy_frac": "fraction",
        "harness.artifacts.puts": "count",
        "harness.artifacts.bytes": "bytes",
        "harness.artifacts.put_s": "s",
        "service.submit_ms_p50": "ms",
        "service.journal_events": "count",
        "service.journal_bytes": "bytes",
        "service.coalesced": "count",
        "service.rounds": "count",
        "service.prepare_s": "s",
        "service.queue_wait_p50_s": "s",
        "service.run_time_p50_s": "s",
        "service.worker_busy_frac": "fraction",
        "faults.job_s": "s",
        "host.calibration_s": "s",
        "wall.pass_s": "s",
        "wall.jobs_per_s": "1/s",
        "wall.job_latency_p50_s": "s",
        "wall.job_latency_p90_s": "s",
    })
    for layer in LAYER_NAMES:
        units[f"share.{layer}"] = "fraction"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


#: per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = _units()


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(
    workload: str,
    spans: List[Dict],
    passes: List,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every per-layer metric that the spans and passes give, in
    BENCHMARK.json's names (the runner adds the figure_sweep checks)."""
    own = self_times(spans)
    roots = root_of(spans)
    by_id = {span["id"]: span for span in spans}

    def in_roots(kind: str) -> List[Dict]:
        return [s for s in spans if roots[s["id"]]["name"] == kind]

    def unit_count(kind: str) -> int:
        return max(1, sum(1 for s in spans if s["name"] == kind
                          and s["parent"] is None
                          and "forked_from" not in s))

    in_pass = in_roots("pass")
    phase1_kind = "setup" if workload == "kernel" else "pass"
    phase1 = in_roots(phase1_kind)
    passes_n = unit_count("pass")
    phase1_n = unit_count(phase1_kind)

    def named(pool, prefix):
        return [s for s in pool if s["name"].startswith(prefix)]

    def self_sum(pool) -> float:
        return sum(own[s["id"]] for s in pool)

    m: Dict[str, float] = {}
    for stage in ("generate", "braidify", "prepare", "decode", "replay"):
        m[f"phase1.{stage}_s"] = (
            self_sum(named(phase1, f"phase1.{stage}")) / phase1_n
        )
    braids = {s["cell"]: s["attrs"]["braids"]
              for s in named(phase1, "phase1.braidify")}
    m["core.braids"] = sum(braids.values())
    prepares = named(phase1, "phase1.prepare")
    prepared_insts = sum(s["attrs"]["insts"] for s in prepares)
    m["phase1.prepare_us_per_inst"] = (
        1e6 * self_sum(prepares) / prepared_insts if prepared_insts else 0.0
    )

    first = passes[0]
    for core in CORES:
        sims = named(in_pass, f"sim.{core}")
        host = self_sum(sims)
        insts = sum(s["attrs"]["insts"] for s in sims)
        cycles = sum(s["attrs"]["cycles"] for s in sims)
        m[f"sim.{core}.host_s"] = host / passes_n
        m[f"sim.{core}.insts_per_s"] = insts / host if host else 0.0
        m[f"sim.{core}.host_ns_per_cycle"] = (
            1e9 * host / cycles if cycles else 0.0
        )
        out_cells = [c for label, c in first.cells.items()
                     if label.endswith(f"/{core}") and "cycles" in c]
        out_cycles = sum(c["cycles"] for c in out_cells)
        m[f"sim.{core}.cycles"] = out_cycles
        m[f"sim.{core}.ipc"] = (
            sum(c["instructions"] for c in out_cells) / out_cycles
            if out_cycles else 0.0
        )

    sampled = named(in_pass, "sampling.")
    sampled_insts = sum(s["attrs"]["insts"] for s in sampled)
    m["sampling.host_s"] = self_sum(sampled) / passes_n
    m["sampling.detail_fraction"] = (
        sum(s["attrs"]["detail"] * s["attrs"]["insts"] for s in sampled)
        / sampled_insts if sampled_insts else 0.0
    )
    m["obs.host_s"] = self_sum(named(in_pass, "obs.")) / passes_n

    pools = named(in_pass, "harness.parallel")
    warm = [s for s in named(in_pass, "harness.workload")
            if s["parent"] in by_id
            and by_id[s["parent"]]["name"] == "harness.parallel"]
    parent_phase1 = sum(duration(s) for s in warm)
    pool_time = sum(duration(s) for s in pools) - parent_phase1
    m["harness.parent_phase1_s"] = parent_phase1 / passes_n
    m["harness.pool_s"] = pool_time / passes_n
    m["harness.pool_busy_frac"] = _busy(spans, pools)
    puts = named(in_pass, "harness.artifacts.put")
    m["harness.artifacts.puts"] = len(puts) / passes_n
    m["harness.artifacts.bytes"] = (
        sum(s["attrs"]["bytes"] for s in puts) / passes_n
    )
    m["harness.artifacts.put_s"] = sum(duration(s) for s in puts) / passes_n

    extra = [p.extra for p in passes if p.extra]
    m["service.submit_ms_p50"] = 1e3 * _median(
        duration(s) for s in named(in_pass, "service.submit")
    )
    for name in ("journal_events", "journal_bytes", "coalesced", "rounds"):
        m[f"service.{name}"] = _median(e[name] for e in extra)
    m["service.prepare_s"] = (
        sum(duration(s) for s in named(in_pass, "service.prepare"))
        / passes_n
    )
    m["service.queue_wait_p50_s"] = _median(
        v for e in extra for v in e["queue_waits"]
    )
    m["service.run_time_p50_s"] = _median(
        v for e in extra for v in e["run_times"]
    )
    m["service.worker_busy_frac"] = _busy(
        spans, named(in_pass, "harness.hardened")
    )
    m["faults.job_s"] = _median(
        duration(s) for s in named(in_pass, "faults.job")
    )

    pass_roots = [s for s in in_pass if s["name"] == "pass"
                  and s["parent"] is None]
    wall = sum(duration(s) for s in pass_roots)
    pids = {s["pid"] for s in pass_roots}
    shares = dict.fromkeys(LAYER_NAMES, 0.0)
    for s in in_pass:
        if s["pid"] in pids and "forked_from" not in roots[s["id"]]:
            shares[layer_of(s["name"])] += own[s["id"]]
    for layer, seconds in shares.items():
        m[f"share.{layer}"] = seconds / wall if wall else 0.0

    traced_wall = _median(p.wall for p in passes)
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_pct"] = (
        100.0 * (traced_wall / untraced_wall - 1.0) if untraced_wall else 0.0
    )
    return m


def _busy(spans: List[Dict], engines: List[Dict]) -> float:
    """Busy fraction of the worker processes an engine span forked: the
    time covered by the workers' root spans over ``workers`` x the
    engine's duration."""
    capacity = sum(duration(s) * s["attrs"]["workers"] for s in engines)
    if not capacity:
        return 0.0
    ids = {s["id"] for s in engines}
    busy = sum(duration(s) for s in spans
               if s["parent"] is None and s.get("forked_from") in ids)
    return busy / capacity
