"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` wraps the calls into each layer with spans and
prints the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any operation failed or the outputs were wrong.

The run is hermetic: every ``REPRO_*`` variable is cleared, the caches,
service store and progress files live in fresh directories under
``.perfbench_runs/`` in the checkout (removed at the end), and ``TMPDIR``
points there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("kernel", "figure_sweep", "service")

#: end-to-end metrics (``--trace 0``): name -> unit.  Times are CPU
#: seconds, workers included (see ``workloads.cpu_clock``), at reference
#: host speed (see ``hostspeed``); the wall-clock figures are per-layer
#: metrics of the traced run.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "sim_insts_per_cpu_s": "1/s",
    "braid_insts_per_cpu_s": "1/s",
    "jobs_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's outputs in reference.json")
    # one service pass in a fresh interpreter (used by the runner itself)
    parser.add_argument("--child", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("--run-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment(run_dir: Path) -> None:
    """Clear every REPRO_* knob; fresh cache/store/progress/temp dirs."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name, sub in (("REPRO_CACHE_DIR", "cache"),
                      ("REPRO_SERVICE_DIR", "service"),
                      ("REPRO_PROGRESS_DIR", "progress"),
                      ("TMPDIR", "tmp")):
        path = run_dir / sub
        path.mkdir(parents=True, exist_ok=True)
        os.environ[name] = str(path)
    tempfile.tempdir = None


def host_record() -> Dict:
    """nproc, Python version, 1-minute load average, and the CPU seconds
    the calibration loop takes now (tells host drift from a change)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load1": os.getloadavg()[0],
        "calibration_s": round(hostspeed.calibrate(), 4),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class NullTracer:
    enabled = False

    def span(self, name, cell=None, **attrs):
        from contextlib import nullcontext

        return nullcontext({})

    def flush(self):
        pass


class Runner:
    """One workload run: set-up, warm-up, timed passes, checks, metrics."""

    def __init__(self, args, run_dir: Path) -> None:
        import workloads

        self.args = args
        self.run_dir = run_dir
        self.sizes = workloads.SMOKE if args.smoke else workloads.FULL
        self.trace_dir = run_dir / "spans"
        self.tracer = NullTracer()
        self.meter = None
        if args.trace:
            import layers
            from spans import Tracer

            self.tracer = Tracer(self.trace_dir)
            layers.install(self.tracer)
        else:
            self.meter = hostspeed.Meter(run_dir / "chunks")
            self.meter.install()
        self.setups: List[float] = []
        #: CPU seconds of each calibration, in the order they ran
        self.calibrations: List[float] = []
        self.untraced = []
        self.passes = []
        self._count = 0

    # -------------------------------------------------------------- passes
    def _fresh(self, name: str) -> Path:
        self._count += 1
        return self.run_dir / f"{name}-{self._count}"

    def _calibrate(self) -> float:
        seconds = hostspeed.calibrate()
        self.calibrations.append(seconds)
        return seconds

    def _service_child(self, smoke: bool, traced: bool):
        """One service pass in a fresh interpreter; returns its result."""
        import workloads

        out = self._fresh("service-result.json")
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", "service", "--seed", str(self.args.seed),
            "--trace", "1" if traced else "0",
            "--child", str(out), "--run-dir", str(self._fresh("service")),
        ]
        if smoke:
            command.append("--smoke")
        subprocess.run(command, check=True, timeout=170)
        return workloads.PassResult(**json.loads(out.read_text()))

    def setup(self) -> None:
        import workloads

        seed, sizes = self.args.seed, self.sizes
        workload = self.args.workload
        before = self._calibrate()
        if workload == "kernel":
            for _ in range(sizes.kernel_setups):
                with self.tracer.span("setup"):
                    began = workloads.cpu_clock()
                    self.prepared = workloads.kernel_setup(seed, sizes)
                    cpu = workloads.cpu_clock() - began
                after = self._calibrate()
                self.setups.append(cpu * hostspeed.scale(before, after))
                before = after
            with self.tracer.span("warmup"):
                workloads.kernel_warmup(self.prepared)
        elif workload == "figure_sweep":
            self.names = workloads.sweep_programs(seed, sizes)
            for _ in range(sizes.setup_repeats):
                cpu = workloads.sweep_cold_setup(
                    self._fresh("setup-cache"), self.names
                )
                after = self._calibrate()
                self.setups.append(cpu * hostspeed.scale(before, after))
                before = after
            with self.tracer.span("warmup"):
                workloads.sweep_pass(
                    self.names[:1], self._fresh("warmup-cache"),
                    workloads.SMOKE, self.tracer,
                )
        else:
            # warm-up: a smoke-sized pass (service set-up is timed in
            # every pass's fresh interpreter)
            self._service_child(smoke=True, traced=False)

    def one_pass(self, traced: bool):
        import workloads

        self.tracer.enabled = traced
        workload = self.args.workload
        if workload == "service":
            result = self._service_child(self.args.smoke, traced)
            self.setups.append(result.extra["setup"])
            self.calibrations.append(result.extra["calibration"])
            return result
        with self.tracer.span("pass"):
            if workload == "kernel":
                return workloads.kernel_pass(self.prepared, self.meter)
            return workloads.sweep_pass(
                self.names, self._fresh("cache"), self.sizes, self.tracer,
                self.meter,
            )

    def measure(self) -> None:
        """Timed passes until ``--seconds`` is (about) used up.

        A traced run first makes one untraced pass, so that it can state
        the tracing overhead.
        """
        started = time.perf_counter()
        if self.args.trace:
            self.untraced.append(self.one_pass(traced=False))
        while True:
            self.passes.append(self.one_pass(traced=bool(self.args.trace)))
            done = self.untraced + self.passes
            mean = statistics.mean(p.wall for p in done)
            if time.perf_counter() - started + mean / 2 >= self.args.seconds:
                break
        self.tracer.enabled = False

    # -------------------------------------------------------------- checks
    def check(self) -> List[str]:
        """One message per failed operation, first differing cell first."""
        errors: List[str] = []
        runs = self.untraced + self.passes
        first = runs[0]
        for index, result in enumerate(runs):
            errors.extend(result.errors)
            if index == 0:
                continue
            for label, cell in result.cells.items():
                if first.cells.get(label) != cell:
                    errors.append(
                        f"pass {index + 1} differs from pass 1 at {label}: "
                        f"{first.cells.get(label)} != {cell}"
                    )
        reference = load_reference()
        expected = reference.get(self.args.workload, {}).get(
            self.reference_key()
        )
        if expected is not None:
            errors.extend(compare(expected, first.cells))
        return errors

    def reference_key(self) -> str:
        return f"{self.args.seed}{'-smoke' if self.args.smoke else ''}"

    # ------------------------------------------------------------- metrics
    def end_to_end(self) -> Dict[str, float]:
        """Each metric is the median over the passes of that pass's figure,
        so one pass slowed by the host moves none of them."""

        def median(figure) -> float:
            return statistics.median(figure(p) for p in self.passes)

        return {
            "setup_s": statistics.median(self.setups),
            "cpu_s": median(lambda p: p.cpu * p.scale),
            "sim_insts_per_cpu_s": median(
                lambda p: p.insts / (p.cpu * p.scale)
            ),
            "braid_insts_per_cpu_s": median(
                lambda p: p.braid_insts / (p.braid_cpu * p.scale)
            ),
            "jobs_per_cpu_s": median(
                lambda p: len(p.latencies) / (p.cpu * p.scale)
            ),
            "peak_rss_mb": peak_rss_mb(),
        }

    def wall_clock(self) -> Dict[str, float]:
        """The untraced pass's wall-clock figures (traced run only): what
        a user waits for, kept without a bound because other tenants of a
        shared host stretch them by up to 1.6x."""
        plain = self.untraced[0]
        return {
            "wall.pass_s": plain.wall,
            "wall.jobs_per_s": len(plain.latencies) / plain.wall,
            "wall.job_latency_p50_s": statistics.median(plain.latencies),
            "wall.job_latency_p90_s": statistics.quantiles(
                plain.latencies, n=10, method="inclusive"
            )[8],
        }

    def per_layer(self) -> Dict[str, float]:
        from spans import read_spans
        from tracereport import per_layer

        self.tracer.flush()
        untraced_wall = statistics.median(p.wall for p in self.untraced)
        metrics = per_layer(
            self.args.workload, read_spans(self.trace_dir), self.passes,
            untraced_wall,
        )
        metrics["host.calibration_s"] = statistics.median(self.calibrations)
        metrics.update(self.wall_clock())
        metrics.update(self.figure_checks())
        return metrics

    def figure_checks(self) -> Dict[str, float]:
        """Untimed, after the passes (figure_sweep only).

        ``sampling.ipc_err_pct_max``: largest |sampled / exact IPC - 1| over
        the F13 cells, in %.  This is error against the exact tier, not
        against hardware: the model is not validated against a real
        machine.

        ``obs.observer_cost_pct``: the CS slice's cells run back to back
        with and without an Observer in this process.  Comparing the CS
        cells with the F13 cells of the pass would mix in the pool's
        two-worker contention.
        """
        if self.args.workload != "figure_sweep":
            return {"sampling.ipc_err_pct_max": 0.0,
                    "obs.observer_cost_pct": 0.0}
        import workloads
        from repro.obs import Observer

        ctx = workloads.sweep_context(
            self._fresh("check-cache"), self.names, self.sizes
        )
        worst = 0.0
        for name in self.names:
            for key, config, braided in workloads.F13_POINTS:
                exact = workloads.run.simulate(
                    ctx.workload(name, braided=braided), config,
                    fidelity="exact",
                )
                sampled = self.passes[0].cells[f"F13:{name}/{key}"]
                worst = max(worst, abs(sampled["ipc"] / exact.ipc - 1.0))
        seconds = {False: 0.0, True: 0.0}
        for descriptor in workloads.core_registry().values():
            workload = ctx.workload(self.names[0], braided=descriptor.braided)
            config = descriptor.config_factory(workloads.WIDTH)
            for observed in (False, True):
                began = time.perf_counter()
                workloads.run.simulate(
                    workload, config, sampling=ctx.sampling,
                    observe=Observer(cpi=True) if observed else None,
                )
                seconds[observed] += time.perf_counter() - began
        return {
            "sampling.ipc_err_pct_max": 100.0 * worst,
            "obs.observer_cost_pct": 100.0 * (seconds[True] / seconds[False]
                                              - 1.0),
        }


def load_reference() -> Dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def compare(expected: Dict, actual: Dict) -> List[str]:
    """Mismatches against the reference, naming cell and field."""
    errors = []
    for label in sorted(set(expected) | set(actual)):
        want, got = expected.get(label), actual.get(label)
        if want is None or got is None:
            errors.append(f"reference mismatch at {label}: "
                          f"expected {want}, got {got}")
            continue
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                errors.append(
                    f"reference mismatch at {label} field {name}: "
                    f"expected {want.get(name)}, got {got.get(name)}"
                )
                break
    return errors


def write_reference(workload: str, key: str, cells: Dict) -> None:
    reference = load_reference()
    reference.setdefault(workload, {})[key] = cells
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")


def child_main(args) -> int:
    """One service pass (``--child OUT``): write its result as JSON."""
    import workloads

    run_dir = Path(args.run_dir)
    # every pass starts cold: its own artifact cache, store and progress dir
    for name, sub in (("REPRO_CACHE_DIR", "cache"),
                      ("REPRO_SERVICE_DIR", "service"),
                      ("REPRO_PROGRESS_DIR", "progress")):
        os.environ[name] = str(run_dir / sub)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tracer = NullTracer()
    meter = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer(run_dir.parent / "spans")
        layers.install(tracer)
    else:
        meter = hostspeed.Meter(run_dir / "chunks")
        meter.install()
    result = workloads.service_pass(args.seed, run_dir, sizes, tracer, meter)
    tracer.flush()
    Path(args.child).write_text(json.dumps(asdict(result)))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        return child_main(args)

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    pin_environment(run_dir)
    try:
        host = {"start": host_record()}
        runner = Runner(args, run_dir)
        runner.setup()
        runner.measure()
        errors = runner.check()
        if args.trace:
            from tracereport import PER_LAYER

            metrics = runner.per_layer()
            units = PER_LAYER
        else:
            metrics = runner.end_to_end()
            units = END_TO_END
        host["end"] = host_record()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    passes = runner.untraced + runner.passes
    attempted = sum(p.operations for p in passes)
    failed = min(len(errors), attempted)
    report(args, host, passes, metrics, units, errors, attempted, failed)
    if args.write_reference and not errors:
        write_reference(args.workload, runner.reference_key(),
                        passes[0].cells)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if not errors else 1


def report(args, host, passes, metrics, units, errors, attempted,
           failed) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} "
          f"host={json.dumps(host, sort_keys=True)}")
    for name in units:
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(f"  job latency samples per pass n={len(passes[-1].latencies)}")
    print(f"  failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
    for message in errors[:10]:
        print(f"  FAILED: {message}")


if __name__ == "__main__":
    sys.exit(main())
