"""Wrap the calls into each layer of ``repro`` with tracer spans.

Only the traced run installs these wrappers, and only from here: no file
under ``src/`` changes.  A function is replaced in every loaded ``repro``
module that holds a reference to it, so ``from x import f`` bindings see
the wrapper too; a method is replaced on its class.  Forked workers
inherit the wrappers.

Span names carry the layer, named after its module (see README.md):

* ``phase1.generate`` / ``phase1.braidify`` — ``repro.workloads`` /
  ``repro.core``;
* ``phase1.prepare`` / ``phase1.decode`` / ``phase1.replay`` —
  ``repro.sim.workload`` with ``repro.sim.functional`` and ``repro.uarch``;
* ``sim.<core>`` / ``sampling.<core>`` / ``obs.<core>`` — one
  ``simulate`` call on the exact kernel, on the sampled tier, or with an
  Observer attached;
* ``harness.*`` — ``repro.harness`` (context, pool, artifact cache);
* ``service.*`` — ``repro.service`` (job store, journal, supervisor);
* ``faults.job`` — ``repro.faults`` campaigns run by service jobs.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys


def _replace_everywhere(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def wrap_function(module, attr: str, make) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, functools.wraps(original)(make(original)))


def _wrap_method(cls, attr: str, make) -> None:
    original = getattr(cls, attr)
    setattr(cls, attr, functools.wraps(original)(make(original)))


def install(tracer) -> None:
    """Install every layer wrapper; spans go to ``tracer``."""
    import repro.core.pipeline as pipeline
    import repro.faults as faults
    import repro.harness.context as context
    import repro.harness.parallel as parallel
    import repro.service.jobs as jobs
    import repro.service.supervisor  # noqa: F401  (binds execute_job, prepare)
    import repro.sim.run as run
    import repro.sim.workload as workload
    import repro.workloads.generator as generator
    from repro.harness.artifacts import ArtifactCache
    from repro.service.jobstore import JobStore
    from repro.service.journal import JsonlJournal
    from repro.sim.registry import descriptor_for

    span = tracer.span

    def plain(name):
        def make(original):
            def wrapper(*args, **kwargs):
                with span(name):
                    return original(*args, **kwargs)
            return wrapper
        return make

    def generate(original):
        def wrapper(profile):
            with span("phase1.generate", cell=profile.name):
                return original(profile)
        return wrapper

    def braidify(original):
        def wrapper(program, *args, **kwargs):
            with span("phase1.braidify", cell=program.name) as attrs:
                compilation = original(program, *args, **kwargs)
                attrs["braids"] = compilation.total_braids
                return compilation
        return wrapper

    def prepare(original):
        def wrapper(program, *args, **kwargs):
            with span("phase1.prepare", cell=program.name) as attrs:
                prepared = original(program, *args, **kwargs)
                attrs["insts"] = len(prepared)
                return prepared
        return wrapper

    def lazy(name, field):
        def make(original):
            def wrapper(self):
                if getattr(self, field) is not None:
                    return original(self)
                with span(name, cell=self.name):
                    return original(self)
            return wrapper
        return make

    def simulate(original):
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            key = descriptor_for(bound["config"].kind).key
            fidelity = bound.get("fidelity")
            if bound.get("observe") is not None:
                layer = "obs"
            elif fidelity == "sampled" or (
                fidelity is None and bound.get("sampling") is not None
            ):
                layer = "sampling"
            else:
                layer = "sim"
            cell = f"{bound['workload'].name}/{key}"
            with span(f"{layer}.{key}", cell=cell) as attrs:
                result = original(*args, **kwargs)
                attrs["insts"] = result.instructions
                attrs["cycles"] = result.cycles
                attrs["detail"] = result.extra.get(
                    "sample_detail_fraction", 1.0
                )
                return result
        return wrapper

    def pool(original):
        def wrapper(ctx, groups, jobs):
            with span("harness.parallel", workers=jobs):
                return original(ctx, groups, jobs)
        return wrapper

    def hardened(original):
        def wrapper(fn, tasks, jobs=1, **kwargs):
            with span("harness.hardened", workers=jobs):
                return original(fn, tasks, jobs=jobs, **kwargs)
        return wrapper

    def execute_job(original):
        def wrapper(payload):
            job_id, kind, _ = payload
            with span(f"service.job.{kind}", cell=job_id):
                return original(payload)
        return wrapper

    def put(original):
        def wrapper(self, key, value):
            with span("harness.artifacts.put") as attrs:
                original(self, key, value)
            try:
                attrs["bytes"] = os.path.getsize(self.path_for(key))
            except OSError:
                attrs["bytes"] = 0
        return wrapper

    wrap_function(generator, "generate", generate)
    wrap_function(pipeline, "braidify", braidify)
    wrap_function(workload, "prepare_workload", prepare)
    _wrap_method(workload.PreparedWorkload, "decode",
                 lazy("phase1.decode", "decoded"))
    _wrap_method(workload.PreparedWorkload, "replay",
                 lazy("phase1.replay", "replay_facts"))
    wrap_function(run, "simulate", simulate)
    _wrap_method(context.ExperimentContext, "workload",
                 plain("harness.workload"))
    _wrap_method(context.ExperimentContext, "run_many",
                 plain("harness.run_many"))
    wrap_function(parallel, "run_point_groups_parallel", pool)
    wrap_function(parallel, "run_tasks_hardened", hardened)
    _wrap_method(ArtifactCache, "put", put)
    wrap_function(jobs, "prepare", plain("service.prepare"))
    wrap_function(jobs, "execute_job", execute_job)
    _wrap_method(JobStore, "complete", plain("service.complete"))
    _wrap_method(JsonlJournal, "append", plain("service.journal"))
    wrap_function(faults, "run_campaign", plain("faults.job"))
