"""The one worker engine (repro.harness.parallel) under failure.

Fault-injection campaigns run tasks that are *expected* to wedge or kill
their workers; these tests drive ``run_tasks_hardened`` through every
failure mode it guarantees against — worker death, wall-clock timeouts,
exceptions escaping the task function.  Sweeps run on the same engine:
``run_point_groups_parallel`` must survive a dead worker with results
equal to the serial path, and fail loudly, naming the task, when a group
raises.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.harness import parallel
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.harness.parallel import (
    TaskOutcome,
    run_point_groups_parallel,
    run_tasks_hardened,
)
from repro.harness.sweep import SweepPoint
from repro.sim import inorder_config, ooo_config


def _has_fork() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(
    not _has_fork(), reason="requires the fork start method"
)
# With one CPU the engine runs tasks in-process, where a task that kills
# its worker would kill the test runner instead.
needs_workers = pytest.mark.skipif(
    not _has_fork() or (os.cpu_count() or 1) < 2,
    reason="requires the fork start method and two CPUs",
)


# Worker functions live at module level so every start method can reach
# them; cross-process state goes through flag files under the payload dir.

def _double(payload):
    return payload * 2


def _raise_value_error(payload):
    raise ValueError(f"boom on {payload}")


def _raise_os_error(payload):
    raise OSError(f"transient infra failure on {payload}")


def _die_immediately(payload):
    os._exit(11)


def _die_first_attempt(payload):
    """Kill the worker on the first attempt, succeed on retries."""
    flag = payload + ".seen"
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8"):
            pass
        os._exit(13)
    return "recovered"


def _sleep_forever(payload):
    time.sleep(600)


class TestSerialPath:
    def test_ok_results_in_task_order(self):
        outcomes = run_tasks_hardened(
            _double, [("a", 1), ("b", 2), ("c", 3)], jobs=1
        )
        assert [o.task_id for o in outcomes] == ["a", "b", "c"]
        assert [o.result for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_permanent_exception_fails_fast(self):
        # A ValueError is a *task* error, not an infrastructure failure:
        # the retry policy classifies it permanent and retrying would
        # just repeat it, so the task quarantines after one attempt.
        outcomes = run_tasks_hardened(
            _raise_value_error, [("a", 1)], jobs=1, max_attempts=3
        )
        outcome = outcomes[0]
        assert outcome.status == "quarantined" and not outcome.ok
        assert outcome.permanent
        assert outcome.attempts == 1
        assert len(outcome.failures) == 1
        assert "ValueError" in outcome.error

    def test_retryable_exception_retried_then_quarantined(self):
        outcomes = run_tasks_hardened(
            _raise_os_error, [("a", 1)], jobs=1, max_attempts=3,
            backoff=0.01,
        )
        outcome = outcomes[0]
        assert outcome.status == "quarantined" and not outcome.ok
        assert not outcome.permanent
        assert outcome.attempts == 3
        assert len(outcome.failures) == 3
        assert "OSError" in outcome.error

    def test_quarantine_does_not_abort_later_tasks(self):
        outcomes = run_tasks_hardened(
            lambda p: _raise_value_error(p) if p == 1 else p,
            [("bad", 1), ("good", 2)],
            jobs=1, max_attempts=2,
        )
        assert not outcomes[0].ok
        assert outcomes[1].ok and outcomes[1].result == 2

    def test_on_result_fires_once_per_task(self):
        settled = []
        run_tasks_hardened(
            _double, [("a", 1), ("b", 2)], jobs=1, on_result=settled.append
        )
        assert [o.task_id for o in settled] == ["a", "b"]
        assert all(isinstance(o, TaskOutcome) for o in settled)

    def test_empty_task_list(self):
        assert run_tasks_hardened(_double, [], jobs=4) == []


@needs_fork
class TestHardenedWorkers:
    def test_parallel_ok_path(self):
        outcomes = run_tasks_hardened(
            _double, [(str(i), i) for i in range(6)], jobs=2, timeout=30.0
        )
        assert [o.result for o in outcomes] == [0, 2, 4, 6, 8, 10]
        assert all(o.ok for o in outcomes)

    def test_dead_worker_does_not_lose_completed_work(self):
        tasks = [("ok-1", 1), ("fatal", 2), ("ok-2", 3)]

        def fn(payload):
            if payload == 2:
                os._exit(11)
            return payload * 2

        outcomes = run_tasks_hardened(
            fn, tasks, jobs=2, timeout=30.0, max_attempts=2, backoff=0.05
        )
        by_id = {o.task_id: o for o in outcomes}
        assert by_id["ok-1"].ok and by_id["ok-1"].result == 2
        assert by_id["ok-2"].ok and by_id["ok-2"].result == 6
        fatal = by_id["fatal"]
        assert fatal.status == "quarantined"
        assert fatal.attempts == 2
        assert "worker died mid-task" in fatal.error

    def test_worker_death_retries_with_fresh_worker(self, tmp_path):
        payload = str(tmp_path / "attempt")
        outcomes = run_tasks_hardened(
            _die_first_attempt, [("t", payload)],
            jobs=2, timeout=30.0, max_attempts=3, backoff=0.05,
        )
        outcome = outcomes[0]
        assert outcome.ok and outcome.result == "recovered"
        assert outcome.attempts == 2
        assert len(outcome.failures) == 1
        assert "worker died" in outcome.failures[0]

    def test_wall_clock_timeout_kills_and_quarantines(self):
        started = time.monotonic()
        outcomes = run_tasks_hardened(
            _sleep_forever, [("stuck", None)],
            jobs=2, timeout=1.0, max_attempts=1,
        )
        elapsed = time.monotonic() - started
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert "timeout" in outcome.error
        assert elapsed < 30.0  # the watchdog, not the sleep, ended the task

    def test_incremental_delivery_under_failures(self):
        settled = []

        def fn(payload):
            if payload == "die":
                os._exit(9)
            return payload

        run_tasks_hardened(
            fn, [("a", "x"), ("b", "die"), ("c", "y")],
            jobs=2, timeout=30.0, max_attempts=1, on_result=settled.append,
        )
        assert sorted(o.task_id for o in settled) == ["a", "b", "c"]


@needs_workers
class TestSweepOnHardenedWorkers:
    """run_point_groups_parallel on forked workers; ``_run_group`` is
    patched before the call, so the workers fork with the patch."""

    @staticmethod
    def _context():
        return ExperimentContext(
            benchmarks=("gcc",), max_instructions=20_000, jobs=2,
            cache=ArtifactCache(enabled=False),
        )

    GROUPS = [
        [SweepPoint("gcc", ooo_config(8))],
        [SweepPoint("gcc", inorder_config(8))],
    ]

    def test_dead_worker_is_retried_with_serial_results(
        self, monkeypatch, capsys
    ):
        real_run_group = parallel._run_group

        def die_on_first_inorder_attempt(points):
            if (
                points[0].config.name == inorder_config(8).name
                and os.environ.get("REPRO_TASK_ATTEMPT") == "1"
            ):
                os._exit(17)
            return real_run_group(points)

        monkeypatch.setattr(
            parallel, "_run_group", die_on_first_inorder_attempt
        )
        monkeypatch.setattr(parallel, "_NOTED", set())
        context = self._context()
        results = run_point_groups_parallel(context, self.GROUPS, jobs=2)
        note = capsys.readouterr().err
        assert f"1:gcc on {inorder_config(8).name}" in note
        assert "worker died mid-task" in note
        assert [[r.cycles for r in group] for group in results] == [
            [context.run("gcc", ooo_config(8)).cycles],
            [context.run("gcc", inorder_config(8)).cycles],
        ]
        assert parallel._SWEEP_CONTEXT is None

    def test_task_error_fails_the_sweep_after_one_attempt(
        self, monkeypatch
    ):
        real_run_group = parallel._run_group

        def raise_on_inorder(points):
            if points[0].config.name == inorder_config(8).name:
                raise ValueError("bad sweep cell")
            return real_run_group(points)

        monkeypatch.setattr(parallel, "_run_group", raise_on_inorder)
        with pytest.raises(RuntimeError) as raised:
            run_point_groups_parallel(self._context(), self.GROUPS, jobs=2)
        message = str(raised.value)
        assert f"1:gcc on {inorder_config(8).name}" in message
        assert "attempt 1: ValueError: bad sweep cell" in message
        assert parallel._SWEEP_CONTEXT is None
