"""In-memory wall-clock spans for the traced benchmark run.

A span records its name, start, end, parent span and a cell or job id.
Spans stay in memory and are written out as JSON lines, one file per
process, under the run's trace directory:

* the process that owns the tracer writes its file in :meth:`Tracer.flush`;
* a forked child (sweep pool worker, hardened service worker) starts with
  an empty span list, remembers the span that was open in its parent when
  it forked (``forked_from``), and appends its spans to its own file each
  time its outermost span closes, because pool workers never run an exit
  hook the benchmark could rely on.

Nothing here imports the simulator; :mod:`layers` installs the wrappers
that open spans around the calls into each layer.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple


class Tracer:
    """Span recorder for one process (and, after fork, for each child)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.enabled = True
        self._reset(forked_from=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, forked_from: Optional[str]) -> None:
        self.pid = os.getpid()
        # pid plus a clock tick keeps ids unique when the OS reuses a pid
        self._prefix = f"{self.pid}.{time.monotonic_ns()}"
        self._ids = itertools.count()
        self.spans: List[Dict] = []
        self._stack: List[Dict] = []
        self.forked_from = forked_from
        self._owner = forked_from is None

    def _after_fork(self) -> None:
        parent = self._stack[-1]["id"] if self._stack else self.forked_from
        self._reset(forked_from=parent)

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None, **attrs):
        """Record one span; yields its attribute dict for results."""
        if not self.enabled:
            yield {}
            return
        record = {
            "id": f"{self._prefix}.{next(self._ids)}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": self.pid,
            "cell": cell,
            "attrs": dict(attrs),
        }
        if record["parent"] is None and self.forked_from is not None:
            record["forked_from"] = self.forked_from
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)
            if not self._stack and not self._owner:
                self.flush()

    def flush(self) -> None:
        """Append the spans recorded so far to this process's file."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.spans = []


def read_spans(out_dir: Path) -> List[Dict]:
    """Every span written under ``out_dir`` by any process."""
    spans: List[Dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def duration(span: Dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span id -> its duration minus the time its child spans cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"]) if span["parent"] else None
        if parent is not None:
            children.setdefault(parent["id"], []).append((
                max(span["start"], parent["start"]),
                min(span["end"], parent["end"]),
            ))
    return {
        span["id"]: duration(span) - _covered(children.get(span["id"], ()))
        for span in spans
    }


def root_of(spans: List[Dict]) -> Dict[str, Dict]:
    """Span id -> the root of its tree, following fork links across
    processes (a forked worker's root points at the span open in its
    parent when it forked)."""
    by_id = {span["id"]: span for span in spans}
    roots: Dict[str, Dict] = {}

    def find(span: Dict) -> Dict:
        chain = []
        node = span
        while True:
            if node["id"] in roots:
                top = roots[node["id"]]
                break
            chain.append(node)
            link = node["parent"] or node.get("forked_from")
            if link is None or link not in by_id:
                top = node
                break
            node = by_id[link]
        for visited in chain:
            roots[visited["id"]] = top
        return top

    for span in spans:
        find(span)
    return roots
