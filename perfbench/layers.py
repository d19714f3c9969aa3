"""Layer spans for the traced benchmark run, recorded from outside the program.

The program has no tracing of its own, so this module wraps the public
entry point of each layer (see ``TARGETS``) and records one span per call:
layer, name, process, start and end on the shared monotonic clock, the
enclosing span, and a few counts taken at the same boundary (events
replayed, bytes written, store hits).  Spans stay in memory and are written
out once: by the workload process when it ends, and by every forked grid
worker when its wrapped ``run_cells`` returns (workers leave through
``os._exit``, so nothing later in them would run).

A forked worker inherits the parent's buffer and open-span stack; both are
reset the first time a wrapper runs under a new pid, so each process
reports only its own spans.

:func:`layer_metrics` turns the merged spans into the per-layer metrics of
``BENCHMARK.json``; :func:`chrome_trace` into a trace-event file that
opens in Perfetto.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: (module, attribute, layer).  ``Class.method`` attributes are patched on
#: the class; plain functions at every module that imported them.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.workloads.mibench", "load_benchmark", "workloads"),
    ("repro.trace.executor", "CfgWalker.walk", "trace.executor"),
    ("repro.trace.fetch", "line_events_from_block_trace", "trace.fetch"),
    ("repro.profiling.profiler", "profile_block_trace", "profiling"),
    ("repro.layout.placement", "make_layout", "layout"),
    ("repro.layout.conflict_aware", "conflict_aware_layout", "layout.conflict_aware"),
    ("repro.engine.store", "TraceStore.load_profile", "engine.store.load"),
    ("repro.engine.store", "TraceStore.load_block_trace", "engine.store.load"),
    ("repro.engine.store", "TraceStore.load_events", "engine.store.load"),
    ("repro.engine.store", "TraceStore.save_profile", "engine.store.save"),
    ("repro.engine.store", "TraceStore.save_block_trace", "engine.store.save"),
    ("repro.engine.store", "TraceStore.save_events", "engine.store.save"),
    ("repro.engine.plane", "TraceArena.publish_events", "engine.plane.publish"),
    ("repro.engine.plane", "TraceArena.publish_block_trace", "engine.plane.publish"),
    ("repro.engine.plane", "PlaneClient.events", "engine.plane.attach"),
    ("repro.engine.plane", "PlaneClient.block_trace", "engine.plane.attach"),
    ("repro.engine.kernels", "fast_counters", "engine.kernels"),
    ("repro.engine.batch", "batch_counters", "engine.batch"),
    ("repro.engine.differential", "differential_counters", "engine.differential"),
    ("repro.schemes.base", "FetchScheme.run", "schemes"),
    ("repro.sim.simulator", "Simulator.run_events", "sim"),
    ("repro.sim.simulator", "Simulator.price", "sim"),
    ("repro.experiments.figures", "figure4", "experiments"),
    ("repro.experiments.figures", "figure5", "experiments"),
    ("repro.experiments.runner", "ExperimentRunner.run_grid", "experiments"),
    ("repro.experiments.runner", "ExperimentRunner.report", "experiments"),
    ("repro.experiments.runner", "ExperimentRunner.report_family", "experiments"),
    ("repro.resilience.journal", "ResumeJournal.record", "resilience.journal"),
    ("repro.resilience.journal", "ResumeJournal.flush", "resilience.journal"),
    ("repro.resilience.supervisor", "supervise_grid", "resilience.supervisor"),
    ("repro.resilience.backends", "LocalBackend.run", "resilience.supervisor.wait"),
    # Layer chosen per process: "workers" in a grid worker, where it is the
    # root span, and "resilience.supervisor" in the workload process.
    ("repro.resilience.supervisor", "run_cells", "workers"),
)

#: Every layer a span can carry, in report order; "root" is the workload
#: process itself and "startup" its ``import repro.cli``.
LAYERS: Tuple[str, ...] = (
    "startup",
    "workloads",
    "trace.executor",
    "trace.fetch",
    "profiling",
    "layout",
    "layout.conflict_aware",
    "engine.store.load",
    "engine.store.save",
    "engine.plane.publish",
    "engine.plane.attach",
    "engine.kernels",
    "engine.batch",
    "engine.differential",
    "schemes",
    "sim",
    "experiments",
    "resilience.journal",
    "resilience.supervisor",
    "resilience.supervisor.wait",
    "workers",
    "root",
)

# A span: [layer, name, pid, start_ns, end_ns, id, parent_id, counts].
Span = List[Any]


def _entry_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(child.stat().st_size for child in path.iterdir() if child.is_file())
    return path.stat().st_size


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


class Tracer:
    """Span buffer of one process, re-armed in each forked worker."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    def _own(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._spans = []
            self._stack = []
            self._next_id = 0

    def begin(self, layer: str, name: str) -> Span:
        self._own()
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        now = time.perf_counter_ns()
        span: Span = [layer, name, self._pid, now, 0, self._next_id, parent, None]
        self._spans.append(span)
        self._stack.append(self._next_id)
        return span

    def end(self, span: Span, counts: Optional[Dict[str, float]] = None) -> None:
        span[4] = time.perf_counter_ns()
        span[7] = counts
        if self._stack and self._stack[-1] == span[5]:
            self._stack.pop()

    def flush(self, tag: str) -> None:
        """Write this process's spans to ``span_dir`` and clear the buffer."""
        self.span_dir.mkdir(parents=True, exist_ok=True)
        path = self.span_dir / f"spans-{tag}-{self._pid}.json"
        path.write_text(json.dumps(self._spans))
        self._spans = []

    def in_worker(self) -> bool:
        return os.getpid() != self.root_pid

    # -- wrappers ---------------------------------------------------------
    def wrap(self, layer: str, name: str, func: Callable) -> Callable:
        counts_for = _COUNTS.get(name)

        if name == "run_cells":

            @functools.wraps(func)
            def run_cells(*args: Any, **kwargs: Any) -> Any:
                worker = self.in_worker()
                span = self.begin("workers" if worker else "resilience.supervisor", name)
                try:
                    return func(*args, **kwargs)
                finally:
                    self.end(span)
                    if worker:
                        self.flush("worker")

            return run_cells

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = counts_for.before(args) if counts_for else None
            span = self.begin(layer, name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                call = _Call(args, kwargs, result, before)
                self.end(span, counts_for.after(call) if counts_for else None)

        return wrapper


class _Call(NamedTuple):
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    result: Any
    before: Any

    def arg(self, index: int, key: str) -> Any:
        return self.args[index] if len(self.args) > index else self.kwargs.get(key)


class _Counts(NamedTuple):
    """Counts read at one boundary: ``before`` the call and ``after`` it."""

    after: Callable[[_Call], Dict[str, float]]
    before: Callable[[Tuple[Any, ...]], Any] = lambda args: None


def _saved(call: _Call) -> Dict[str, float]:
    return {"bytes": float(_entry_bytes(Path(call.result))) if call.result is not None else 0.0}


def _loaded(call: _Call) -> Dict[str, float]:
    return {"hit": 1.0 if call.result is not None else 0.0}


def _published(call: _Call) -> Dict[str, float]:
    payload = call.arg(2, "events")
    if payload is None:
        payload = call.arg(2, "trace")
    arrays = ("line_addrs", "counts", "slots") if hasattr(payload, "line_addrs") else ("uids",)
    nbytes = sum(int(getattr(payload, name).nbytes) for name in arrays)
    return {"segments": float(call.result or 0), "bytes": float(nbytes if call.result else 0)}


def _plane_outcomes(args: Tuple[Any, ...]) -> Tuple[int, int]:
    return args[0].attached, args[0].degraded


def _attached(call: _Call) -> Dict[str, float]:
    attached, degraded = _plane_outcomes(call.args)
    return {
        "attached": float(attached - call.before[0]),
        "degraded": float(degraded - call.before[1]),
    }


def _replayed(call: _Call) -> Dict[str, float]:
    events = call.arg(1, "events")
    return {"events": float(events.num_events) if events is not None else 0.0}


def _family(call: _Call) -> Dict[str, float]:
    return {"cells": float(len(call.arg(2, "members")))}


def _journal_size(args: Tuple[Any, ...]) -> int:
    return _file_size(args[0].path)


def _journal_flush(call: _Call) -> Dict[str, float]:
    return {"bytes": float(_journal_size(call.args) - call.before)}


def _incidents(call: _Call) -> Dict[str, float]:
    return {"incidents": float(len(getattr(call.args[0], "last_failures", ()) or ()))}


_COUNTS: Dict[str, _Counts] = {
    "TraceStore.load_profile": _Counts(_loaded),
    "TraceStore.load_block_trace": _Counts(_loaded),
    "TraceStore.load_events": _Counts(_loaded),
    "TraceStore.save_profile": _Counts(_saved),
    "TraceStore.save_block_trace": _Counts(_saved),
    "TraceStore.save_events": _Counts(_saved),
    "TraceArena.publish_events": _Counts(_published),
    "TraceArena.publish_block_trace": _Counts(_published),
    "PlaneClient.events": _Counts(_attached, _plane_outcomes),
    "PlaneClient.block_trace": _Counts(_attached, _plane_outcomes),
    "fast_counters": _Counts(_replayed),
    "FetchScheme.run": _Counts(_replayed),
    "batch_counters": _Counts(_family),
    "differential_counters": _Counts(_family),
    "ResumeJournal.flush": _Counts(_journal_flush, _journal_size),
    "supervise_grid": _Counts(_incidents),
}


def install(tracer: Tracer) -> None:
    """Wrap every target.

    A plain function is replaced at *every* loaded module that holds it
    (``repro.experiments.runner.load_benchmark`` as well as
    ``repro.workloads.mibench.load_benchmark``), so call sites that
    imported the name directly see the wrapper too.
    """
    for module_name, attribute, layer in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            setattr(owner, method, tracer.wrap(layer, attribute, owner.__dict__[method]))
            continue
        original = getattr(module, attribute)
        wrapper = tracer.wrap(layer, attribute, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name.startswith("repro"):
                for name, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, name, wrapper)


# ---------------------------------------------------------------------------
# Aggregation (runs in run.py, after the traced run)
# ---------------------------------------------------------------------------
def load_spans(span_dir: Path) -> List[Span]:
    spans: List[Span] = []
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its direct children's, in seconds."""
    children: Dict[Tuple[int, int], int] = {}
    for span in spans:
        if span[6]:
            key = (span[2], span[6])
            children[key] = children.get(key, 0) + (span[4] - span[3])
    return [
        max(0, (span[4] - span[3]) - children.get((span[2], span[5]), 0)) / 1e9
        for span in spans
    ]


def layer_metrics(
    spans: Sequence[Span],
    root_pid: int,
    cells: int,
    jobs: int,
) -> Tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Per-layer metrics over every process, plus the parent/worker split.

    Returns ``(metrics, split)``: ``metrics`` holds the ``per_layer``
    values of ``BENCHMARK.json`` (``trace.overhead_s`` is added by the
    run.py, which times both runs); ``split`` maps ``"parent"`` and
    ``"workers"`` to self seconds per layer, where the parent's entries
    (``root`` being ``unattributed_s``) sum to its wall time.
    """
    selfs = self_times(spans)
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    split: Dict[str, Dict[str, float]] = {"parent": {}, "workers": {}}
    totals: Dict[str, float] = {}
    busy_s = 0.0
    wait_wall_s = 0.0
    parent_wall_s = 0.0
    worker_pids = set()
    journal_records = journal_flushes = 0
    for span, own in zip(spans, selfs):
        layer, name, pid = span[0], span[1], span[2]
        calls[layer] += 1
        self_s[layer] += own
        side = split["parent" if pid == root_pid else "workers"]
        side[layer] = side.get(layer, 0.0) + own
        for key, value in (span[7] or {}).items():
            total_key = f"{layer}.{key}"
            totals[total_key] = totals.get(total_key, 0.0) + value
        duration = (span[4] - span[3]) / 1e9
        if layer == "workers":
            busy_s += duration
            worker_pids.add(pid)
        elif layer == "resilience.supervisor.wait":
            wait_wall_s += duration
        elif layer == "root":
            parent_wall_s += duration
        if name == "ResumeJournal.record":
            journal_records += 1
        elif name == "ResumeJournal.flush":
            journal_flushes += 1

    def total(key: str) -> float:
        return totals.get(key, 0.0)

    loads = calls["engine.store.load"]
    hits = total("engine.store.load.hit")
    kernel_events = total("engine.kernels.events")
    scheme_events = total("schemes.events")
    family_cells = total("engine.batch.cells") + total("engine.differential.cells")
    metrics: Dict[str, float] = {
        "startup.import_s": self_s["startup"],
        "workloads.calls": calls["workloads"],
        "workloads.self_s": self_s["workloads"],
        "trace.executor.calls": calls["trace.executor"],
        "trace.executor.self_s": self_s["trace.executor"],
        "trace.fetch.calls": calls["trace.fetch"],
        "trace.fetch.self_s": self_s["trace.fetch"],
        "profiling.calls": calls["profiling"],
        "profiling.self_s": self_s["profiling"],
        "layout.calls": calls["layout"],
        "layout.self_s": self_s["layout"],
        "layout.conflict_aware.calls": calls["layout.conflict_aware"],
        "layout.conflict_aware.self_s": self_s["layout.conflict_aware"],
        "engine.store.hits": hits,
        "engine.store.misses": loads - hits,
        "engine.store.hit_ratio": hits / loads if loads else 0.0,
        "engine.store.load_s": self_s["engine.store.load"],
        "engine.store.save_s": self_s["engine.store.save"],
        "engine.store.bytes_written": total("engine.store.save.bytes"),
        "engine.plane.publish_s": self_s["engine.plane.publish"],
        "engine.plane.segments": total("engine.plane.publish.segments"),
        "engine.plane.bytes": total("engine.plane.publish.bytes"),
        "engine.plane.attached": total("engine.plane.attach.attached"),
        "engine.plane.degraded": total("engine.plane.attach.degraded"),
        "engine.kernels.calls": calls["engine.kernels"],
        "engine.kernels.self_s": self_s["engine.kernels"],
        "engine.kernels.events_per_s": (
            kernel_events / self_s["engine.kernels"] if self_s["engine.kernels"] else 0.0
        ),
        "engine.batch.calls": calls["engine.batch"],
        "engine.batch.cells": total("engine.batch.cells"),
        "engine.batch.self_s": self_s["engine.batch"],
        "engine.differential.calls": calls["engine.differential"],
        "engine.differential.cells": total("engine.differential.cells"),
        "engine.differential.self_s": self_s["engine.differential"],
        "engine.family_share": family_cells / cells if cells else 0.0,
        "schemes.calls": calls["schemes"],
        "schemes.self_s": self_s["schemes"],
        "schemes.events_per_s": (
            scheme_events / self_s["schemes"] if self_s["schemes"] else 0.0
        ),
        "sim.calls": calls["sim"],
        "sim.self_s": self_s["sim"],
        "experiments.self_s": self_s["experiments"],
        "resilience.journal.records": journal_records,
        "resilience.journal.flushes": journal_flushes,
        "resilience.journal.bytes": total("resilience.journal.bytes"),
        "resilience.journal.self_s": self_s["resilience.journal"],
        "resilience.supervisor.self_s": self_s["resilience.supervisor"],
        "resilience.supervisor.wait_s": self_s["resilience.supervisor.wait"],
        "resilience.supervisor.workers": len(worker_pids),
        "resilience.supervisor.incidents": total("resilience.supervisor.incidents"),
        "workers.busy_s": busy_s,
        "workers.utilisation": busy_s / (jobs * wait_wall_s) if wait_wall_s else 0.0,
        "unattributed_s": self_s["root"],
        "trace.parent_wall_s": parent_wall_s,
    }
    return metrics, split


def chrome_trace(spans: Sequence[Span], root_pid: int) -> Dict[str, Any]:
    """Trace-event JSON (complete events, microseconds) for Perfetto."""
    origin = min((span[3] for span in spans), default=0)
    events: List[Dict[str, Any]] = []
    for pid in sorted({span[2] for span in spans}):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": pid,
                "args": {"name": "workload" if pid == root_pid else f"worker {pid}"},
            }
        )
    for span in spans:
        event = {
            "name": span[1],
            "cat": span[0],
            "ph": "X",
            "ts": (span[3] - origin) / 1000.0,
            "dur": (span[4] - span[3]) / 1000.0,
            "pid": span[2],
            "tid": span[2],
        }
        if span[7]:
            event["args"] = span[7]
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
