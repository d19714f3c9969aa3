"""Self-checks of the benchmark's layer tracing.

    python3 -m pytest perfbench/tests -q        (from the checkout root)

The slow test runs each workload traced once (about two minutes in all)
and requires every layer wrapper to fire on the workload that exercises
it most, so a rebinding that misses a call site fails here instead of
reporting zero.  The family-tier wrappers fire on no workload while the
default engine plans no families, so a small in-process grid drives them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

#: Every wrapped entry point and the workload it dominates (None: no
#: workload reaches it under the default engine; see the family test).
DOMINANT = {
    "load_benchmark": "fig5-warm",
    "CfgWalker.walk": "fig5-cold",
    "line_events_from_block_trace": "fig5-cold",
    "profile_block_trace": "fig5-cold",
    "make_layout": "fig5-warm",
    "conflict_aware_layout": "layout-ca",
    "TraceStore.load_profile": "fig5-warm",
    "TraceStore.load_block_trace": "fig5-warm",
    "TraceStore.load_events": "fig5-warm",
    "TraceStore.save_profile": "fig5-cold",
    "TraceStore.save_block_trace": "fig5-cold",
    "TraceStore.save_events": "fig5-cold",
    "TraceArena.publish_events": "fig5-warm",
    "TraceArena.publish_block_trace": "fig5-warm",
    "PlaneClient.events": "fig5-warm",
    "PlaneClient.block_trace": "fig5-warm",
    "fast_counters": "sweep-dense",
    "batch_counters": None,
    "differential_counters": None,
    "FetchScheme.run": "fig5-warm",
    "Simulator.run_events": "sweep-dense",
    "Simulator.price": "sweep-dense",
    "figure4": "layout-ca",
    "figure5": "fig5-warm",
    "ExperimentRunner.run_grid": "sweep-dense",
    "ExperimentRunner.report": "sweep-dense",
    "ExperimentRunner.report_family": None,
    "ResumeJournal.record": "sweep-dense",
    "ResumeJournal.flush": "sweep-dense",
    "supervise_grid": "sweep-dense",
    "LocalBackend.run": "sweep-dense",
    "run_cells": "sweep-dense",
}

#: The layers (or layer groups) that must lead each workload's self time.
LEADERS = {
    "fig5-warm": [("workloads",), ("schemes",)],
    "fig5-cold": [("trace.executor", "trace.fetch", "profiling", "engine.store.save")],
    "sweep-dense": [("engine.kernels",)],
    "layout-ca": [("layout.conflict_aware",)],
}
#: Blocked or residual time, not the work of a layer.
NOT_WORK = {"resilience.supervisor.wait", "root", "workers"}


def test_every_target_has_a_dominant_workload():
    assert sorted(DOMINANT) == sorted(attribute for _, attribute, _ in layers.TARGETS)


def _spans(*rows):
    """Spans from (layer, name, pid, start, end, id, parent) rows."""
    return [list(row) + [None] for row in rows]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("root", "r", 1, 0, 10_000_000_000, 1, 0),
        ("experiments", "e", 1, 1_000_000_000, 9_000_000_000, 2, 1),
        ("engine.kernels", "k", 1, 2_000_000_000, 5_000_000_000, 3, 2),
        ("workers", "run_cells", 2, 0, 4_000_000_000, 1, 0),
    )
    assert layers.self_times(spans) == [2.0, 5.0, 3.0, 4.0]
    metrics, split = layers.layer_metrics(spans, root_pid=1, cells=1, jobs=2)
    assert sum(split["parent"].values()) == metrics["trace.parent_wall_s"] == 10.0
    assert metrics["unattributed_s"] == 2.0
    assert metrics["workers.busy_s"] == 4.0
    assert metrics["resilience.supervisor.workers"] == 1


def test_chrome_trace_is_complete_events_in_microseconds():
    spans = _spans(("root", "r", 1, 5_000, 9_000, 1, 0))
    trace = layers.chrome_trace(spans, root_pid=1)
    event = [e for e in trace["traceEvents"] if e["ph"] == "X"][0]
    assert (event["ts"], event["dur"], event["cat"]) == (0.0, 4.0, "root")


def _python(code: str, tmp_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for key in [key for key in env if key.startswith("REPRO_")]:
        del env[key]
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), str(BENCH), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_install_rebinds_every_importer_and_family_tiers_fire(tmp_path):
    result = _python(
        """
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import repro.cli, layers
        from pathlib import Path
        originals = {}
        for module, attribute, _ in layers.TARGETS:
            if "." not in attribute:
                originals[attribute] = getattr(__import__(module, fromlist=["x"]), attribute)
        tracer = layers.Tracer(Path(sys.argv[2]) / "spans")
        layers.install(tracer)
        stale = [
            f"{name}.{attr}"
            for name, module in list(sys.modules.items()) if name.startswith("repro")
            for attr, value in vars(module).items()
            if any(value is original for original in originals.values())
        ]
        from repro.engine.grid import GridCell
        from repro.experiments.runner import ExperimentRunner
        cells = [GridCell("crc", "way-placement", wpa_size=k * 1024) for k in (1, 2, 4)]
        for engine in ("batch", "differential"):
            runner = ExperimentRunner(
                eval_instructions=20000, profile_instructions=8000,
                cache_dir=sys.argv[2] + "/store",
            )
            runner.report_family(cells, engine=engine)
        tracer.flush("parent")
        calls = {}
        for span in layers.load_spans(Path(sys.argv[2]) / "spans"):
            calls[span[1]] = calls.get(span[1], 0) + 1
        print(json.dumps({"stale": stale, "calls": calls}))
        """,
        tmp_path,
    )
    assert result["stale"] == []
    for name, workload in DOMINANT.items():
        if workload is None:
            assert result["calls"].get(name, 0) > 0, f"{name} never fired"


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for workload in LEADERS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", "1"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr[-3000:]
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"], done.stdout[-3000:]
        summary = ROOT / ".perfbench" / "traces" / f"{workload}-seed1.layers.json"
        runs[workload] = dict(json.loads(summary.read_text()), result=result)
    return runs


def test_benchmark_json_names_what_runs_report(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    assert len(per_layer) == len(set(per_layer))
    for workload, traced in traced_runs.items():
        assert set(traced["result"]["metrics"]) == set(per_layer), workload


@pytest.mark.parametrize("name", sorted(DOMINANT))
def test_wrapper_fires_on_its_dominant_workload(traced_runs, name):
    workload = DOMINANT[name]
    if workload is not None:
        assert traced_runs[workload]["calls"].get(name, 0) > 0, f"{name} silent on {workload}"


@pytest.mark.parametrize("workload", sorted(LEADERS))
def test_parent_layers_sum_to_parent_wall_and_leaders_lead(traced_runs, workload):
    run = traced_runs[workload]
    parent = run["split"]["parent"]
    assert sum(parent.values()) == pytest.approx(run["metrics"]["trace.parent_wall_s"], rel=1e-6)

    # Shares of worker busy time where there are workers, else the parent's.
    side = run["split"]["workers"] or parent
    work = {layer: seconds for layer, seconds in side.items() if layer not in NOT_WORK}
    leaders = LEADERS[workload]
    for group in leaders:
        group_s = sum(work.get(layer, 0.0) for layer in group)
        others = [s for layer, s in work.items() if not any(layer in g for g in leaders)]
        assert group_s > max(others), f"{group} does not lead {workload}: {work}"
