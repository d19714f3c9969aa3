"""Family planning under the default ``auto`` engine.

Without an ``--engine`` flag a grid replays each WPA threshold sweep as one
differential family and every other cell per cell on the vector kernels.
These tests pin that contract on every execution path that runs
:func:`~repro.resilience.supervisor.run_cells` — serial, the local worker
pool and the sharded backend:

* **planning** — :class:`GridSummary` counts exactly the families the
  planner forms, and a group with a single effective threshold stays per
  cell (the batch tier never runs on the default path);
* **equivalence** — every report equals per-cell ``engine="vector"``
  replay, and a seeded sample equals the reference schemes.
"""

import dataclasses
import random

import pytest

from repro.engine.grid import GridCell, plan_families
from repro.experiments.runner import ExperimentRunner
from repro.resilience.policy import ResilienceConfig
from repro.resilience.supervisor import _family_engine
from repro.sim.machine import XSCALE_BASELINE

KB = 1024

#: Two benchmarks, each a baseline plus a three-point WPA sweep, and a
#: single-threshold group: one WPA size under two page sizes (same
#: geometry, so one planner group with no adjacent configs to share).
SWEEP_CELLS = [
    GridCell(benchmark, scheme, wpa_size=wpa)
    for benchmark in ("crc", "sha")
    for scheme, wpa in (
        ("baseline", 0),
        ("way-placement", 4 * KB),
        ("way-placement", 8 * KB),
        ("way-placement", 16 * KB),
    )
]
SINGLE_THRESHOLD_CELLS = [
    GridCell("bitcount", "way-placement", wpa_size=8 * KB),
    GridCell(
        "bitcount",
        "way-placement",
        machine=dataclasses.replace(XSCALE_BASELINE, page_size=2 * KB),
        wpa_size=8 * KB,
    ),
]
CELLS = SWEEP_CELLS + SINGLE_THRESHOLD_CELLS

#: (jobs, backend) for the serial path and the two parallel backends.
PATHS = [(1, "local"), (2, "local"), (2, "sharded")]


@pytest.fixture(autouse=True)
def _default_engine(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)


def make_runner(**kwargs):
    kwargs.setdefault("eval_instructions", 8_000)
    kwargs.setdefault("profile_instructions", 4_000)
    return ExperimentRunner(cache_dir="off", **kwargs)


@pytest.fixture(scope="module")
def vector_reports():
    return make_runner(engine="vector").run_grid(CELLS)


class TestPlanner:
    def test_default_engine_plans_for_auto(self):
        assert _family_engine(make_runner()) == "auto"
        assert _family_engine(make_runner(engine="vector")) is None
        assert _family_engine(make_runner(engine="reference")) is None

    def test_sweeps_become_differential_families(self):
        runner = make_runner()
        families, singles = plan_families(
            CELLS, runner._resolve_layout_policy, engine="auto"
        )
        assert [family.benchmark for family in families] == ["crc", "sha"]
        assert all(family.engine == "differential" for family in families)
        assert [family.indices for family in families] == [(1, 2, 3), (5, 6, 7)]
        # Baselines sit alone in their (ORIGINAL layout) groups; the
        # single-threshold pair has no adjacency chain.
        assert singles == [0, 4, 8, 9]

    def test_single_threshold_group_stays_per_cell(self):
        runner = make_runner()
        families, singles = plan_families(
            SINGLE_THRESHOLD_CELLS, runner._resolve_layout_policy, engine="auto"
        )
        assert families == []
        assert singles == [0, 1]
        # The batch engine does coalesce the same pair.
        families, _ = plan_families(
            SINGLE_THRESHOLD_CELLS, runner._resolve_layout_policy, engine="batch"
        )
        assert len(families) == 1 and families[0].engine == "batch"


class TestDefaultEngineGrid:
    @pytest.mark.parametrize("jobs,backend", PATHS)
    def test_grid_matches_plan_and_per_cell_vector(
        self, jobs, backend, vector_reports
    ):
        runner = make_runner(resilience=ResilienceConfig(backend=backend))
        reports = runner.run_grid(CELLS, jobs=jobs)

        families, _ = plan_families(
            CELLS, runner._resolve_layout_policy, engine="auto"
        )
        summary = runner.last_grid
        assert summary is not None
        assert summary.backend == backend
        assert summary.families == len(families) == 2
        assert summary.family_cells == sum(len(f.indices) for f in families) == 6
        assert runner.last_failures == []
        assert reports == vector_reports

    def test_seeded_sample_matches_reference(self, vector_reports):
        sample = sorted(random.Random(13).sample(range(len(CELLS)), 5))
        reports = make_runner().run_grid(CELLS)
        reference = make_runner(engine="reference").run_grid(
            [CELLS[index] for index in sample]
        )
        for index, reference_report in zip(sample, reference):
            assert reports[index].counters == reference_report.counters, CELLS[index]
            assert reports[index].breakdown == reference_report.breakdown
            assert reports[index].cycles == reference_report.cycles

    def test_batch_tier_never_runs(self, monkeypatch, vector_reports):
        import repro.experiments.runner as runner_module

        def forbidden(*args, **kwargs):
            raise AssertionError("batch tier ran on the default path")

        monkeypatch.setattr(runner_module, "batch_counters", forbidden)
        runner = make_runner()
        assert runner.run_grid(CELLS) == vector_reports
        assert runner.last_failures == []

    def test_single_threshold_grid_forms_no_family(self, vector_reports):
        runner = make_runner()
        reports = runner.run_grid(SINGLE_THRESHOLD_CELLS)
        summary = runner.last_grid
        assert summary is not None
        assert summary.families == 0 and summary.family_cells == 0
        assert reports == vector_reports[len(SWEEP_CELLS):]

