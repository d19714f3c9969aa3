"""Differential replay equivalence: delta-driven state, bit-identical counters.

The differential tier (:mod:`repro.engine.differential`) replays a sweep
family by evolving interval-shared per-set state snapshots, splitting at
threshold-straddling misses and merging on reconvergence, with the sweep
reductions answered from per-trace sorted aggregates.  None of that is
allowed to change a number.  This suite pins it down four ways:

* **kernel equivalence** — for mixed families (baseline and way-placement
  together, non-contiguous and duplicate thresholds, degenerate 1-config
  families), every :class:`~repro.cache.access.FetchCounters` field from
  ``differential_counters`` equals ``batch_counters``, the per-config
  kernel, *and* the reference scheme, on Hypothesis-generated and large
  seeded streams — including a direct-mapped geometry where every split
  must reconverge through eviction cascades;
* **planner behaviour** — :func:`~repro.engine.grid.plan_families` marks a
  family ``differential`` only when that engine (or ``auto``) is requested
  *and* the family sweeps two or more distinct effective thresholds;
* **grid execution** — ``--engine differential`` grids stay bit-identical
  to the reference engine;
* **supervision** — seeded chaos faults walk the full degradation ladder:
  a differential fault re-runs the family on the batch tier
  (``site="differential"``, ``recovery="batch"``), and a family fault on
  top degrades the members to per-cell replay, with results unchanged at
  every rung.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings

from repro.cache.access import FetchCounters
from repro.cache.geometry import CacheGeometry
from repro.engine.batch import BatchMember, batch_counters
from repro.engine.differential import differential_counters
from repro.engine.grid import GridCell, plan_families
from repro.engine.kernels import fast_counters
from repro.errors import ExperimentError, SchemeError
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule
from repro.trace.events import SEQUENTIAL_SLOT
from tests.scheme_helpers import TINY_GEOMETRY, events_from
from tests.test_engine_batch import (
    MIXED_FAMILY,
    SWEEP_CELLS,
    assert_identical,
    make_runner,
    reference_counters,
)
from tests.test_schemes_equivalence import event_streams

KB = 1024

#: A direct-mapped variant: with one way per set, every fill evicts, so a
#: split run reconverges on the very next shared fill — the merge path
#: runs constantly instead of rarely.
DIRECT_MAPPED = CacheGeometry(64, 1, 16)

#: Non-contiguous thresholds: gaps, duplicates, and points beyond the
#: 40-line stream extent, so some adjacent pairs never see a delta event
#: and others straddle almost every address.
SPARSE_SWEEP = [
    BatchMember("way-placement", {"wpa_size": 32, "page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 640, "page_size": 16}),
    BatchMember("baseline", {"page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 64, "page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 64, "page_size": 16}),
    BatchMember("way-placement", {"wpa_size": 4096, "page_size": 16}),
]


def assert_family_agrees(events, geometry, members):
    batched = batch_counters(events, geometry, members)
    differential = differential_counters(events, geometry, members)
    assert len(differential) == len(members)
    for member, diff, batch in zip(members, differential, batched):
        assert_identical(diff, batch, member)
        kernel = fast_counters(
            member.scheme, events, geometry, **dict(member.options)
        )
        assert_identical(diff, kernel, member)


class TestKernelEquivalence:
    @given(event_streams())
    @settings(max_examples=60, deadline=None)
    def test_mixed_family_matches_batch_kernels_and_reference(self, specs):
        events = events_from(specs)
        differential = differential_counters(events, TINY_GEOMETRY, MIXED_FAMILY)
        batched = batch_counters(events, TINY_GEOMETRY, MIXED_FAMILY)
        for member, diff, batch in zip(MIXED_FAMILY, differential, batched):
            assert_identical(diff, batch, member)
            assert_identical(diff, reference_counters(member, events), member)

    @given(event_streams())
    @settings(max_examples=40, deadline=None)
    def test_sparse_sweep_direct_mapped(self, specs):
        events = events_from(specs)
        assert_family_agrees(events, DIRECT_MAPPED, SPARSE_SWEEP)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("geometry", [TINY_GEOMETRY, DIRECT_MAPPED])
    def test_seeded_large_streams(self, seed, geometry):
        rng = random.Random(seed)
        specs = []
        previous = None
        for _ in range(600):
            line = rng.randrange(120)
            if line == previous:
                line = (line + 1) % 120
            previous = line
            specs.append(
                (
                    line * 16,
                    rng.randint(1, 8),
                    rng.choice([SEQUENTIAL_SLOT, 0, 1, 2, 3]),
                )
            )
        events = events_from(specs)
        assert_family_agrees(events, geometry, MIXED_FAMILY)
        assert_family_agrees(events, geometry, SPARSE_SWEEP)

    def test_degenerate_one_config_family(self):
        events = events_from([(0, 1), (16, 2), (0, 1), (96, 3)])
        for member in MIXED_FAMILY:
            assert_family_agrees(events, TINY_GEOMETRY, [member])

    def test_empty_trace(self):
        empty = events_from([])
        for member, counters in zip(
            MIXED_FAMILY, differential_counters(empty, TINY_GEOMETRY, MIXED_FAMILY)
        ):
            assert_identical(
                counters,
                fast_counters(
                    member.scheme, empty, TINY_GEOMETRY, **dict(member.options)
                ),
                member,
            )

    def test_no_members_is_empty(self):
        events = events_from([(0, 1), (16, 2)])
        assert differential_counters(events, TINY_GEOMETRY, []) == []

    def test_non_batchable_member_raises(self):
        events = events_from([(0, 1)])
        with pytest.raises(SchemeError, match="not\\s+batchable"):
            differential_counters(
                events, TINY_GEOMETRY, [BatchMember("way-memoization", {})]
            )


class TestPlanner:
    def test_sweep_family_marked_differential(self):
        runner = make_runner(engine="differential")
        families, singles = plan_families(
            SWEEP_CELLS, runner._resolve_layout_policy, engine="differential"
        )
        assert len(families) == 1
        assert families[0].engine == "differential"
        assert families[0].indices == (1, 2, 3)
        assert singles == [0]

    def test_single_threshold_family_stays_batch(self):
        runner = make_runner(engine="differential")
        cells = [
            GridCell("crc", "way-placement", wpa_size=4 * KB),
            GridCell("crc", "way-placement", wpa_size=4 * KB, same_line_skip=False),
        ]
        families, singles = plan_families(
            cells, runner._resolve_layout_policy, engine="differential"
        )
        assert len(families) == 1 and families[0].engine == "batch"
        assert singles == []

    def test_batch_engine_never_marks_differential(self):
        runner = make_runner(engine="batch")
        families, _ = plan_families(
            SWEEP_CELLS, runner._resolve_layout_policy, engine="batch"
        )
        assert families and all(family.engine == "batch" for family in families)

    def test_unspecified_engine_plans_batch_families(self):
        # Direct planner callers that name no engine get plain batch
        # families; the default-engine grid path passes "auto" (see
        # tests/test_engine_auto_families.py).
        runner = make_runner()
        families, _ = plan_families(SWEEP_CELLS, runner._resolve_layout_policy)
        assert families and all(family.engine == "batch" for family in families)


class TestFamilyExecution:
    def test_report_family_rejects_unknown_engine(self):
        runner = make_runner()
        with pytest.raises(ExperimentError, match="family"):
            runner.report_family(SWEEP_CELLS[1:], engine="vector")

    def test_run_grid_differential_matches_reference(self):
        differential_reports = make_runner(engine="differential").run_grid(SWEEP_CELLS)
        reference_reports = make_runner(engine="reference").run_grid(SWEEP_CELLS)
        for cell, diff_report, reference_report in zip(
            SWEEP_CELLS, differential_reports, reference_reports
        ):
            assert diff_report.counters == reference_report.counters, cell
            assert diff_report.breakdown == reference_report.breakdown, cell
            assert diff_report.cycles == reference_report.cycles, cell

    def test_differential_fault_degrades_to_batch(self):
        runner = make_runner(engine="differential")
        rule = ChaosRule("differential", "raise", match="crc", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            reports = runner.run_grid(SWEEP_CELLS)

        incidents = [f for f in runner.last_failures if f.site == "differential"]
        assert incidents, "differential fault left no FailureReport"
        incident = incidents[0]
        assert incident.recovered and incident.recovery == "batch"
        assert incident.benchmark == "crc"
        assert "3-cell family" in incident.cell
        assert "InjectedFault" in incident.causes[0]
        assert not [f for f in runner.last_failures if f.site == "family"]

        reference_reports = make_runner(engine="reference").run_grid(SWEEP_CELLS)
        for report, reference_report in zip(reports, reference_reports):
            assert report.counters == reference_report.counters

    def test_full_ladder_degrades_to_per_cell(self):
        runner = make_runner(engine="differential")
        rules = (
            ChaosRule("differential", "raise", match="crc", times=-1),
            ChaosRule("family", "raise", match="crc", times=-1),
        )
        with chaos.active(ChaosConfig(seed=0, rules=rules)):
            reports = runner.run_grid(SWEEP_CELLS)

        rungs = [(f.site, f.recovery) for f in runner.last_failures]
        assert ("differential", "batch") in rungs
        assert ("family", "per-cell") in rungs

        reference_reports = make_runner(engine="reference").run_grid(SWEEP_CELLS)
        for report, reference_report in zip(reports, reference_reports):
            assert report.counters == reference_report.counters

    def test_batch_grid_unaffected_by_differential_rule(self):
        # A differential-site rule must not fire on the batch tier: the
        # chaos sites keep the ladder rungs independently addressable.
        runner = make_runner(engine="batch")
        rule = ChaosRule("differential", "raise", match="crc", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            runner.run_grid(SWEEP_CELLS)
        assert runner.last_failures == []


def test_counters_are_plain_fetch_counters():
    # Downstream pricing treats family results exactly like per-cell ones;
    # a subclass or array-backed impostor would pickle differently.
    events = events_from([(0, 1), (16, 2)])
    results = differential_counters(events, TINY_GEOMETRY, MIXED_FAMILY)
    assert all(type(counters) is FetchCounters for counters in results)
    for counters in results:
        for field in dataclasses.fields(FetchCounters):
            assert isinstance(getattr(counters, field.name), int), field.name
