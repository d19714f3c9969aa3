"""Parallel experiment grids: fan simulation cells across worker processes.

A *cell* is one ``(benchmark, scheme, machine, wpa, options)`` simulation —
exactly the argument tuple of :meth:`ExperimentRunner.report`.  The figure
and sensitivity grids are hundreds of cells that share traces per
benchmark, so the fan-out is **chunked by benchmark**: each worker process
receives every cell of one benchmark, derives (or loads from the persistent
:class:`~repro.engine.store.TraceStore`) that benchmark's traces once, and
ships the finished :class:`~repro.sim.report.SimulationReport` objects
back.  The parent adopts them into its memo, so subsequent ``report()`` /
``normalised()`` calls are cache hits.

Execution is **supervised** (see :mod:`repro.resilience.supervisor`):
failing cells are retried with backoff, kernel/sanitizer failures degrade
to the bit-identical reference engine, crashed or hung workers are killed
and their remaining cells re-run on fresh workers (then in-process), and
completed cells are checkpointed to a resume journal.  Every completed
report is adopted into the runner's memo *before* any failure surfaces —
a partial grid keeps all of its finished work, and a
:class:`~repro.errors.CellFailure` carries structured
:class:`~repro.resilience.policy.FailureReport` records for the rest.

``jobs <= 1`` runs everything in-process with no workers — identical
results, no pickling, the right default for tests and single-benchmark
work.

Under the family-planning engines a second coalescing layer kicks in: the
**planner** (:func:`plan_families`) groups the cells of a chunk into *batch
families* — cells replaying the same line-event trace under the same cache
geometry — and each family runs as **one** traversal of the trace via
:func:`repro.engine.batch.batch_counters` (``batch``) or
:func:`repro.engine.differential.differential_counters` (``differential``,
and the default ``auto`` engine for threshold sweeps), fanning the
per-config counters back to the original cells in input order.  Cells the
family kernels cannot model (schemes without a kernel, exotic options)
stay on the per-cell engines, and a family that fails for any reason
degrades down the supervision ladder, so supervision semantics are
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.engine.batch import batchable
from repro.errors import SchemeError
from repro.layout.placement import LayoutPolicy
from repro.resilience.policy import ResilienceConfig
from repro.resilience.supervisor import supervise_grid
from repro.sim.machine import MachineConfig, XSCALE_BASELINE
from repro.sim.report import SimulationReport

__all__ = ["BatchFamily", "GridCell", "plan_families", "run_grid"]


@dataclass(frozen=True)
class GridCell:
    """One simulation of an experiment grid (picklable by construction)."""

    benchmark: str
    scheme: str
    machine: MachineConfig = XSCALE_BASELINE
    wpa_size: int = 0
    layout_policy: Optional[LayoutPolicy] = None
    same_line_skip: Optional[bool] = None
    l0_size: int = 512

    def report_kwargs(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "scheme": self.scheme,
            "machine": self.machine,
            "wpa_size": self.wpa_size,
            "layout_policy": self.layout_policy,
            "same_line_skip": self.same_line_skip,
            "l0_size": self.l0_size,
        }


@dataclass(frozen=True)
class BatchFamily:
    """Cells that can replay with one traversal of one line-event trace.

    Membership is keyed by everything the *trace* and the *sequential cache
    state* depend on: the benchmark and resolved layout policy select the
    line-event trace (the trace signature — the persistent store's content
    key is a function of exactly these), and the geometry fixes the set/tag
    decomposition shared by every member.  Everything else a cell varies —
    WPA size, ``same_line_skip``, page size, I-TLB entries — is a per-member
    option of the batched kernel.

    ``engine`` names the family tier the planner picked: ``"batch"`` (one
    bitmask traversal, :func:`repro.engine.batch.batch_counters`) or
    ``"differential"`` (delta-driven adjacent-config state sharing,
    :func:`repro.engine.differential.differential_counters`) — the latter
    only under the ``differential`` or default ``auto`` engine, and only
    when the family actually sweeps a threshold axis.
    """

    benchmark: str
    layout_policy: LayoutPolicy
    geometry: CacheGeometry
    indices: Tuple[int, ...]
    engine: str = "batch"


PolicyResolver = Callable[[str, Optional[LayoutPolicy]], LayoutPolicy]


def plan_families(
    cells: Sequence[GridCell],
    resolve_policy: PolicyResolver,
    engine: Optional[str] = None,
) -> Tuple[List[BatchFamily], List[int]]:
    """Coalesce grid cells into batch families.

    Returns ``(families, singles)``: families of two or more batchable cells
    (indices into ``cells`` in input order), and the indices of every other
    cell — non-batchable schemes/options, invalid combinations (left for the
    per-cell path to diagnose), and one-member groups, for which a batched
    traversal would only add overhead.  ``resolve_policy`` maps a cell's
    ``(scheme, layout_policy)`` to the layout actually simulated (the
    runner's scheme/layout pairing).

    ``engine`` is the runner's requested family tier.  Under
    ``"differential"``, a family whose members form an adjacency chain —
    two or more *distinct* effective WPA thresholds (a baseline member is
    threshold 0) — is marked for delta-driven replay; a family with a
    single effective threshold has no adjacent configs to share state
    between, so it stays on the batch tier.  Under ``"auto"`` (the
    default engine) only adjacency chains become families, all marked
    differential; every other group's cells stay single, so they run on
    the per-cell vector kernels and the batch tier never runs on the
    default path.  Any other value (``None``, ``"batch"``) plans plain
    batch families.
    """
    # Imported lazily: repro.sim.simulator itself imports the engine
    # package, so a module-level import here would be circular.
    from repro.sim.simulator import scheme_options

    groups: dict = {}
    singles: List[int] = []
    for index, cell in enumerate(cells):
        try:
            options = scheme_options(
                cell.machine,
                cell.scheme,
                wpa_size=cell.wpa_size,
                same_line_skip=cell.same_line_skip,
                l0_size=cell.l0_size,
            )
        except SchemeError:
            singles.append(index)
            continue
        if not batchable(cell.scheme, options):
            singles.append(index)
            continue
        key = (
            cell.benchmark,
            resolve_policy(cell.scheme, cell.layout_policy),
            cell.machine.icache,
        )
        threshold = cell.wpa_size if cell.scheme == "way-placement" else 0
        groups.setdefault(key, []).append((index, threshold))

    families: List[BatchFamily] = []
    for (benchmark, policy, geometry), entries in groups.items():
        adjacency_chain = len({threshold for _, threshold in entries}) >= 2
        if len(entries) < 2 or (engine == "auto" and not adjacency_chain):
            singles.extend(index for index, _ in entries)
            continue
        families.append(
            BatchFamily(
                benchmark=benchmark,
                layout_policy=policy,
                geometry=geometry,
                indices=tuple(index for index, _ in entries),
                engine=(
                    "differential"
                    if engine in ("auto", "differential") and adjacency_chain
                    else "batch"
                ),
            )
        )
    singles.sort()
    return families, singles


def run_grid(
    runner,
    cells: Sequence[GridCell],
    jobs: int = 1,
    resilience: Optional[ResilienceConfig] = None,
) -> List[SimulationReport]:
    """Simulate ``cells`` under supervision; returns reports in input order.

    ``runner`` is an :class:`~repro.experiments.runner.ExperimentRunner`;
    every result is also adopted into its report memo (even on partial
    failure, before :class:`~repro.errors.CellFailure` is raised).  The
    retry/timeout/fallback/resume behaviour comes from ``resilience``,
    defaulting to the runner's own config
    (:data:`~repro.resilience.policy.DEFAULT_RESILIENCE` otherwise); the
    structured outcome lands on ``runner.last_grid`` and
    ``runner.last_failures``.
    """
    if resilience is None:
        resilience = getattr(runner, "resilience", None)
    return supervise_grid(runner, cells, jobs=jobs, config=resilience)
