"""The four benchmark workloads: what each run executes and what it primes.

Each workload is the call a user makes (``repro figure5 --jobs 2`` is
``figure5(ExperimentRunner(), jobs=2)``), made here through the library so
the workload seed can be passed to ``ExperimentRunner(seed=...)``; the CLI
has no seed flag.  Everything else is the program's default: engine,
backend, store format, plane, instruction budgets.

This module imports ``repro`` only inside functions, so ``run.py`` can load
it before it knows whether the program is present.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

KB = 1024

SWEEP_BENCHMARKS: Tuple[str, ...] = ("cjpeg", "tiff2bw", "susan_c", "fft")
LAYOUT_BENCHMARKS: Tuple[str, ...] = ("tiff2bw", "ispell", "susan_c", "fft")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Outputs are checked against the digests recorded under this name;
    #: fig5-cold and fig5-warm share one, so their outputs must agree.
    family: str
    #: A warm workload runs on a store primed in set-up; a cold one on an
    #: empty store.
    warm: bool
    jobs: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fig5-warm", "fig5", warm=True, jobs=2),
        Workload("fig5-cold", "fig5", warm=False, jobs=2),
        Workload("sweep-dense", "sweep-dense", warm=True, jobs=2),
        Workload("layout-ca", "layout-ca", warm=True, jobs=1),
    )
}


def benchmarks(name: str) -> Tuple[str, ...]:
    if name == "sweep-dense":
        return SWEEP_BENCHMARKS
    if name == "layout-ca":
        return LAYOUT_BENCHMARKS
    from repro.workloads.mibench import benchmark_names

    return tuple(benchmark_names())


def cells(name: str) -> List[Any]:
    """The grid cells whose reports are the workload's checked output."""
    from repro.engine.grid import GridCell
    from repro.experiments.figures import FIGURE5_WPA_SIZES
    from repro.layout.placement import LayoutPolicy

    out: List[Any] = []
    for bench in benchmarks(name):
        out.append(GridCell(bench, "baseline"))
        if name == "sweep-dense":
            out.extend(
                GridCell(bench, "way-placement", wpa_size=k * KB) for k in range(1, 257)
            )
        elif name == "layout-ca":
            out.append(GridCell(bench, "way-memoization"))
            out.append(
                GridCell(
                    bench,
                    "way-placement",
                    wpa_size=32 * KB,
                    layout_policy=LayoutPolicy.CONFLICT_AWARE,
                )
            )
        else:
            out.append(GridCell(bench, "way-memoization"))
            out.extend(
                GridCell(bench, "way-placement", wpa_size=size) for size in FIGURE5_WPA_SIZES
            )
    return out


def prime_policies(name: str) -> Tuple[Any, ...]:
    """The layouts whose line events the workload loads per benchmark."""
    from repro.layout.placement import LayoutPolicy

    if name == "layout-ca":
        return (LayoutPolicy.ORIGINAL, LayoutPolicy.CONFLICT_AWARE)
    return (LayoutPolicy.ORIGINAL, LayoutPolicy.WAY_PLACEMENT)


def prime(name: str, seed: int, store: str, claims: str) -> None:
    """Derive and persist traces the workload will load, one benchmark at a
    time, skipping benchmarks another priming process has claimed."""
    import os

    from repro.experiments.runner import ExperimentRunner
    from repro.sim.machine import XSCALE_BASELINE

    runner = ExperimentRunner(seed=seed, cache_dir=store)
    for bench in benchmarks(name):
        try:
            os.close(os.open(os.path.join(claims, bench), os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            continue
        for policy in prime_policies(name):
            runner.events(bench, policy, XSCALE_BASELINE.icache.line_size)


def run(name: str, seed: int, store: str) -> Dict[str, Any]:
    """Execute the workload once; returns what :func:`output` needs."""
    from repro.experiments import figures
    from repro.experiments.runner import ExperimentRunner
    from repro.layout.placement import LayoutPolicy

    runner = ExperimentRunner(seed=seed, cache_dir=store)
    result: Dict[str, Any] = {"runner": runner, "figure": None, "placement_energy": {}}
    if name == "sweep-dense":
        result["reports"] = runner.run_grid(cells(name), jobs=WORKLOADS[name].jobs)
    elif name == "layout-ca":
        result["figure"] = figures.figure4(
            runner,
            benchmarks=LAYOUT_BENCHMARKS,
            layout_policy=LayoutPolicy.CONFLICT_AWARE,
        ).render()
    else:
        figure = figures.figure5(runner, jobs=WORKLOADS[name].jobs)
        result["figure"] = figure.render()
        result["placement_energy"] = {
            str(size): energy for size, energy in figure.placement_energy.items()
        }
    return result


def output(name: str, result: Dict[str, Any]) -> Dict[str, Any]:
    """The checked output of a :func:`run`: the figure and every cell's
    report.  A figure's reports are recalled from the runner's memo, which
    the figure filled; nothing is simulated again."""
    reports = result.get("reports")
    if reports is None:
        runner = result["runner"]
        reports = [runner.report(**cell.report_kwargs()) for cell in cells(name)]
    return {
        "figure": result["figure"],
        "placement_energy": result["placement_energy"],
        "reports": [report_record(report) for report in reports],
    }


def report_record(report: Any) -> List[Any]:
    """A report's identity, counters and energies as plain JSON values."""
    return [
        report.benchmark,
        report.scheme,
        report.wpa_size,
        report.layout_description,
        list(dataclasses.astuple(report.counters)),
        report.cycles,
        list(dataclasses.astuple(report.breakdown)),
        report.processor.core_pj,
        list(dataclasses.astuple(report.processor.breakdown)),
    ]
