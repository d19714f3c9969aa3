"""Output checks for benchmark runs.

* digests: the figure text and every report's counters and energies must
  match the digests recorded in ``digests.json`` for the seed, when one is
  recorded (fig5-cold and fig5-warm share theirs, so their outputs must be
  identical);
* repeatability: every sample of a run must produce the same output;
* monotonicity: Figure 5 placement energy never rises as the WPA grows;
* cross-checks on a seeded sample of cells, recomputed in this process:
  fig5-warm against a cold derivation, fig5-cold against the warm store it
  left behind, sweep-dense and layout-ca against the reference schemes
  (``engine="reference"``, the in-repo oracle).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import workloads

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Cells recomputed per run by :func:`cross_check` (layout-ca: see there).
CROSS_CHECK_CELLS = {"fig5-warm": 4, "fig5-cold": 4, "sweep-dense": 8}


def digests(output: Dict[str, Any]) -> Dict[str, str]:
    def sha(value: Any) -> str:
        return hashlib.sha256(json.dumps(value).encode()).hexdigest()

    return {"figure": sha(output["figure"]), "reports": sha(output["reports"])}


def recorded(workload: str, seed: int) -> Optional[Dict[str, str]]:
    table = json.loads(DIGESTS.read_text())
    return table.get(workloads.WORKLOADS[workload].family, {}).get(str(seed))


def sample_problems(
    workload: str, seed: int, output: Dict[str, Any], first: Optional[Dict[str, Any]]
) -> List[str]:
    """What is wrong with one sample's output (empty when it checks out)."""
    problems = []
    got = digests(output)
    want = recorded(workload, seed)
    if want is not None and got != want:
        problems.append(f"digests {got} differ from the recorded {want}")
    if first is not None and got != digests(first):
        problems.append("output differs from the run's first sample")
    if output["placement_energy"]:
        by_size = sorted(output["placement_energy"].items(), key=lambda item: int(item[0]))
        # Energy at each size, smallest WPA first: it may only fall.
        energies = [energy for _, energy in by_size]
        if any(larger > smaller for smaller, larger in zip(energies, energies[1:])):
            problems.append(f"placement energy is not monotone in WPA size: {by_size}")
    if len(output["reports"]) != len(workloads.cells(workload)):
        problems.append("wrong number of reports")
    return problems


def cross_check(workload: str, seed: int, store: Path, reports: Sequence[Any]) -> List[str]:
    """Recompute a seeded sample of cells another way and compare."""
    from repro.experiments.runner import ExperimentRunner

    if workload == "fig5-warm":
        runner = ExperimentRunner(seed=seed, cache_dir="off")
    elif workload == "fig5-cold":
        runner = ExperimentRunner(seed=seed, cache_dir=str(store))
    else:
        runner = ExperimentRunner(seed=seed, cache_dir=str(store), engine="reference")
    grid = workloads.cells(workload)
    pick = random.Random(seed)
    if workload == "layout-ca":
        # Every cell of one program: a second conflict-aware layout pass
        # costs seconds, so check one program's cells completely.
        bench = pick.choice(workloads.LAYOUT_BENCHMARKS)
        picks = [index for index, cell in enumerate(grid) if cell.benchmark == bench]
    else:
        picks = sorted(pick.sample(range(len(grid)), CROSS_CHECK_CELLS[workload]))
    problems = []
    for index in picks:
        record = workloads.report_record(runner.report(**grid[index].report_kwargs()))
        if json.loads(json.dumps(record)) != reports[index]:
            cell = grid[index]
            problems.append(
                f"cell {index} ({cell.benchmark}, {cell.scheme}, WPA {cell.wpa_size}) "
                "differs on recomputation"
            )
    return problems
