"""Seeded chaos drills: the library behind ``repro chaos``.

A *drill* derives a deterministic fault schedule from a seed, runs a
supervised parallel grid under it, and checks the acceptance bar of
docs/robustness.md: results bit-identical to a fault-free serial run,
with every injected incident recovered.  The schedule covers every
recovery rung of the chosen execution backend at once — worker crashes
and hangs for the local pool; shard crashes, silenced heartbeats (lease
expiry), forced duplicate grants, and transport failure for the sharded
backend — plus the backend-independent faults (kernel sanitizer trips,
probabilistic cell faults, a full disk mid-cache-write).

:func:`run_drill` runs one ``(seed, backend)`` drill and returns a
summary dict; :func:`run_matrix` sweeps a seed matrix across backends and
aggregates.  Given the same seeds, the schedules and the verdict fields
(``identical``, ``recovered``, ``ok``) are deterministic; incident lists
are included for humans and may vary in order with scheduling.

CI runs ``python -m repro chaos --seed N --backend both`` for a seed
matrix.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.grid import GridCell
from repro.experiments.runner import ExperimentRunner
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule, describe_rules
from repro.resilience.policy import ResilienceConfig

__all__ = ["drill_cells", "build_rules", "run_drill", "run_matrix"]

KB = 1024

#: Trace budgets small enough for CI, large enough to exercise real replay.
_EVAL_INSTRUCTIONS = 8_000
_PROFILE_INSTRUCTIONS = 4_000
#: Shard leases expire fast so injected heartbeat loss recovers in well
#: under a second of wall clock.
_LEASE_TIMEOUT_S = 0.5


def drill_cells() -> List[GridCell]:
    """The standard drill grid: two benchmarks, baseline + a 2-point sweep.

    Each benchmark's two WPA sizes form an adjacency chain, so the default
    engine replays them as one differential family and the drill covers
    the family rungs as well as the per-cell ladder (the baselines).
    """
    return [
        GridCell("crc", "baseline"),
        GridCell("crc", "way-placement", wpa_size=8 * KB),
        GridCell("crc", "way-placement", wpa_size=16 * KB),
        GridCell("sha", "baseline"),
        GridCell("sha", "way-placement", wpa_size=8 * KB),
        GridCell("sha", "way-placement", wpa_size=16 * KB),
    ]


def _make_runner(cache_dir: str, **kwargs: Any) -> ExperimentRunner:
    return ExperimentRunner(
        cache_dir=cache_dir,
        eval_instructions=_EVAL_INSTRUCTIONS,
        profile_instructions=_PROFILE_INSTRUCTIONS,
        **kwargs,
    )


def build_rules(seed: int, backend: str = "local") -> Tuple[ChaosRule, ...]:
    """A seed-derived schedule covering every recovery rung at once.

    The backend-independent tail (sanitizer trip, probabilistic cell
    faults, a failed differential family, disk faults mid-cache-write) is
    shared; the head injects the faults specific to how the chosen backend
    distributes work.
    """
    rng = random.Random(seed)
    crash_bench = rng.choice(["crc", "sha"])
    hang_bench = "sha" if crash_bench == "crc" else "crc"
    shared = (
        # The sweeps replay as families, so the kernel fault targets the
        # per-cell baselines to keep the engine-fallback rung exercised.
        ChaosRule("kernel", "sanitizer", match="baseline", times=1),
        ChaosRule("cell", "raise", times=-1, probability=0.2),
        # A differential family fails once and re-runs on the batch tier.
        ChaosRule("differential", "raise", times=1),
        ChaosRule("store.save", "enospc", times=1),
        ChaosRule("store.save", "truncate", match="events:", times=1),
        # A shared-memory attach fails: the worker must degrade to its own
        # store/derive path with bit-identical results.
        ChaosRule("plane.attach", "raise", times=1),
    )
    if backend != "sharded":
        return (
            ChaosRule("worker", "crash", match=f"{crash_bench}@1", times=1),
            ChaosRule(
                "worker", "hang", match=f"{hang_bench}@1", times=1, delay_s=60.0
            ),
        ) + shared
    head = [
        # Every shard's first lease dies; reassignment recovers each.
        ChaosRule("shard", "crash", match="@1", times=1),
        # One benchmark's shards go mute while still computing: lease
        # expiry reassigns them, the mute workers later duplicate-deliver.
        ChaosRule("lease", "heartbeat-loss", match=hang_bench, times=1),
        ChaosRule("shard", "hang", match=hang_bench, times=1, delay_s=1.5),
        # A forced duplicate grant: first delivery wins, the copy dedups.
        ChaosRule("steal", "duplicate", match=crash_bench, times=1),
    ]
    if rng.random() < 0.5:
        # Some seeds tear the transport itself mid-run: the whole backend
        # must degrade to the local pool and still finish bit-identically.
        head.append(ChaosRule("transport", "raise", match="recv", times=1))
    return tuple(head) + shared


def run_drill(
    seed: int,
    backend: str = "local",
    jobs: int = 2,
    reference: Optional[List[Any]] = None,
) -> Dict[str, Any]:
    """One seeded drill; returns its summary dict (see module docstring).

    ``reference`` optionally supplies the fault-free serial reports (so a
    matrix does not recompute them per run).
    """
    want = reference
    if want is None:
        want = _make_runner("off").run_grid(drill_cells(), jobs=1)
    config = ChaosConfig(seed=seed, rules=build_rules(seed, backend))
    with tempfile.TemporaryDirectory() as scratch:
        runner = _make_runner(
            str(Path(scratch) / "cache"),
            resilience=ResilienceConfig(
                retries=3,
                backoff_s=0.01,
                timeout_s=10.0,
                backend=backend,
                lease_timeout_s=_LEASE_TIMEOUT_S,
            ),
        )
        # Warm exactly one benchmark's traces before the faults go live:
        # the supervisor publishes warm artifacts into the shared-memory
        # plane, giving the plane.attach rule a real attachment to hit,
        # while the other benchmark stays cold and keeps exercising the
        # per-worker derive-and-persist path under the store.save faults.
        for cell in drill_cells():
            if cell.benchmark != "crc":
                continue
            policy = runner._resolve_layout_policy(cell.scheme, cell.layout_policy)
            runner.events(cell.benchmark, policy, cell.machine.icache.line_size)
        with chaos.active(config):
            got = runner.run_grid(drill_cells(), jobs=jobs)
    failures = list(runner.last_failures)
    grid = runner.last_grid
    identical = got == want
    recovered = all(failure.recovered for failure in failures)
    return {
        "seed": seed,
        "backend": backend,
        "jobs": jobs,
        "schedule": describe_rules(list(config.rules)).splitlines(),
        "identical": identical,
        "recovered": recovered,
        "ok": identical and recovered,
        "incidents": [failure.describe() for failure in failures],
        "sites": sorted({failure.site for failure in failures}),
        "shards": 0 if grid is None else grid.shards,
        "duplicate_results": 0 if grid is None else grid.duplicate_results,
    }


def run_matrix(
    seeds: Sequence[int],
    backends: Sequence[str] = ("local",),
    jobs: int = 2,
) -> Dict[str, Any]:
    """Drill every ``(seed, backend)`` pair; aggregate into one summary."""
    reference = _make_runner("off").run_grid(drill_cells(), jobs=1)
    runs = [
        run_drill(seed, backend=backend, jobs=jobs, reference=reference)
        for backend in backends
        for seed in seeds
    ]
    return {
        "seeds": list(seeds),
        "backends": list(backends),
        "runs": runs,
        "ok": all(run["ok"] for run in runs),
    }
