"""End-to-end benchmark of the reproduction's figure and sweep runs.

    python3 perfbench/run.py --workload fig5-warm [--seed 1] [--seconds 10] [--trace 0]

Run from the root of a checkout.  Each sample is a fresh interpreter
(``child.py``) on a private trace store under ``.perfbench/``, with the
program's ``REPRO_*`` settings removed so its defaults are what gets
measured.  The run sets up, repeats the workload for ``--seconds`` (at
least three rounds of samples; the serial workload runs one sample per
core in a round), checks every output (``checks.py``) and prints a table
followed, as its last line, by one JSON object: the ``end_to_end`` metrics
of ``BENCHMARK.json`` with ``--trace 0``, or with ``--trace 1`` the
``per_layer`` metrics of one traced sample (``layers.py``), whose Chrome
trace lands in ``.perfbench/traces/``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
CHILD = BENCH / "child.py"

#: The program settings each run removes, so defaults are measured.
PROGRAM_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_ENGINE",
    "REPRO_EVAL_INSTRUCTIONS",
    "REPRO_PROFILE_INSTRUCTIONS",
    "REPRO_PLANE",
    "REPRO_STORE_FORMAT",
)
#: Set-ups per run (setup_s is their median): primings of a warm store,
#: and ``repro cache clear`` runs on a full one for a cold workload.
SETUPS = 2
CLEARINGS = 5
#: Rounds of samples per run, at least; a round is one sample, or one per
#: core for a serial workload.
MIN_ROUNDS = 3
#: Processes that prime a warm store, as the two cores allow.
PRIME_PROCESSES = 2
#: A sample or set-up step taking longer than this is a failure.
STEP_TIMEOUT_S = 120.0


def declared_units(group: str) -> Dict[str, str]:
    """Each metric of a ``BENCHMARK.json`` group, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[group]}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
@dataclass
class Usage:
    """One process tree's exit status, wall time and resource use."""

    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    codes: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.codes) and all(code == 0 for code in self.codes)


def become_subreaper() -> None:
    """Adopt orphaned descendants (such as a multiprocessing resource
    tracker outliving its parent) so they can be waited for and billed."""
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in PROGRAM_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_tree(commands: List[List[str]], log: Path) -> List[Usage]:
    """Run commands side by side, each leading its own process group, and
    return each one's usage.  Every process a command leaves behind stays in
    its group (this process is their subreaper), so one thread per group
    waits for all of them and bills their CPU and memory to that command.
    A command's wall time ends when its own process exits."""
    started = time.perf_counter()
    with open(log, "ab") as sink:
        procs = [
            subprocess.Popen(
                command,
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=sink,
                stderr=sink,
                start_new_session=True,
            )
            for command in commands
        ]
    usages = [Usage(wall_s=0.0) for _ in procs]

    def reap(proc: subprocess.Popen, usage: Usage) -> None:
        while True:
            try:
                pid, status, rusage = os.wait4(-proc.pid, 0)
            except ChildProcessError:
                break
            usage.cpu_s += rusage.ru_utime + rusage.ru_stime
            usage.peak_rss_mb = max(usage.peak_rss_mb, rusage.ru_maxrss / 1024.0)
            if pid == proc.pid:
                usage.wall_s = time.perf_counter() - started
                proc.returncode = os.waitstatus_to_exitcode(status)
                usage.codes.append(proc.returncode)

    watchdog = threading.Timer(STEP_TIMEOUT_S, _kill_groups, args=([p.pid for p in procs],))
    watchdog.start()
    reapers = [threading.Thread(target=reap, args=pair) for pair in zip(procs, usages)]
    try:
        for reaper in reapers:
            reaper.start()
        for reaper in reapers:
            reaper.join()
        # A descendant that left its command's group is still ours to wait for.
        while True:
            try:
                os.wait4(-1, 0)
            except ChildProcessError:
                break
    finally:
        watchdog.cancel()
    return usages


def combined(usages: List[Usage]) -> Usage:
    """Commands run side by side as one step: wall until the last ends, CPU
    summed, peak RSS the largest of any."""
    return Usage(
        wall_s=max(usage.wall_s for usage in usages),
        cpu_s=sum(usage.cpu_s for usage in usages),
        peak_rss_mb=max(usage.peak_rss_mb for usage in usages),
        codes=[code for usage in usages for code in usage.codes],
    )


def _kill_groups(groups: List[int]) -> None:
    for pgid in groups:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    usage: Usage
    store_mb: float
    output: Optional[Dict[str, Any]]


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.store = work / "store"
        self.log = work / "child.log"
        self.setups: List[float] = []
        self.samples: List[Sample] = []

    def prime(self) -> float:
        """Fill an empty private store; returns the seconds it took."""
        claims = self.work / "claims"
        for stale in (self.store, claims):
            shutil.rmtree(stale, ignore_errors=True)
        claims.mkdir()
        command = [sys.executable, str(CHILD), "prime", self.workload, str(self.seed),
                   str(self.store), str(claims)]
        commands = [command] * PRIME_PROCESSES
        usage = combined(run_tree(commands, self.log))
        if not usage.ok:
            raise RuntimeError(f"priming failed: exit codes {usage.codes}")
        return usage.wall_s

    def time_clearing(self) -> None:
        """Cold set-up: ``repro cache clear``, the command that empties a
        store, run on hard-linked copies of the full store a sample left.
        The links keep the file system's freeing of the data blocks, which
        varies by far more than the command itself, out of the timing."""
        copy = self.work / "cleared"
        command = [sys.executable, "-m", "repro", "cache", "clear", "--dir", str(copy)]
        for _ in range(CLEARINGS):
            shutil.copytree(self.store, copy, copy_function=os.link)
            (usage,) = run_tree([command], self.log)
            if not usage.ok or tree_bytes(copy):
                raise RuntimeError(f"cache clear failed: exit codes {usage.codes}")
            self.setups.append(usage.wall_s)
            shutil.rmtree(copy)

    def set_up(self) -> None:
        """Prime a warm workload's store; a cold one starts from none."""
        if self.spec.warm:
            self.setups.extend(self.prime() for _ in range(SETUPS))

    def sample(self, span_dir: Optional[Path] = None, at_once: int = 1) -> List[Sample]:
        """Run ``at_once`` samples side by side on the run's store."""
        if not self.spec.warm and self.store.exists():
            if not self.setups:
                self.time_clearing()
            shutil.rmtree(self.store)
        outs = [self.work / f"out-{len(self.samples) + index}.json" for index in range(at_once)]
        commands = [
            [sys.executable, str(CHILD), "run", self.workload, str(self.seed), str(self.store),
             str(out)] + ([str(span_dir)] if span_dir is not None else [])
            for out in outs
        ]
        batch = []
        for usage, out in zip(run_tree(commands, self.log), outs):
            output = json.loads(out.read_text()) if usage.ok and out.exists() else None
            batch.append(Sample(usage, tree_bytes(self.store) / 2**20, output))
        self.samples.extend(batch)
        return batch

    def measure(self, seconds: float) -> None:
        """Sample in rounds for ``seconds``, at least ``MIN_ROUNDS`` times.  A
        serial warm workload keeps every core busy with one sample each, so
        its samples do not all ride on the speed of one core of a shared
        host.  (A cold workload's sample needs the store to itself.)"""
        at_once = usable_cores() if self.spec.jobs == 1 and self.spec.warm else 1
        started = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
            self.sample(at_once=at_once)
            rounds += 1

    def check(self) -> Tuple[int, int, List[str]]:
        """(cells attempted, cells failed, problems) over every sample."""
        import checks

        cells = len(workloads.cells(self.workload))
        problems: List[str] = []
        failed = 0
        first = None
        for index, sample in enumerate(self.samples):
            if sample.output is None:
                found = [f"sample {index} failed: exit codes {sample.usage.codes}"]
            else:
                found = checks.sample_problems(self.workload, self.seed, sample.output, first)
                first = first or sample.output
            if found:
                failed += cells
                problems.extend(found)
        if first is not None:
            try:
                cross = checks.cross_check(self.workload, self.seed, self.store, first["reports"])
            except Exception as error:  # noqa: BLE001 - a crash in the program is a failed check
                cross = [f"cross-check raised {type(error).__name__}: {error}"]
            if cross:
                problems.extend(cross)
                failed = cells * len(self.samples)
        return cells * len(self.samples), failed, problems

    def values(self) -> Dict[str, List[float]]:
        """Every sample's (or set-up's) value of each end-to-end metric."""
        return {
            "wall_s": [s.usage.wall_s for s in self.samples],
            "cpu_s": [s.usage.cpu_s for s in self.samples],
            "setup_s": self.setups,
            "peak_rss_mb": [s.usage.peak_rss_mb for s in self.samples],
            "store_mb": [s.store_mb for s in self.samples],
        }


def traced(run: Run) -> Tuple[Dict[str, float], List[str]]:
    """One untraced and one traced sample: per-layer metrics and problems."""
    import layers

    (plain,) = run.sample()
    span_dir = run.work / "spans"
    (traced_sample,) = run.sample(span_dir)
    spans = layers.load_spans(span_dir)
    root_pids = [span[2] for span in spans if span[0] == "root"]
    if not traced_sample.usage.ok or not root_pids:
        return {}, ["traced sample failed"]
    cells = len(workloads.cells(run.workload))
    metrics, split = layers.layer_metrics(spans, root_pids[0], cells, run.spec.jobs)
    metrics["trace.overhead_s"] = traced_sample.usage.wall_s - plain.usage.wall_s
    problems = []
    parent_sum = sum(split["parent"].values())
    if abs(parent_sum - metrics["trace.parent_wall_s"]) > 1e-6 * max(1.0, parent_sum):
        problems.append(
            f"parent self times sum to {parent_sum}s, not the parent wall "
            f"{metrics['trace.parent_wall_s']}s"
        )
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}"
    (traces / f"{stem}.trace.json").write_text(
        json.dumps(layers.chrome_trace(spans, root_pids[0]))
    )
    calls: Dict[str, int] = {}
    for span in spans:
        calls[span[1]] = calls.get(span[1], 0) + 1
    (traces / f"{stem}.layers.json").write_text(
        json.dumps({"metrics": metrics, "split": split, "calls": calls}, indent=1, sort_keys=True)
    )
    return metrics, problems


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def build() -> None:
    """Byte-compile the program once, so no sample pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from a checkout root",
              file=sys.stderr)
        return 2
    for key in PROGRAM_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, str(ROOT / "src"))
    become_subreaper()
    build()
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        units = declared_units("per_layer" if args.trace else "end_to_end")
        run = Run(args.workload, args.seed, work)
        run.set_up()
        if args.trace:
            metrics, problems = traced(run)
        else:
            run.measure(args.seconds)
            values = run.values()
            metrics = {name: statistics.median(series) for name, series in values.items()}
            problems = []
        undeclared = sorted(set(metrics) ^ set(units))
        if undeclared and not problems:
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {undeclared}")
        attempted, failed, found = run.check()
        problems = found + problems
        if problems and not failed:
            failed = attempted
    except Exception as error:  # noqa: BLE001 - report any set-up failure, print no result
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        log = work / "child.log"
        if log.exists():
            sys.stderr.write(log.read_text()[-4000:])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(run.samples)} sample(s), "
          f"{attempted // max(1, len(run.samples))} cells each")
    for name, value in metrics.items():
        series = " ".join(f"{v:.4g}" for v in values[name]) if not args.trace else ""
        print(f"  {name:34} {value:14.6g} {units[name]:6} {series}".rstrip())
    print(f"  {'error_rate':34} {failed / attempted:14.6g} ratio ({failed}/{attempted} cells)")
    if run.samples and run.samples[0].output is not None:
        import checks

        digest = checks.digests(run.samples[0].output)
        print(f"  digests: figure {digest['figure']} reports {digest['reports']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
