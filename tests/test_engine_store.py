"""Tests for the persistent artifact cache and the parallel grid runner."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.engine.grid import GridCell
from repro.engine.store import TraceStore, layout_digest, program_digest
from repro.errors import TraceError
from repro.experiments.runner import ExperimentRunner
from repro.layout import original_layout
from repro.layout.placement import LayoutPolicy
from repro.resilience import chaos
from repro.resilience.chaos import ChaosConfig, ChaosRule
from repro.trace.executor import CfgWalker
from repro.trace.fetch import line_events_from_block_trace
from repro.trace.io import load_block_trace, save_block_trace

KB = 1024


@pytest.fixture()
def traced(toy_program, toy_models):
    trace = CfgWalker(toy_program, toy_models, seed=0).walk(800)
    layout = original_layout(toy_program)
    events = line_events_from_block_trace(trace, toy_program, layout, 32)
    return trace, events


@pytest.fixture()
def store(tmp_path):
    return TraceStore(tmp_path / "cache")


def assert_same_block_trace(a, b):
    assert a.program_name == b.program_name
    assert a.num_instructions == b.num_instructions
    assert a.num_program_runs == b.num_program_runs
    assert np.array_equal(a.uids, b.uids)


def assert_same_events(a, b):
    assert a.line_size == b.line_size
    assert np.array_equal(a.line_addrs, b.line_addrs)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.slots, b.slots)


class TestKeyedArchives:
    """The cache-key plumbing in repro.trace.io."""

    def test_matching_key_loads(self, tmp_path, traced):
        trace, _ = traced
        path = tmp_path / "t"
        save_block_trace(trace, path, key="spam")
        assert_same_block_trace(load_block_trace(path, expected_key="spam"), trace)

    def test_mismatched_key_raises(self, tmp_path, traced):
        trace, _ = traced
        path = tmp_path / "t"
        save_block_trace(trace, path, key="spam")
        with pytest.raises(TraceError, match="different key"):
            load_block_trace(path, expected_key="eggs")

    def test_keyless_archive_fails_key_check_but_loads_plain(self, tmp_path, traced):
        trace, _ = traced
        path = tmp_path / "t"
        save_block_trace(trace, path)
        with pytest.raises(TraceError, match="different key"):
            load_block_trace(path, expected_key="spam")
        # and without an expectation the same entry is fine
        assert_same_block_trace(load_block_trace(path), trace)


class TestTraceStore:
    def test_resolve_disabled_values(self, monkeypatch):
        for value in ("off", "none", "0", "", "OFF"):
            assert TraceStore.resolve(value) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert TraceStore.resolve() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        resolved = TraceStore.resolve()
        assert resolved is not None and str(resolved.root) == "/tmp/somewhere"

    def test_block_trace_roundtrip(self, store, traced):
        trace, _ = traced
        assert store.load_block_trace("k1") is None
        store.save_block_trace("k1", trace)
        assert_same_block_trace(store.load_block_trace("k1"), trace)
        assert store.hits == 1 and store.misses == 1

    def test_events_roundtrip(self, store, traced):
        _, events = traced
        assert store.load_events("k1") is None
        store.save_events("k1", events)
        assert_same_events(store.load_events("k1"), events)

    def test_corrupted_entry_is_deleted_and_misses(self, store, traced):
        trace, _ = traced
        path = store.save_block_trace("k1", trace)
        (path / "uids.npy").write_bytes(b"not an npy member")
        assert store.load_block_trace("k1") is None
        assert not path.exists()

    def test_entry_missing_its_meta_record_is_deleted(self, store, traced):
        trace, _ = traced
        path = store.save_block_trace("k1", trace)
        (path / "meta.json").unlink()
        assert store.load_block_trace("k1") is None
        assert not path.exists()

    def test_stale_key_is_deleted_and_misses(self, store, traced):
        """An entry whose embedded key disagrees (hash collision, moved
        file, format drift) must re-derive, not silently load."""
        trace, _ = traced
        path = store.path_for("blocks", "k1")
        store.root.mkdir(parents=True, exist_ok=True)
        save_block_trace(trace, path, key="something-else")
        assert store.load_block_trace("k1") is None
        assert not path.exists()

    def test_profile_roundtrip(self, store, fast_runner):
        profile = fast_runner.profile("crc")
        assert store.load_profile("p1") is None
        store.save_profile("p1", profile)
        loaded = store.load_profile("p1")
        assert loaded.block_counts == profile.block_counts
        assert loaded.edge_counts == profile.edge_counts

    def test_stale_profile_is_deleted(self, store, fast_runner):
        profile = fast_runner.profile("crc")
        path = store.save_profile("p1", profile)
        payload = json.loads(path.read_text())
        payload["cache_key"] = "someone-else"
        path.write_text(json.dumps(payload))
        assert store.load_profile("p1") is None
        assert not path.exists()

    def test_stats_and_clear(self, store, traced):
        trace, events = traced
        store.save_block_trace("k1", trace)
        store.save_events("k2", events)
        stats = store.stats()
        assert stats["entries"] == {"blocks": 1, "events": 1, "profile": 0}
        assert stats["total_bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["entries"] == {"blocks": 0, "events": 0, "profile": 0}


class TestStoreFailureModes:
    """Environment faults injected through the chaos sites in the store
    itself (``store.save``/``store.load``/``store.discard``) — the same
    code paths the supervised grids exercise, not monkeypatched globals.
    """

    def test_truncated_entry_is_a_miss_and_rederives(self, store, traced):
        trace, _ = traced
        rule = ChaosRule("store.save", "truncate", match="blocks:k1", times=1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            path = store.save_block_trace("k1", trace)
        assert path.exists()
        # the torn archive is detected, discarded, and treated as a miss
        assert store.load_block_trace("k1") is None
        assert not path.exists()
        # re-deriving and re-saving fully recovers the entry
        store.save_block_trace("k1", trace)
        assert_same_block_trace(store.load_block_trace("k1"), trace)

    def test_concurrent_writer_race_never_exposes_partial_entries(
        self, store, traced
    ):
        """Writers stage under unique tmp names and publish atomically; a
        racing writer of the same key concedes cleanly (directories cannot
        atomically replace non-empty directories) and readers always see a
        valid entry."""
        trace, _ = traced
        path = store.save_block_trace("k1", trace)
        # a second store (another process) writes the same key concurrently
        rival = TraceStore(store.root)
        assert rival.save_block_trace("k1", trace) == path
        assert not rival.writes_disabled
        assert_same_block_trace(store.load_block_trace("k1"), trace)
        # stray staging litter (a writer that died mid-stage) is not an entry
        (store.root / "profile-dead.12345.tmp.json").write_bytes(b"partial")
        dead_dir = store.root / "blocks-dead.67890.tmp.v2"
        dead_dir.mkdir()
        (dead_dir / "uids.npy").write_bytes(b"partial")
        assert store.entries() == {"blocks": 1, "events": 0, "profile": 0}

    def test_write_failure_degrades_to_cache_off_with_one_warning(
        self, store, traced, monkeypatch
    ):
        import repro.engine.store as store_module

        monkeypatch.setattr(store_module, "_warned_write_failure", False)
        trace, events = traced
        store.save_block_trace("k1", trace)  # healthy write first
        rule = ChaosRule("store.save", "enospc", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert store.save_events("k2", events) is None
                assert store.save_events("k3", events) is None
        relevant = [w for w in caught if "trace cache write" in str(w.message)]
        assert len(relevant) == 1
        assert store.writes_disabled
        assert store.stats()["writes_disabled"] is True
        # reads keep serving after writes degrade
        assert_same_block_trace(store.load_block_trace("k1"), trace)
        # and no torn tmp file is left behind
        assert not list(store.root.glob("*.tmp.*"))

    def test_degraded_store_still_supports_a_full_run(self, tmp_path):
        """End to end: a cache on a 'full disk' never fails the experiment."""
        rule = ChaosRule("store.save", "enospc", times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                runner = make_runner(tmp_path / "cache")
                report = runner.report("crc", "baseline")
        assert report == make_runner("off").report("crc", "baseline")
        assert runner.store.writes_disabled

    def test_undeletable_corrupt_entry_is_quarantined(self, store, traced):
        trace, _ = traced
        path = store.save_block_trace("k1", trace)
        (path / "uids.npy").write_bytes(b"not an npy member")
        rule = ChaosRule("store.discard", "eacces", match=path.name, times=-1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            assert store.load_block_trace("k1") is None
        # moved aside, never resolvable again, invisible to entry counts
        assert not path.exists()
        assert (store.root / "quarantine" / path.name).exists()
        assert store.entries()["blocks"] == 0
        # but stats() surfaces it, and clear() empties the quarantine
        stats = store.stats()
        assert stats["quarantined"] == 1
        assert stats["quarantine_bytes"] > 0
        assert store.clear() == 1
        assert not (store.root / "quarantine").exists()
        assert store.stats()["quarantined"] == 0
        assert store.load_block_trace("k1") is None  # plain miss now

    def test_transient_read_fault_keeps_the_entry(self, store, traced):
        """An ``OSError`` during load is an environment hiccup, not a bad
        entry: miss this time, but the entry survives for the next reader."""
        trace, _ = traced
        path = store.save_block_trace("k1", trace)
        rule = ChaosRule("store.load", "eacces", match="blocks:k1", times=1)
        with chaos.active(ChaosConfig(seed=0, rules=(rule,))):
            assert store.load_block_trace("k1") is None
        assert path.exists()
        assert_same_block_trace(store.load_block_trace("k1"), trace)


class TestFormatV2AndMigration:
    """Format v2 entry directories, and the retired v1 format: its
    leftovers are never read, only counted and cleared."""

    KEY = f"v{TraceStore.FORMAT_VERSION}|blocks|toy|seed=0"

    def test_v2_entries_are_mmapable_directories(self, store, traced):
        trace, _ = traced
        path = store.save_block_trace("k1", trace)
        assert path.is_dir() and path.suffix == ".v2"
        assert (path / "meta.json").exists() and (path / "uids.npy").exists()
        loaded = store.load_block_trace("k1")
        assert_same_block_trace(loaded, trace)
        assert loaded.uids.flags.writeable is False

    def test_leftover_v1_entries_are_inert(
        self, store, traced, fast_runner, monkeypatch
    ):
        """A v1-era ``.npz`` trace and a ``v1|``-keyed profile miss, the
        trace re-derives as a v2 entry, and neither leftover is opened."""
        import zipfile

        trace, _ = traced
        v1_key = "v1|" + self.KEY.split("|", 1)[1]
        profile_key = f"v{TraceStore.FORMAT_VERSION}|profile|crc"
        v1_name = hashlib.sha256(v1_key.encode()).hexdigest()[:24]
        store.root.mkdir(parents=True)
        npz = store.root / f"blocks-{v1_name}.npz"
        np.savez_compressed(
            npz,
            kind=np.array("repro-block-trace-v1"),
            cache_key=np.array(v1_key),
            program_name=np.array(trace.program_name),
            uids=trace.uids,
            num_instructions=np.array(trace.num_instructions),
            num_program_runs=np.array(trace.num_program_runs),
        )
        v1_profile = store.save_profile(
            "v1|" + profile_key.split("|", 1)[1], fast_runner.profile("crc")
        )
        leftover_bytes = npz.stat().st_size + v1_profile.stat().st_size

        opened = []

        def no_zip(file, *args, **kwargs):
            opened.append(file)
            raise AssertionError("a v1 .npz archive was opened")

        monkeypatch.setattr(zipfile, "ZipFile", no_zip)
        assert store.load_block_trace(self.KEY) is None
        assert store.load_profile(profile_key) is None
        assert store.hits == 0 and store.misses == 2
        # re-deriving after the miss publishes a v2 entry beside the leftovers
        path = store.save_block_trace(self.KEY, trace)
        assert path.suffix == ".v2"
        assert_same_block_trace(store.load_block_trace(self.KEY), trace)
        assert npz.exists() and v1_profile.exists()

        stats = store.stats()
        assert stats["entries"] == {"blocks": 2, "events": 0, "profile": 1}
        v2_bytes = sum(member.stat().st_size for member in path.iterdir())
        assert stats["total_bytes"] == leftover_bytes + v2_bytes
        assert store.clear() == 3
        assert not npz.exists() and not v1_profile.exists()
        assert opened == []

    def test_tmp_staging_names_are_unique_within_a_process(self, store):
        path = store.path_for("blocks", "k1")
        names = {store._tmp_for(path).name for _ in range(64)}
        assert len(names) == 64

    def test_threaded_same_key_saves_never_collide(self, store, traced):
        """Concurrent saves of one key used to stage under the same
        pid-derived tmp name; the nonce makes each staging path unique and
        the losers of the publish race concede cleanly."""
        from concurrent.futures import ThreadPoolExecutor

        trace, _ = traced
        with ThreadPoolExecutor(max_workers=8) as pool:
            paths = list(
                pool.map(lambda _: store.save_block_trace("k1", trace), range(16))
            )
        assert all(path is not None for path in paths)
        assert not store.writes_disabled
        assert_same_block_trace(store.load_block_trace("k1"), trace)
        assert not [p for p in store.root.iterdir() if ".tmp" in p.name]


class TestDigests:
    def test_program_digest_distinguishes_programs(self, toy_program, crc_workload):
        assert program_digest(toy_program) == program_digest(toy_program)
        assert program_digest(toy_program) != program_digest(crc_workload.program)

    def test_layout_digest_distinguishes_layouts(self, fast_runner):
        original = fast_runner.layout("crc", LayoutPolicy.ORIGINAL)
        placed = fast_runner.layout("crc", LayoutPolicy.WAY_PLACEMENT)
        assert layout_digest(original) == layout_digest(original)
        assert layout_digest(original) != layout_digest(placed)


def make_runner(cache_dir, **kwargs):
    kwargs.setdefault("eval_instructions", 8_000)
    kwargs.setdefault("profile_instructions", 4_000)
    return ExperimentRunner(cache_dir=cache_dir, **kwargs)


class TestRunnerCache:
    def test_warm_cache_skips_all_cfg_walks(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cold = make_runner(cache)
        cold_report = cold.report("crc", "way-placement", wpa_size=8 * KB)
        assert cold.store.misses > 0

        # A fresh process is simulated by a fresh runner (empty in-process
        # memos).  With the cache warm it must never walk a CFG again.
        def refuse(*args, **kwargs):
            raise AssertionError("CfgWalker ran despite a warm cache")

        monkeypatch.setattr(
            "repro.experiments.runner.CfgWalker",
            type("NoWalker", (), {"__init__": refuse}),
        )
        warm = make_runner(cache)
        warm_report = warm.report("crc", "way-placement", wpa_size=8 * KB)
        assert warm.store.hits > 0 and warm.store.misses == 0
        assert warm_report.counters == cold_report.counters

    def test_disabled_cache_still_works(self, tmp_path):
        runner = make_runner("off")
        assert runner.store is None
        report = runner.report("crc", "baseline")
        assert report.counters.fetches > 0

    def test_cached_and_uncached_runs_agree(self, tmp_path):
        cached = make_runner(tmp_path / "cache")
        uncached = make_runner("off")
        for scheme, wpa in (("baseline", 0), ("way-placement", 8 * KB)):
            a = cached.report("crc", scheme, wpa_size=wpa)
            b = uncached.report("crc", scheme, wpa_size=wpa)
            assert a.counters == b.counters


class TestRunGrid:
    CELLS = [
        GridCell("crc", "baseline"),
        GridCell("crc", "way-placement", wpa_size=8 * KB),
        GridCell("sha", "baseline"),
        GridCell("sha", "way-placement", wpa_size=8 * KB),
    ]

    def test_serial_grid_matches_direct_reports(self, tmp_path):
        runner = make_runner(tmp_path / "cache")
        reports = runner.run_grid(self.CELLS, jobs=1)
        for cell, report in zip(self.CELLS, reports):
            assert report is runner.report(**cell.report_kwargs())

    def test_parallel_grid_matches_serial(self, tmp_path):
        serial = make_runner(tmp_path / "a")
        parallel = make_runner(tmp_path / "b")
        want = serial.run_grid(self.CELLS, jobs=1)
        got = parallel.run_grid(self.CELLS, jobs=2)
        for a, b in zip(want, got):
            assert a.counters == b.counters
            assert a.cycles == b.cycles
        # the parent memoised every cell: further reports are recalls
        for cell in self.CELLS:
            assert parallel.has_report(cell)

    def test_grid_reuses_memoised_cells(self, tmp_path):
        runner = make_runner(tmp_path / "cache")
        first = runner.report("crc", "baseline")
        reports = runner.run_grid([GridCell("crc", "baseline")], jobs=4)
        assert reports[0] is first
