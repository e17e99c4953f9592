"""Tests for the content-addressed compilation cache (:class:`StageCache`)
through its ``compile_sources`` front door, and the fingerprint recipe."""

import pickle

import pytest

from repro.lang import compile_sources
from repro.lang.compile import FrontendState
from repro.pipeline import (
    StageCache,
    fingerprint_sources,
    normalize_sources,
)
from repro.pipeline import stages as stages_module
from repro.pipeline.store import TieredStore

SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""

OTHER_SOURCE = SOURCE.replace("Bit(8)", "Bit(16)")


def _default_options() -> dict:
    """The options dict compile_sources keys a default-argument call with."""
    return {
        "top": None,
        "top_args": (),
        "include_stdlib": True,
        "sugaring": True,
        "run_drc": True,
        "strict_drc": True,
        "project_name": "design",
    }


class TestFingerprint:
    def test_deterministic(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"top": None})
        b = fingerprint_sources([(SOURCE, "a.td")], {"top": None})
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_source_text_changes_key(self):
        a = fingerprint_sources([(SOURCE, "a.td")])
        b = fingerprint_sources([(OTHER_SOURCE, "a.td")])
        assert a != b

    def test_filename_changes_key(self):
        assert fingerprint_sources([(SOURCE, "a.td")]) != fingerprint_sources([(SOURCE, "b.td")])

    def test_options_change_key(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"sugaring": True})
        b = fingerprint_sources([(SOURCE, "a.td")], {"sugaring": False})
        assert a != b

    def test_option_order_is_irrelevant(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"top": "x", "sugaring": True})
        b = fingerprint_sources([(SOURCE, "a.td")], {"sugaring": True, "top": "x"})
        assert a == b

    def test_normalize_bare_strings(self):
        assert normalize_sources([SOURCE]) == ((SOURCE, "source_0.td"),)
        # ... and the bare-string form hashes like its normalised twin.
        assert fingerprint_sources([SOURCE]) == fingerprint_sources([(SOURCE, "source_0.td")])

    def test_stage_schema_version_changes_key(self, monkeypatch):
        """Keys from a different per-stage layout can never collide.

        The fingerprint mixes ``STAGE_SCHEMA_VERSION`` into the salt, so
        entries written by an older (or any future) layout address
        different files and are simply never deserialised.
        """
        from repro.pipeline import cache as cache_module

        current = fingerprint_sources([(SOURCE, "a.td")])
        monkeypatch.setattr(cache_module, "STAGE_SCHEMA_VERSION", cache_module.STAGE_SCHEMA_VERSION + 1)
        assert fingerprint_sources([(SOURCE, "a.td")]) != current

    def test_cache_format_version_changes_key(self, monkeypatch):
        from repro.pipeline import cache as cache_module

        current = fingerprint_sources([(SOURCE, "a.td")])
        monkeypatch.setattr(cache_module, "CACHE_VERSION", cache_module.CACHE_VERSION + 1)
        assert fingerprint_sources([(SOURCE, "a.td")]) != current


class TestCompileSourcesCacheHook:
    def test_miss_then_hit(self):
        cache = StageCache()
        first = compile_sources([(SOURCE, "a.td")], cache=cache)
        second = compile_sources([(SOURCE, "a.td")], cache=cache)
        # An in-memory hit serves the stored frontend snapshot itself.
        assert second.project is first.project
        assert cache.stats.evaluate_hits == 1
        assert cache.stats.evaluate_misses == 1

    def test_source_change_invalidates(self):
        cache = StageCache()
        first = compile_sources([(SOURCE, "a.td")], cache=cache)
        changed = compile_sources([(OTHER_SOURCE, "a.td")], cache=cache)
        assert changed.project is not first.project
        assert cache.stats.evaluate_misses == 2

    def test_option_change_invalidates(self):
        cache = StageCache()
        compile_sources([(SOURCE, "a.td")], cache=cache)
        no_sugar = compile_sources([(SOURCE, "a.td")], sugaring=False, cache=cache)
        assert cache.stats.evaluate_misses == 2
        assert "sugaring" not in no_sugar.stage_names()

    def test_cached_result_ir_identical(self):
        cache = StageCache()
        cold = compile_sources([(SOURCE, "a.td")], cache=cache)
        warm = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert warm.ir_text() == cold.ir_text()


def _design(width: int) -> list[tuple[str, str]]:
    return [(SOURCE.replace("Bit(8)", f"Bit({width})"), "a.td")]


class TestLru:
    def test_eviction_of_least_recently_used(self, monkeypatch):
        monkeypatch.setitem(stages_module.STAGE_CAPACITY, "eval", 2)
        cache = StageCache()
        compile_sources(_design(1), cache=cache)
        compile_sources(_design(2), cache=cache)
        compile_sources(_design(1), cache=cache)  # design 1 is now most recent
        compile_sources(_design(3), cache=cache)  # evicts design 2
        assert cache.stats.evaluate_hits == 1
        compile_sources(_design(1), cache=cache)
        compile_sources(_design(3), cache=cache)
        assert cache.stats.evaluate_hits == 3
        compile_sources(_design(2), cache=cache)  # recompiled
        assert cache.stats.evaluate_misses == 4

    def test_max_entries_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            StageCache(max_disk_bytes=-1)
        monkeypatch.setitem(stages_module.STAGE_CAPACITY, "eval", 0)
        with pytest.raises(ValueError):
            StageCache()


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path, disk_rows):
        cache_dir = tmp_path / ".tydi-cache"
        writer = StageCache(cache_dir=cache_dir)
        cold = compile_sources([(SOURCE, "a.td")], cache=writer)
        assert writer.stats.disk_stores >= 2  # the AST and the snapshot
        assert len(disk_rows(cache_dir).keys("eval")) == 1

        reader = StageCache(cache_dir=cache_dir)
        warm = compile_sources([(SOURCE, "a.td")], cache=reader)
        assert reader.stats.evaluate_hits == 1
        assert reader.stats.disk_hits == 1  # the snapshot alone
        assert warm.project is not cold.project  # pickle round-trip, not an alias
        assert warm.ir_text() == cold.ir_text()

    def test_corrupt_entry_is_a_miss(self, tmp_path, disk_rows):
        cache = StageCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=cache)
        rows = disk_rows(tmp_path)
        assert rows.overwrite("eval", b"definitely not a pickle") == 1

        fresh = StageCache(cache_dir=tmp_path)
        result = compile_sources([(SOURCE, "a.td")], cache=fresh)
        assert result is not None
        assert fresh.stats.disk_errors == 1
        assert fresh.stats.evaluate_hits == 0
        assert fresh.stats.evaluate_misses == 1
        # The corrupt artefact was dropped and replaced by the recompile.
        (key,) = rows.keys("eval")
        reloaded = pickle.loads(rows.blob("eval", key))
        assert isinstance(reloaded, FrontendState)
        assert compile_sources([(SOURCE, "a.td")]).ir_text() == result.ir_text()
        assert [str(s) for s in reloaded.stages] == [str(s) for s in result.stages]

    def test_old_layout_entry_is_never_deserialized(self, tmp_path, monkeypatch, disk_rows):
        """An older store layout misses instead of loading.

        The old entries address different keys (and, for the retired
        one-file-per-blob layouts, different paths), so the new layout
        recompiles and stores under its own key; the stale artefacts are
        left untouched until disk eviction (or a manual clear) reaps them --
        they are never loaded into the new layout.
        """
        # Write artefacts under the keys an *older* schema would compute --
        # with payloads that would blow up if they were ever unpickled.
        monkeypatch.setattr(stages_module, "STAGE_SCHEMA_VERSION", 0)
        old_snapshot = StageCache().snapshot_key([(SOURCE, "a.td")], _default_options())
        monkeypatch.undo()
        old_result = fingerprint_sources([(SOURCE, "a.td")], _default_options())
        stale = [
            tmp_path / "stages" / f"eval-{old_snapshot}.pkl",
            tmp_path / f"{old_result}.pkl",
        ]
        stale[0].parent.mkdir(parents=True)
        for path in stale:
            path.write_bytes(b"stale layout, do not load")
        TieredStore("eval", 1, cache_dir=tmp_path).put("unrelated", "creates the database")
        rows = disk_rows(tmp_path)
        rows.insert("eval", [old_snapshot], b"stale schema, do not load")

        cache = StageCache(cache_dir=tmp_path)
        result = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert result.project.top == "echo_i"
        assert cache.stats.disk_errors == 0  # the stale entries were never opened
        assert cache.stats.evaluate_misses == 1
        assert all(path.exists() for path in stale)
        assert rows.blob("eval", old_snapshot) == b"stale schema, do not load"

    def test_unreadable_stage_entry_is_a_miss(self, tmp_path, disk_rows):
        """Corrupt artefacts of every tier recover as misses."""
        cache = StageCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=cache)
        rows = disk_rows(tmp_path)
        assert rows.overwrite("ast", b"truncated garbage") + rows.overwrite("eval", b"truncated garbage") == 2

        fresh = StageCache(cache_dir=tmp_path)
        result = compile_sources([(SOURCE, "a.td")], cache=fresh)
        assert result.project.top == "echo_i"
        assert fresh.stats.disk_errors == 2  # the snapshot, then the AST

    def test_clear_disk(self, tmp_path, disk_rows):
        cache = StageCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=cache)
        cache.clear(disk=True)
        assert len(cache) == 0
        assert disk_rows(tmp_path).rows() == 0 and disk_rows(tmp_path).ledger() == 0

    def test_eviction_keeps_disk_copy(self, tmp_path, monkeypatch):
        monkeypatch.setitem(stages_module.STAGE_CAPACITY, "eval", 1)
        cache = StageCache(cache_dir=tmp_path)
        a = compile_sources([(SOURCE, "a.td")], cache=cache)
        compile_sources([(OTHER_SOURCE, "b.td")], cache=cache)  # evicts a from memory
        again = compile_sources([(SOURCE, "a.td")], cache=cache)
        assert cache.stats.evaluate_hits == 1
        assert cache.stats.disk_hits == 1
        assert again.ir_text() == a.ir_text()


class TestStats:
    def test_hit_rate(self):
        store = TieredStore("eval", 4)
        assert store.get("k") is None
        store.put("k", "v")
        assert store.get("k") == "v"
        assert store.get("k") == "v"
        assert store.stats.lookups == 3
        assert store.stats.hit_rate() == pytest.approx(2 / 3)
        assert store.stats.as_dict()["hits"] == 2


class TestClearRecursive:
    def test_clear_disk_removes_stage_artefacts_without_stage_caching(self, tmp_path, disk_rows):
        """Regression: clear(disk=True) from an instance that never staged
        anything itself must still reclaim every artefact on disk (which
        would otherwise count against max_disk_bytes), the retired
        one-file-per-blob layouts' files included."""
        warm = StageCache(cache_dir=tmp_path)
        compile_sources([(SOURCE, "a.td")], cache=warm)
        assert disk_rows(tmp_path).rows() == 2
        (tmp_path / "retired-layout.pkl").write_bytes(b"x")
        (tmp_path / "stages").mkdir()
        (tmp_path / "stages" / "eval-retired.pkl").write_bytes(b"x")

        cache = StageCache(cache_dir=tmp_path)
        cache.clear(disk=True)
        assert not list(tmp_path.rglob("*.pkl"))
        assert disk_rows(tmp_path).rows() == 0

    def test_clear_disk_removes_leaked_tmp_files(self, tmp_path):
        (tmp_path / "stages").mkdir()
        (tmp_path / "dead.pkl.tmp").write_bytes(b"x")
        (tmp_path / "stages" / "dead.pkl.tmp").write_bytes(b"x")
        cache = StageCache(cache_dir=tmp_path)
        cache.clear(disk=True)
        assert not list(tmp_path.rglob("*.tmp"))


class TestTmpSweep:
    def test_stale_tmp_files_are_swept(self, tmp_path):
        """Regression: a writer of the retired one-file-per-blob layout,
        SIGKILLed mid-write, leaked a *.tmp file that eviction never
        deleted.  A budgeted open sweeps them."""
        import os

        stale = [tmp_path / "orphan.pkl.tmp", tmp_path / "stages" / "orphan.pkl.tmp"]
        stale[1].parent.mkdir()
        for path in stale:
            path.write_bytes(b"x" * 100)
            old = path.stat().st_mtime - 3600
            os.utime(path, (old, old))
        cache = StageCache(cache_dir=tmp_path, max_disk_bytes=10_000)
        assert cache.stats.disk_evictions == 0  # GC, not a budget eviction
        assert not any(path.exists() for path in stale)

    def test_budgeted_open_deletes_the_retired_layout_once(self, tmp_path):
        """The retired layout's files are outside the ledger, so a budgeted
        open deletes them, and the budget covers the whole dir again; an
        unbudgeted open leaves them, and no budget pass looks for them."""
        retired = [tmp_path / "stages" / "eval-old.pkl", tmp_path / "stages" / "inflight.pkl.tmp"]
        retired[0].parent.mkdir()
        for path in retired:
            path.write_bytes(b"y" * 600)
        StageCache(cache_dir=tmp_path)
        assert all(path.exists() for path in retired)

        cache = StageCache(cache_dir=tmp_path, max_disk_bytes=1000)
        assert not any(path.exists() for path in retired)
        assert list(tmp_path.iterdir()) == []  # the emptied stages/ dir too

        late = tmp_path / "late.pkl"
        late.write_bytes(b"z")
        compile_sources([(SOURCE, "a.td")], cache=cache)
        assert late.exists()


class TestCanonicalOptions:
    def test_dict_valued_option_order_invariant(self):
        """Regression: repr() of dicts leaks key insertion order into the
        fingerprint, so semantically identical options spuriously missed."""
        a = fingerprint_sources(
            [(SOURCE, "a.td")],
            {"backend_options": {"vhdl": {"indent": 2, "header": True}}},
        )
        b = fingerprint_sources(
            [(SOURCE, "a.td")],
            {"backend_options": {"vhdl": {"header": True, "indent": 2}}},
        )
        assert a == b

    def test_dict_content_still_changes_key(self):
        a = fingerprint_sources([(SOURCE, "a.td")], {"backend_options": {"vhdl": {"indent": 2}}})
        b = fingerprint_sources([(SOURCE, "a.td")], {"backend_options": {"vhdl": {"indent": 4}}})
        assert a != b

    def test_evaluate_key_order_invariant(self):
        from repro.pipeline.stages import StageCache

        stages = StageCache()
        a = stages.evaluate_key([(SOURCE, "a.td")], {"top_args": {"x": 1, "y": 2}})
        b = stages.evaluate_key([(SOURCE, "a.td")], {"top_args": {"y": 2, "x": 1}})
        assert a == b

    def test_canonical_repr_shapes(self):
        from repro.pipeline.cache import canonical_option_repr

        assert canonical_option_repr({"b": 1, "a": 2}) == canonical_option_repr({"a": 2, "b": 1})
        assert canonical_option_repr((1,)) == "(1,)"
        assert canonical_option_repr([1, 2]) == "[1, 2]"
        assert canonical_option_repr({3, 1, 2}) == canonical_option_repr({2, 1, 3})
        # Ordered containers stay order-sensitive: (1, 2) is not (2, 1).
        assert canonical_option_repr((1, 2)) != canonical_option_repr((2, 1))
