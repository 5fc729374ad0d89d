"""Pack-format cache: segments, indexes, corruption."""

import os

import pytest

from repro.analysis.cache import PackStore
from repro.analysis.corpus import corpus_plan, scaled_play_spec
from repro.analysis.pipeline import (
    AnalysisCache,
    AnalysisSpec,
    analyze_app,
    run_analysis,
)
from repro.analysis.classifier import InstallerClassifier


def run_serial(spec, shards):
    return run_analysis(spec, shards=shards, backend="serial")


def populate(root, apps=40, seed=7):
    """Analyze ``apps`` Play apps into a cache at ``root``; the keys."""
    cache = AnalysisCache(str(root))
    plan = corpus_plan("play", seed=seed, spec=scaled_play_spec(apps))
    classifier = InstallerClassifier()
    keys = []
    for index in range(apps):
        app = plan.app_at(index)
        key = cache.key_for(app)
        cache.store(key, analyze_app(app, classifier))
        keys.append(key)
    cache.flush()
    return keys


# -- pack round trip --------------------------------------------------------------


def test_pack_round_trip_and_segment_layout(tmp_path):
    keys = populate(tmp_path)
    names = sorted(os.listdir(tmp_path))
    packs = [name for name in names if name.endswith(".pack")]
    idxs = [name for name in names if name.endswith(".idx")]
    assert len(packs) == len(idxs) == 1
    # Only segment and index files: no per-app fanout directories.
    assert not [name for name in names if os.path.isdir(tmp_path / name)]
    fresh = AnalysisCache(str(tmp_path))
    assert fresh.segment_count == 1
    for key in keys:
        record = fresh.load(key)
        assert record is not None and record.instructions > 0
    assert fresh.load("ff" * 32) is None


def test_iter_entries_covers_packs_and_buffer(tmp_path):
    keys = populate(tmp_path, apps=10)
    cache = AnalysisCache(str(tmp_path))
    seen = {key for key, _versions, _record in cache.iter_entries()}
    assert seen == set(keys)
    # An unflushed store is listed beside the packed entries.
    app = corpus_plan("play", seed=8, spec=scaled_play_spec(1)).app_at(0)
    buffered = cache.key_for(app)
    assert buffered not in keys
    cache.store(buffered, analyze_app(app, InstallerClassifier()))
    seen = {key for key, _versions, _record in cache.iter_entries()}
    assert seen == set(keys) | {buffered}
    # Every entry carries the versions map the loader validates.
    for _key, versions, record in cache.iter_entries():
        assert "redirect" in versions
        assert isinstance(record["package"], str)


def test_flush_is_idempotent_and_content_addressed(tmp_path):
    populate(tmp_path, apps=10, seed=7)
    first = sorted(os.listdir(tmp_path))
    # Re-analyzing the identical content produces the identical segment
    # name, so the re-flush replaces rather than duplicates.
    populate(tmp_path, apps=10, seed=7)
    assert sorted(os.listdir(tmp_path)) == first


def test_put_rotates_past_record_cap(tmp_path):
    store = PackStore(str(tmp_path), rotate_records=4)
    for index in range(10):
        key = f"{index:02x}" * 32
        store.put(key, {"key": key, "value": index})
    store.flush()
    packs = [name for name in os.listdir(tmp_path)
             if name.endswith(".pack")]
    assert len(packs) == 3  # 4 + 4 + 2
    fresh = PackStore(str(tmp_path))
    for index in range(10):
        key = f"{index:02x}" * 32
        assert fresh.get(key) == {"key": key, "value": index}


# -- corruption -------------------------------------------------------------------


def _segment_paths(root):
    return sorted(str(root / name) for name in os.listdir(root)
                  if name.endswith(".pack"))


def test_missing_index_is_rebuilt_from_segment(tmp_path):
    keys = populate(tmp_path, apps=15)
    for name in os.listdir(tmp_path):
        if name.endswith(".idx"):
            os.unlink(tmp_path / name)
    fresh = AnalysisCache(str(tmp_path))
    assert fresh.segment_count == 1
    for key in keys:
        assert fresh.load(key) is not None


def test_torn_segment_tail_drops_only_the_tail(tmp_path):
    keys = populate(tmp_path, apps=15)
    (path,) = _segment_paths(tmp_path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) - 40])  # tear the last record
    for name in os.listdir(tmp_path):
        if name.endswith(".idx"):
            os.unlink(tmp_path / name)
    fresh = AnalysisCache(str(tmp_path))
    loaded = sum(1 for key in keys if fresh.load(key) is not None)
    assert loaded == len(keys) - 1


def test_flipped_payload_byte_reads_as_miss(tmp_path):
    keys = populate(tmp_path, apps=5)
    (path,) = _segment_paths(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[-1] ^= 0xFF  # corrupt the final payload byte
    open(path, "wb").write(bytes(blob))
    fresh = AnalysisCache(str(tmp_path))
    loaded = sum(1 for key in keys if fresh.load(key) is not None)
    assert loaded == len(keys) - 1


def test_foreign_file_with_pack_suffix_is_ignored(tmp_path):
    populate(tmp_path, apps=5)
    (tmp_path / "seg-feedface00000000.pack").write_bytes(b"not a pack")
    fresh = AnalysisCache(str(tmp_path))
    assert fresh.segment_count == 1


def test_sharded_cold_run_writes_one_segment_per_shard(tmp_path):
    spec = AnalysisSpec(corpus="play", apps=200, cache_dir=str(tmp_path))
    run_serial(spec, shards=4)
    assert len(_segment_paths(tmp_path)) == 4
    warm = run_serial(spec, shards=4)
    assert (warm.cache_hits, warm.cache_misses) == (200, 0)
