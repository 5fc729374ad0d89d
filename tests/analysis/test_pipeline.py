"""Tests for the sharded measurement pipeline (repro.analysis.pipeline).

The load-bearing contract: for ANY shard/worker split, the merged
stats, the rendered tables, and the exported trace records are
identical to a serial run — and the measurement tables built from the
sharded stats carry the paper's pinned counts.
"""

import json

import pytest

from repro.analysis import classifier as classifier_mod
from repro.analysis.factory_images import generate_fleet
from repro.analysis.hare_analysis import search_images
from repro.analysis.pipeline import (
    AnalysisCache,
    AnalysisSpec,
    AnalysisStats,
    merge_analysis_stats,
    run_analysis,
)
from repro.errors import ReproError
from repro.measurement.tables import (
    compute_table2,
    compute_table3,
    compute_table4,
    compute_table5,
    compute_table6,
)


def run_serial(spec, shards=1):
    return run_analysis(spec, shards=shards, backend="serial")


# -- mergeable tallies ------------------------------------------------------------


def test_stats_merge_is_associative_with_identity():
    a = AnalysisStats(counters={"apps": 1, "x": 2}, sets={"s": {"p"}})
    b = AnalysisStats(counters={"apps": 3}, sets={"s": {"q"}, "t": {"r"}})
    c = AnalysisStats(counters={"x": 5})
    left = merge_analysis_stats([merge_analysis_stats([a, b]), c])
    right = merge_analysis_stats([a, merge_analysis_stats([b, c])])
    assert left.identity_tuple() == right.identity_tuple()
    with_identity = merge_analysis_stats([AnalysisStats(), a])
    assert with_identity.identity_tuple() == a.identity_tuple()


# -- golden sharded-vs-serial equality on both paper corpora ----------------------


@pytest.fixture(scope="module")
def play_report():
    return run_serial(AnalysisSpec(corpus="play"), shards=4)


@pytest.fixture(scope="module")
def preinstalled_report():
    return run_serial(AnalysisSpec(corpus="preinstalled"), shards=4)


def test_play_pipeline_matches_measurement_tables(play_report):
    table2 = compute_table2(play_report.stats)
    assert table2.corpus_size == 12750
    assert table2.installers == 1493
    assert table2.vulnerable == 779
    assert table2.secure == 152
    assert table2.unknown == 562
    assert table2.write_external == 8721
    table4 = compute_table4(play_report.stats)
    assert {limit: count for limit, (count, _share)
            in table4.buckets.items()} == {1: 723, 2: 1405, 4: 2090, 8: 2337}
    assert table4.redirecting == 10799


def test_preinstalled_pipeline_matches_measurement_tables(preinstalled_report):
    table3 = compute_table3(preinstalled_report.stats)
    assert table3.corpus_size == 1613
    assert table3.installers == 238
    assert table3.vulnerable == 102
    assert table3.secure == 3
    assert table3.unknown == 133
    assert table3.total_instances == 12050
    assert table3.write_external_instances == 5864


@pytest.mark.parametrize("corpus", ["play", "preinstalled"])
@pytest.mark.parametrize("shards", [1, 3, 8])
def test_sharded_equals_serial_on_paper_corpora(corpus, shards, play_report,
                                                preinstalled_report):
    golden = play_report if corpus == "play" else preinstalled_report
    report = run_serial(AnalysisSpec(corpus=corpus), shards=shards)
    assert report.stats.identity_tuple() == golden.stats.identity_tuple()
    assert report.render() == golden.render()


def test_process_backend_equals_serial():
    spec = AnalysisSpec(corpus="play", apps=2000)
    serial = run_serial(spec, shards=1)
    pooled = run_analysis(spec, shards=5, workers=2, backend="process")
    assert pooled.stats.identity_tuple() == serial.stats.identity_tuple()
    assert pooled.render() == serial.render()


# -- trace byte-identity across splits --------------------------------------------


def test_trace_records_identical_for_any_split():
    spec = AnalysisSpec(corpus="play", apps=600, observe=True)
    baseline = run_serial(spec, shards=1).trace_records()
    assert baseline, "observe=True must record spans"
    for shards in (2, 5, 9):
        records = run_serial(spec, shards=shards).trace_records()
        assert records == baseline
    # Byte-identical once serialized, not merely equal as objects.
    as_json = [json.dumps(record, sort_keys=True) for record in baseline]
    again = [json.dumps(record, sort_keys=True)
             for record in run_serial(spec, shards=7).trace_records()]
    assert again == as_json


def test_trace_spans_use_global_app_index_as_time():
    spec = AnalysisSpec(corpus="play", apps=50, observe=True)
    records = run_serial(spec, shards=3).trace_records()
    starts = [record["start_ns"] for record in records]
    assert starts == [index * 1000 for index in range(50)]
    assert all("shard" not in record for record in records)


# -- the images corpus (hare + platform keys + Table V) ---------------------------


@pytest.fixture(scope="module")
def images_report():
    return run_serial(AnalysisSpec(corpus="images"), shards=6)


#: Table V as the paper-scale fleet pins it: package -> (images,
#: carriers, vendors, models).
TABLE5_ROWS = {
    "com.amazon.venezia": (192, 2, 1, 192),
    "com.dti.ignite": (857, 9, 1, 677),
    "com.xiaomi.market": (382, 4, 1, 149),
    "com.huawei.appmarket": (234, 4, 1, 135),
    "com.sprint.zone": (96, 1, 1, 96),
}


def test_images_pipeline_matches_table5(images_report):
    rows = compute_table5(images_report.stats).rows
    assert {row.installer_package: (row.image_count, len(row.carriers),
                                    len(row.vendors), row.models)
            for row in rows} == TABLE5_ROWS
    assert [row.installer_package for row in rows] == list(TABLE5_ROWS)


def test_images_pipeline_matches_table6(images_report):
    table6 = compute_table6(images_report.stats)
    assert [(row.vendor, round(row.avg_install_packages, 1),
             round(row.avg_system_apps, 1)) for row in table6.rows] == [
        ("samsung", 17.7, 209.0), ("xiaomi", 14.0, 117.0),
        ("huawei", 15.0, 144.0)]
    assert table6.doubled_over_period
    assert table6.flagship_range == (29, 31)


def test_images_pipeline_matches_hare_study(images_report):
    study = search_images(generate_fleet(2016))
    assert images_report.stats.count("hare/cases") == study.total_cases == 27763
    assert (images_report.stats.cardinality("hare/apps")
            == len(study.hare_apps) == 178)
    assert images_report.stats.count("hare/searched_images") == 1181


def test_images_sharding_is_split_invariant(images_report):
    other = run_serial(AnalysisSpec(corpus="images"), shards=13)
    assert other.stats.identity_tuple() == images_report.stats.identity_tuple()


def test_scaled_images_corpus_shards_by_global_index():
    spec = AnalysisSpec(corpus="images", apps=150)
    serial = run_serial(spec, shards=1)
    assert serial.stats.count("images") == 150
    for shards in (4, 7):
        assert (run_serial(spec, shards=shards).stats.identity_tuple()
                == serial.stats.identity_tuple())


# -- the content-addressed cache --------------------------------------------------


def test_warm_cache_reanalyzes_nothing(tmp_path):
    spec = AnalysisSpec(corpus="play", apps=300, cache_dir=str(tmp_path))
    cold = run_serial(spec, shards=2)
    assert (cold.cache_hits, cold.cache_misses) == (0, 300)
    warm = run_serial(spec, shards=5)  # different split, same cache
    assert (warm.cache_hits, warm.cache_misses) == (300, 0)
    assert warm.stats.identity_tuple() == cold.stats.identity_tuple()
    assert warm.trace_records() == cold.trace_records()


def test_detector_version_bump_invalidates_only_consulted_apps(
        tmp_path, monkeypatch):
    spec = AnalysisSpec(corpus="play", apps=400, cache_dir=str(tmp_path))
    cold = run_serial(spec, shards=2)
    # Count apps whose verdict consulted the chmod detector: only
    # installers reach setter analysis, and of those only the ones whose
    # code invokes Runtime.exec.
    cache = AnalysisCache(str(tmp_path))
    consulted = sum(1 for _key, versions, _record in cache.iter_entries()
                    if "chmod" in versions)
    assert 0 < consulted < 400
    monkeypatch.setitem(classifier_mod.DETECTOR_VERSIONS, "chmod", 2)
    warm = run_serial(spec, shards=2)
    assert warm.cache_misses == consulted
    assert warm.cache_hits == 400 - consulted
    assert warm.stats.identity_tuple() == cold.stats.identity_tuple()


def test_cache_rejects_torn_or_foreign_entries(tmp_path):
    cache = AnalysisCache(str(tmp_path))
    key = "ab" + "0" * 62
    path = tmp_path / key[:2] / (key + ".json")
    path.parent.mkdir(parents=True)
    path.write_text("{not json")
    assert cache.load(key) is None
    path.write_text(json.dumps({"schema": 999, "record": {}}))
    assert cache.load(key) is None


# -- spec validation --------------------------------------------------------------


def test_spec_rejects_unknown_corpus_and_bad_sizes():
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="walled-garden")
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="play", apps=0)
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="images", apps=10)  # below the 50-image floor
    with pytest.raises(ReproError):
        AnalysisSpec(corpus="play").shard(0)


def test_scaled_specs_shard_to_exact_totals():
    spec = AnalysisSpec(corpus="play", apps=4097)
    shards = spec.shard(7)
    assert shards[0].start == 0 and shards[-1].stop == 4097
    assert [s.stop - s.start for s in shards] == [586, 586, 585, 585,
                                                  585, 585, 585]
    report = run_serial(spec, shards=7)
    assert report.stats.count("apps") == 4097
