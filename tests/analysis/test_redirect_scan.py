"""Tests for the hardcoded-redirect extraction (Table IV)."""

import pytest

from repro.analysis.classifier import InstallerClassifier
from repro.analysis.corpus import (
    CorpusApp,
    GroundTruth,
    MARKET_SCHEME,
    PLAY_URL,
)
from repro.analysis.pipeline import (
    AnalysisCache,
    AnalysisSpec,
    analyze_app,
    run_analysis,
    table4_counts,
)
from repro.analysis.redirect_scan import redirect_targets
from repro.analysis.smali import parse_program


def make_app(smali):
    return CorpusApp(
        package="com.hand.crafted",
        category="TOOLS",
        truth=GroundTruth.NON_INSTALLER,
        declared_permissions=frozenset(),
        smali_text=smali,
    )


def one_string_method(literal):
    return ('.class La;\n.method m()V\n'
            f'const-string v1, "{literal}"\n.end method')


def test_scan_finds_play_url():
    app = make_app(one_string_method(f"{PLAY_URL}com.target.app"))
    record = analyze_app(app, InstallerClassifier())
    assert record.redirect_targets == ("com.target.app",)


def test_scan_finds_market_scheme():
    program = parse_program(one_string_method(f"{MARKET_SCHEME}com.x"))
    assert redirect_targets(program) == ("com.x",)


def test_scan_ignores_other_urls():
    program = parse_program(one_string_method("https://example.com/page"))
    assert redirect_targets(program) == ()


def test_scan_counts_multiple():
    lines = [".class La;", ".method m()V"]
    for index in range(5):
        lines.append(f'const-string v{index}, "{PLAY_URL}com.t{index}"')
    lines.append(".end method")
    program = parse_program("\n".join(lines))
    assert redirect_targets(program) == tuple(
        f"com.t{index}" for index in range(5))


def test_preinstalled_analysis_skips_the_scan():
    app = make_app(one_string_method(f"{PLAY_URL}com.target.app"))
    record = analyze_app(app, InstallerClassifier(), scan_redirects=False)
    assert record.redirect_targets == ()
    assert not record.scanned_redirects


@pytest.fixture(scope="module")
def play_run(tmp_path_factory):
    """The paper-scale Play pass, with its per-app records cached."""
    cache_dir = str(tmp_path_factory.mktemp("redirect-cache"))
    report = run_analysis(AnalysisSpec(corpus="play", cache_dir=cache_dir),
                          shards=1, backend="serial")
    return report, AnalysisCache(cache_dir)


def test_table_iv_buckets_match_paper(play_run):
    report, _cache = play_run
    assert table4_counts(report.stats)["buckets"] == {
        1: 723, 2: 1405, 4: 2090, 8: 2337}


def test_redirecting_fraction_matches_847_percent(play_run):
    counts = table4_counts(play_run[0].stats)
    assert counts["redirecting"] == 10799
    assert counts["redirecting"] / counts["total"] == pytest.approx(
        0.847, abs=0.001)


def single_target_records(cache):
    return [record["redirect_targets"]
            for _key, _versions, record in cache.iter_entries()
            if len(record["redirect_targets"]) == 1]


def test_easy_targets_are_single_url_apps(play_run):
    report, cache = play_run
    assert len(single_target_records(cache)) == 723
    assert table4_counts(report.stats)["buckets"][1] == 723


def test_single_url_targets_are_predictable(play_run):
    """Each single-target app's one target is a companion of its own."""
    targets = single_target_records(play_run[1])
    assert all(one[0].endswith(".companion") for one in targets)
