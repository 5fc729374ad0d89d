"""Tests for the Hare study and the platform-key study."""

import pytest

from repro.analysis.factory_images import generate_fleet
from repro.analysis.hare_analysis import find_hare_apps
from repro.analysis.pipeline import hare_counts, study_stats
from repro.analysis.platform_keys import (
    PLATFORM_SIGNED_IN_STORES,
    TEAMVIEWER_PACKAGE,
    analyze,
    generate_appstore_catalogs,
)


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(seed=2016)


@pytest.fixture(scope="module")
def catalogs():
    return generate_appstore_catalogs(seed=2016)


# -- Hare ------------------------------------------------------------------------


def test_sample_images_yield_178_hare_apps(fleet):
    hare_apps = find_hare_apps(fleet)
    assert len(hare_apps) == 178
    assert len({hare.permission for hare in hare_apps}) == 178


def test_search_finds_27763_vulnerable_cases():
    hare = hare_counts(study_stats("images"))
    assert hare["cases"] == 27763
    assert hare["cases"] / hare["searched_images"] == pytest.approx(
        23.5, abs=0.1)
    assert hare["searched_images"] == 1181
    assert hare["apps"] == 178


def test_every_search_image_is_samsung(fleet):
    by_id = {image.image_id: image for image in fleet.images}
    assert all(by_id[i].vendor == "samsung" for i in fleet.search_image_ids)


def test_hare_apps_are_platform_signed(fleet):
    by_id = {image.image_id: image for image in fleet.images}
    hare_packages = set(fleet.hare_app_packages)
    for image_id in fleet.sample_image_ids:
        for app in by_id[image_id].apps:
            if app.package in hare_packages:
                assert app.platform_signed


# -- platform keys ------------------------------------------------------------------


def test_one_platform_key_per_vendor(fleet):
    study = analyze(fleet)
    assert study.keys_per_vendor == {"samsung": 1, "xiaomi": 1, "huawei": 1}


def test_platform_package_counts(fleet):
    study = analyze(fleet)
    assert study.distinct_platform_packages == {
        "samsung": 884, "huawei": 301, "xiaomi": 216,
    }


def test_avg_platform_signed_per_image(fleet):
    study = analyze(fleet)
    assert study.avg_platform_signed_per_image["samsung"] == pytest.approx(142, abs=4)
    assert study.avg_platform_signed_per_image["huawei"] == pytest.approx(68, abs=2)
    assert study.avg_platform_signed_per_image["xiaomi"] == pytest.approx(84, abs=2)


def test_appstore_corpus_size(catalogs):
    assert len(catalogs) == 33
    assert sum(catalog.size for catalog in catalogs) == 1_200_000
    assert catalogs[0].name == "google-play"
    assert catalogs[0].size == 400_000


def test_store_signed_counts_match_paper(fleet, catalogs):
    study = analyze(fleet, catalogs)
    assert study.store_signed_counts == PLATFORM_SIGNED_IN_STORES


def test_teamviewer_among_platform_signed(fleet, catalogs):
    study = analyze(fleet, catalogs)
    vulnerable = study.vulnerable_store_apps()
    assert len(vulnerable) == 1
    assert vulnerable[0].package == TEAMVIEWER_PACKAGE
    assert vulnerable[0].vendor == "samsung"


def test_platform_signed_store_apps_have_expected_categories(catalogs):
    categories = {
        entry.category
        for catalog in catalogs
        for entry in catalog.platform_entries
    }
    assert categories <= {"MDM", "remote-support", "VPN", "backup"}


def test_catalogs_deterministic():
    first = generate_appstore_catalogs(seed=4)
    second = generate_appstore_catalogs(seed=4)
    assert (first[3].signers == second[3].signers).all()
