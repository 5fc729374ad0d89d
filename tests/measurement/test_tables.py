"""Tests for the measurement tables: the pipeline's counts and their rendering."""

import pathlib

import pytest

from repro.__main__ import main
from repro.analysis.factory_images import AMAZON_PKG, DTIGNITE_PKG
from repro.analysis.pipeline import (
    AnalysisStats,
    study_stats,
    table2_counts,
    table3_counts,
    table4_counts,
    table5_counts,
    table6_counts,
)
from repro.measurement.report import (
    pct,
    render_installer_breakdown,
    render_table,
    render_table4,
    render_table5,
    render_table6,
)

GOLDEN_TABLES = pathlib.Path(__file__).parent / "tables_golden.txt"


@pytest.fixture(scope="module")
def play_stats():
    return study_stats("play")


@pytest.fixture(scope="module")
def images_stats():
    return study_stats("images")


@pytest.fixture(scope="module")
def table2(play_stats):
    return table2_counts(play_stats)


@pytest.fixture(scope="module")
def table3():
    return table3_counts(study_stats("preinstalled"))


@pytest.fixture(scope="module")
def table4(play_stats):
    return table4_counts(play_stats)


@pytest.fixture(scope="module")
def table5(images_stats):
    return table5_counts(images_stats)


@pytest.fixture(scope="module")
def table6(images_stats):
    return table6_counts(images_stats)


def test_table2_shares_match_paper(table2):
    vulnerable, secure = table2["vulnerable"], table2["secure"]
    known = vulnerable + secure
    assert vulnerable == 779
    assert secure == 152
    assert known == 931
    assert vulnerable / known == pytest.approx(0.837, abs=0.001)
    assert secure / known == pytest.approx(0.163, abs=0.001)
    assert vulnerable / table2["installers"] == pytest.approx(0.522, abs=0.001)
    assert secure / table2["installers"] == pytest.approx(0.102, abs=0.001)
    assert table2["write_external"] == 8721


def test_table3_shares_match_paper(table3):
    vulnerable, secure = table3["vulnerable"], table3["secure"]
    known = vulnerable + secure
    assert vulnerable == 102
    assert secure == 3
    assert vulnerable / known == pytest.approx(0.971, abs=0.001)
    assert secure / known == pytest.approx(0.0286, abs=0.001)
    assert vulnerable / table3["installers"] == pytest.approx(0.429, abs=0.001)
    assert table3["write_external_instances"] == 5864
    assert table3["instances"] == 12050


def test_table4_buckets(table4):
    assert table4["buckets"][1] == 723
    assert table4["buckets"][2] == 1405
    assert table4["buckets"][4] == 2090
    assert table4["buckets"][8] == 2337
    assert table4["redirecting"] / table4["total"] == pytest.approx(
        0.847, abs=0.001)


def test_table5_rows(table5):
    amazon = table5[AMAZON_PKG]
    assert set(amazon["carriers"]) == {"verizon", "uscellular"}
    assert amazon["vendors"] == ("samsung",)
    assert table5[DTIGNITE_PKG]["images"] > 500


def test_table6_rows(table6):
    vendors = table6["vendors"]
    assert vendors["samsung"]["ratio"] == pytest.approx(0.0845, abs=0.005)
    assert vendors["xiaomi"]["ratio"] == pytest.approx(0.1187, abs=0.005)
    assert vendors["huawei"]["ratio"] == pytest.approx(0.1032, abs=0.005)
    assert table6["doubled"]
    low, high = table6["flagship_range"]
    assert 25 <= low <= high <= 31


def test_table6_without_images_is_empty():
    table6 = table6_counts(AnalysisStats())
    assert table6["vendors"]["samsung"] == {
        "images": 0, "avg_apps": 0.0, "avg_install_packages": 0.0,
        "ratio": 0.0}
    assert table6["flagship_range"] == (0, 0)


# -- rendering ---------------------------------------------------------------------


def test_pct_format():
    assert pct(0.837) == "83.7%"


def test_render_table_alignment():
    text = render_table("T", ["a", "bee"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bee" in lines[1]
    assert len(lines) == 5


def test_render_installer_breakdown(table2):
    text = render_installer_breakdown("Table II", table2)
    assert "779/931 (83.7%)" in text
    assert "152/1493 (10.2%)" in text
    assert "WRITE_EXTERNAL_STORAGE=8721" in text


def test_render_table4(table4):
    text = render_table4(table4)
    assert "5.7% (723/12750)" in text
    assert "84.7%" in text


def test_render_table5(table5):
    text = render_table5(table5)
    assert AMAZON_PKG in text
    assert "verizon" in text


def test_render_table6(table6):
    text = render_table6(table6)
    assert "samsung" in text
    assert "doubled over 3 years: True" in text


def test_tables_command_output_is_pinned(capsys):
    """``repro tables`` prints exactly the committed golden text."""
    assert main(["tables"]) == 0
    assert capsys.readouterr().out == GOLDEN_TABLES.read_text()
