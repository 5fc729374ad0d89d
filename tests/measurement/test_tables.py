"""Tests for the measurement-table views and their rendering."""

import pathlib

import pytest

from repro.__main__ import main
from repro.analysis.factory_images import AMAZON_PKG, DTIGNITE_PKG
from repro.measurement.report import (
    pct,
    render_installer_breakdown,
    render_table,
    render_table4,
    render_table5,
    render_table6,
)
from repro.measurement.tables import (
    compute_table2,
    compute_table3,
    compute_table4,
    compute_table5,
    compute_table6,
    study_stats,
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
    return compute_table2(play_stats)


@pytest.fixture(scope="module")
def table3():
    return compute_table3(study_stats("preinstalled"))


@pytest.fixture(scope="module")
def table4(play_stats):
    return compute_table4(play_stats)


@pytest.fixture(scope="module")
def table5(images_stats):
    return compute_table5(images_stats)


@pytest.fixture(scope="module")
def table6(images_stats):
    return compute_table6(images_stats)


def test_table2_shares_match_paper(table2):
    assert table2.vulnerable == 779
    assert table2.secure == 152
    assert table2.known == 931
    assert table2.vulnerable_share_excluding_unknown == pytest.approx(0.837, abs=0.001)
    assert table2.secure_share_excluding_unknown == pytest.approx(0.163, abs=0.001)
    assert table2.vulnerable_share_including_unknown == pytest.approx(0.522, abs=0.001)
    assert table2.secure_share_including_unknown == pytest.approx(0.102, abs=0.001)
    assert table2.write_external == 8721


def test_table3_shares_match_paper(table3):
    assert table3.vulnerable == 102
    assert table3.secure == 3
    assert table3.vulnerable_share_excluding_unknown == pytest.approx(0.971, abs=0.001)
    assert table3.secure_share_excluding_unknown == pytest.approx(0.0286, abs=0.001)
    assert table3.vulnerable_share_including_unknown == pytest.approx(0.429, abs=0.001)
    assert table3.write_external_instances == 5864
    assert table3.total_instances == 12050


def test_table4_buckets(table4):
    assert table4.buckets[1][0] == 723
    assert table4.buckets[2][0] == 1405
    assert table4.buckets[4][0] == 2090
    assert table4.buckets[8][0] == 2337
    assert table4.redirecting_fraction == pytest.approx(0.847, abs=0.001)


def test_table5_rows(table5):
    amazon = table5.row_for(AMAZON_PKG)
    assert amazon is not None
    assert set(amazon.carriers) == {"verizon", "uscellular"}
    assert amazon.vendors == ("samsung",)
    dtignite = table5.row_for(DTIGNITE_PKG)
    assert dtignite.image_count > 500
    assert table5.row_for("com.nonexistent") is None


def test_table6_rows(table6):
    samsung = table6.row_for("samsung")
    assert samsung.ratio == pytest.approx(0.0845, abs=0.005)
    assert table6.row_for("xiaomi").ratio == pytest.approx(0.1187, abs=0.005)
    assert table6.row_for("huawei").ratio == pytest.approx(0.1032, abs=0.005)
    assert table6.doubled_over_period
    low, high = table6.flagship_range
    assert 25 <= low <= high <= 31


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
