"""Table VI: system apps holding INSTALL_PACKAGES, per vendor."""

import pytest

from repro.analysis.pipeline import study_stats, table6_counts
from repro.measurement.report import render_table6

PAPER_RATIOS = {"samsung": 0.0845, "huawei": 0.1032, "xiaomi": 0.1187}


def test_table6_install_packages(benchmark, report_sink):
    counts = benchmark.pedantic(
        lambda: table6_counts(study_stats("images")), rounds=1, iterations=1
    )
    text = render_table6(counts)
    text += (
        "\npaper: ~10% of system apps hold INSTALL_PACKAGES "
        "(8.45% / 10.32% / 11.87%); count doubled over three years; "
        "recent flagships ship 25-31 privileged apps"
    )
    report_sink("table6_install_packages", text)

    for vendor, target in PAPER_RATIOS.items():
        assert counts["vendors"][vendor]["ratio"] == pytest.approx(
            target, abs=0.005)
    assert counts["doubled"]
    low, high = counts["flagship_range"]
    assert 25 <= low and high <= 31
