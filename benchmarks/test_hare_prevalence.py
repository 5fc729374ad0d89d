"""Section IV-B Hare prevalence: 178 hare apps, 27,763 vulnerable cases."""

import pytest

from repro.analysis.pipeline import hare_counts, study_stats
from repro.measurement.report import render_table

PAPER = {"hare_apps": 178, "total_cases": 27763, "avg_per_image": 23.5}


def test_hare_prevalence(benchmark, report_sink):
    hare = benchmark.pedantic(lambda: hare_counts(study_stats("images")),
                              rounds=1, iterations=1)
    average = hare["cases"] / hare["searched_images"]
    rows = [
        ("hare-using apps (10 sample images)", PAPER["hare_apps"],
         hare["apps"]),
        ("unique vulnerable cases", PAPER["total_cases"], hare["cases"]),
        ("average per searched image", PAPER["avg_per_image"],
         f"{average:.1f}"),
        ("searched images", 1181, hare["searched_images"]),
    ]
    report_sink("hare_prevalence", render_table(
        "Hare permission prevalence (Section IV-B)",
        ["metric", "paper", "measured"],
        rows,
    ))

    assert hare["apps"] == PAPER["hare_apps"]
    assert hare["cases"] == PAPER["total_cases"]
    assert average == pytest.approx(PAPER["avg_per_image"], abs=0.1)
