"""Table III: potentially vulnerable pre-installed apps."""

from repro.analysis.pipeline import study_stats, table3_counts
from repro.measurement.report import render_installer_breakdown

PAPER = {
    "vulnerable": 102,
    "secure": 3,
    "installers": 238,
    "vulnerable_share_excl": 0.971,
    "write_external_instances": 5864,
    "total_instances": 12050,
}


def test_table3_preinstalled_installers(benchmark, report_sink):
    counts = benchmark.pedantic(
        lambda: table3_counts(study_stats("preinstalled")), rounds=1,
        iterations=1
    )
    text = render_installer_breakdown(
        "Table III: potentially vulnerable pre-installed apps (measured)",
        counts,
    )
    text += (
        f"\ninstances={counts['instances']}, "
        f"WRITE_EXTERNAL instances={counts['write_external_instances']}"
        f"\npaper: 102/105 (97.1%) SD-Card, 3/105 (2.86%) internal; "
        f"including unknown 42.9% / 1.26%; WRITE_EXTERNAL 5864/12050"
    )
    report_sink("table3_preinstalled_installers", text)

    vulnerable = counts["vulnerable"]
    assert vulnerable == PAPER["vulnerable"]
    assert counts["secure"] == PAPER["secure"]
    assert counts["installers"] == PAPER["installers"]
    assert abs(vulnerable / (vulnerable + counts["secure"])
               - PAPER["vulnerable_share_excl"]) < 0.001
    assert (counts["write_external_instances"]
            == PAPER["write_external_instances"])
    assert counts["instances"] == PAPER["total_instances"]
