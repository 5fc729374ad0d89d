"""Table II: potentially vulnerable Google Play apps (SD-Card usage).

Runs the measurement pipeline (classifier + redirect scan) over the
12,750-app synthetic Play corpus and compares the breakdown with the
paper's numbers.
"""

from repro.measurement.report import render_installer_breakdown
from repro.measurement.tables import compute_table2, study_stats

PAPER = {
    "vulnerable": 779,
    "secure": 152,
    "installers": 1493,
    "vulnerable_share_excl": 0.837,
    "secure_share_excl": 0.163,
    "vulnerable_share_incl": 0.522,
    "secure_share_incl": 0.102,
    "write_external": 8721,
}


def test_table2_play_installers(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: compute_table2(study_stats("play")), rounds=1, iterations=1
    )
    text = render_installer_breakdown(
        "Table II: potentially vulnerable GooglePlay apps (measured)", table
    )
    text += (
        f"\npaper: 779/931 (83.7%) SD-Card, 152/931 (16.3%) internal; "
        f"including unknown 52.2% / 10.2%; WRITE_EXTERNAL 8721/12750"
    )
    report_sink("table2_play_installers", text)

    assert table.vulnerable == PAPER["vulnerable"]
    assert table.secure == PAPER["secure"]
    assert table.installers == PAPER["installers"]
    assert abs(table.vulnerable_share_excluding_unknown
               - PAPER["vulnerable_share_excl"]) < 0.001
    assert abs(table.vulnerable_share_including_unknown
               - PAPER["vulnerable_share_incl"]) < 0.001
    assert table.write_external == PAPER["write_external"]
