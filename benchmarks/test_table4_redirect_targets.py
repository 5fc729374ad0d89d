"""Table IV: number of fixed URL or redirection schemes per Play app."""

from repro.measurement.report import render_table4
from repro.measurement.tables import compute_table4, study_stats

PAPER_BUCKETS = {1: 723, 2: 1405, 4: 2090, 8: 2337}
PAPER_REDIRECTING_FRACTION = 0.847


def test_table4_redirect_targets(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: compute_table4(study_stats("play")), rounds=1, iterations=1
    )
    text = render_table4(table)
    text += (
        "\npaper: 5.7% (723), 11% (1405), 16.4% (2090), 18.3% (2337); "
        "84.7% redirecting overall"
    )
    report_sink("table4_redirect_targets", text)

    for limit, expected in PAPER_BUCKETS.items():
        assert table.buckets[limit][0] == expected
    assert abs(table.redirecting_fraction - PAPER_REDIRECTING_FRACTION) < 0.001
