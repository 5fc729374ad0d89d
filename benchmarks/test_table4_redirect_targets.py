"""Table IV: number of fixed URL or redirection schemes per Play app."""

from repro.analysis.pipeline import study_stats, table4_counts
from repro.measurement.report import render_table4

PAPER_BUCKETS = {1: 723, 2: 1405, 4: 2090, 8: 2337}
PAPER_REDIRECTING_FRACTION = 0.847


def test_table4_redirect_targets(benchmark, report_sink):
    counts = benchmark.pedantic(
        lambda: table4_counts(study_stats("play")), rounds=1, iterations=1
    )
    text = render_table4(counts)
    text += (
        "\npaper: 5.7% (723), 11% (1405), 16.4% (2090), 18.3% (2337); "
        "84.7% redirecting overall"
    )
    report_sink("table4_redirect_targets", text)

    for limit, expected in PAPER_BUCKETS.items():
        assert counts["buckets"][limit] == expected
    assert abs(counts["redirecting"] / counts["total"]
               - PAPER_REDIRECTING_FRACTION) < 0.001
