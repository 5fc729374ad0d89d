"""Table V: impact of vulnerable pre-installed installers.

Reads the per-installer image/carrier/vendor/model tallies the images
pipeline folds over the factory-image fleet; the paper's qualitative rows (which carriers and vendors ship which
installer) must hold.
"""

from repro.analysis.factory_images import (
    AMAZON_PKG,
    DTIGNITE_PKG,
    HUAWEI_STORE_PKG,
    SPRINTZONE_PKG,
    XIAOMI_STORE_PKG,
)
from repro.analysis.pipeline import study_stats, table5_counts
from repro.measurement.report import render_table5


def test_table5_impact(benchmark, report_sink):
    rows = benchmark.pedantic(
        lambda: table5_counts(study_stats("images")), rounds=1, iterations=1
    )
    text = render_table5(rows)
    text += (
        "\npaper: Amazon on Verizon/US-Cellular Samsung devices; DTIgnite "
        "on 20+ carriers; Xiaomi/Huawei stores on all their devices; "
        "SprintZone on Sprint devices"
    )
    report_sink("table5_impact", text)

    amazon = rows[AMAZON_PKG]
    assert set(amazon["carriers"]) == {"verizon", "uscellular"}
    assert amazon["vendors"] == ("samsung",)

    dtignite = rows[DTIGNITE_PKG]
    assert dtignite["images"] >= 500          # 'hundreds of millions of users'
    assert len(dtignite["carriers"]) >= 8

    assert rows[XIAOMI_STORE_PKG]["images"] == 382   # all Xiaomi devices
    assert rows[HUAWEI_STORE_PKG]["images"] == 234   # all Huawei devices

    assert rows[SPRINTZONE_PKG]["carriers"] == ("sprint",)
