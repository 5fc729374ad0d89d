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
from repro.measurement.report import render_table5
from repro.measurement.tables import compute_table5, study_stats


def test_table5_impact(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: compute_table5(study_stats("images")), rounds=1, iterations=1
    )
    text = render_table5(table)
    text += (
        "\npaper: Amazon on Verizon/US-Cellular Samsung devices; DTIgnite "
        "on 20+ carriers; Xiaomi/Huawei stores on all their devices; "
        "SprintZone on Sprint devices"
    )
    report_sink("table5_impact", text)

    amazon = table.row_for(AMAZON_PKG)
    assert set(amazon.carriers) == {"verizon", "uscellular"}
    assert amazon.vendors == ("samsung",)

    dtignite = table.row_for(DTIGNITE_PKG)
    assert dtignite.image_count >= 500        # 'hundreds of millions of users'
    assert len(dtignite.carriers) >= 8

    xiaomi = table.row_for(XIAOMI_STORE_PKG)
    assert xiaomi.image_count == 382          # all Xiaomi devices
    huawei = table.row_for(HUAWEI_STORE_PKG)
    assert huawei.image_count == 234          # all Huawei devices

    sprint = table.row_for(SPRINTZONE_PKG)
    assert sprint.carriers == ("sprint",)
