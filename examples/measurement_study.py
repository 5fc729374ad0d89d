#!/usr/bin/env python3
"""The full Section IV measurement study over the synthetic corpora.

Runs the measurement pipeline once per corpus (Play, pre-installed,
factory images) and reads Tables II-VI from its merged stats, then runs
the platform-key and Hare analyses over the factory-image fleet for the
two prose findings.

Run:  python examples/measurement_study.py
"""

from repro.analysis.factory_images import generate_fleet
from repro.analysis.hare_analysis import search_images
from repro.analysis.platform_keys import analyze, generate_appstore_catalogs
from repro.measurement.report import (
    render_installer_breakdown,
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


def main():
    print("analyzing corpora and fleet (seeded, deterministic)...\n")

    play = study_stats("play")
    print(render_installer_breakdown(
        "Table II: potentially vulnerable GooglePlay apps (SD-Card usage)",
        compute_table2(play),
    ))
    print()
    print(render_installer_breakdown(
        "Table III: potentially vulnerable pre-installed apps",
        compute_table3(study_stats("preinstalled")),
    ))
    print()
    print(render_table4(compute_table4(play)))
    print()

    images = study_stats("images")
    print(render_table5(compute_table5(images)))
    print()
    print(render_table6(compute_table6(images)))
    print()

    fleet = generate_fleet()

    catalogs = generate_appstore_catalogs()
    keys = analyze(fleet, catalogs)
    print("Platform key usage (Section IV-B):")
    for vendor, count in keys.keys_per_vendor.items():
        print(
            f"  {vendor:8s}: {count} platform key; "
            f"{keys.avg_platform_signed_per_image[vendor]:.0f} platform-signed "
            f"apps/image; {keys.distinct_platform_packages[vendor]} distinct; "
            f"{keys.store_signed_counts[vendor]} platform-signed apps found "
            "in appstores"
        )
    vulnerable = keys.vulnerable_store_apps()
    print(f"  known-vulnerable platform-signed store app: "
          f"{vulnerable[0].package if vulnerable else 'none'}")
    print()

    hare = search_images(fleet)
    print("Hare permissions (Section IV-B):")
    print(f"  hare-using apps on 10 sample images : {len(hare.hare_apps)}")
    print(f"  unique vulnerable cases             : {hare.total_cases}")
    print(f"  average per searched image          : {hare.average_per_image:.1f}")


if __name__ == "__main__":
    main()
