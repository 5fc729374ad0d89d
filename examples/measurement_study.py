#!/usr/bin/env python3
"""The full Section IV measurement study over the synthetic corpora.

Runs the measurement pipeline once per corpus (Play, pre-installed,
factory images) and prints Tables II-VI exactly as ``repro tables``
does, then the hare search read from the images stats and the
platform-key analysis over the factory-image fleet.

Run:  python examples/measurement_study.py
"""

from repro.analysis.factory_images import generate_fleet
from repro.analysis.pipeline import hare_counts, study_stats
from repro.analysis.platform_keys import analyze, generate_appstore_catalogs
from repro.measurement.report import render_tables


def main():
    print("analyzing corpora and fleet (seeded, deterministic)...\n")
    print(render_tables())
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

    hare = hare_counts(study_stats("images"))
    average = hare["cases"] / hare["searched_images"]
    print("Hare permissions (Section IV-B):")
    print(f"  hare-using apps on 10 sample images : {hare['apps']}")
    print(f"  unique vulnerable cases             : {hare['cases']}")
    print(f"  average per searched image          : {average:.1f}")


if __name__ == "__main__":
    main()
