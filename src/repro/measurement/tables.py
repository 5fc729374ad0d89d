"""The paper's measurement tables as views over pipeline stats.

:func:`study_stats` runs one serial :func:`~repro.analysis.pipeline.run_analysis`
over a corpus; each ``compute_table*`` function reads the merged
:class:`~repro.analysis.pipeline.AnalysisStats` through the pipeline's
``table*_counts`` extractors and returns a small dataclass with exactly
the numbers the paper's table reports, so benchmarks can print
paper-vs-measured side by side.  Tables II and IV read the ``play``
stats, Table III the ``preinstalled`` stats, Tables V and VI the
``images`` stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.pipeline import (
    AnalysisSpec,
    AnalysisStats,
    run_analysis,
    table2_counts,
    table3_counts,
    table4_counts,
    table5_counts,
    table6_counts,
)


def study_stats(corpus: str, seed: int = 2016) -> AnalysisStats:
    """Merged stats of one serial paper-scale pass over ``corpus``."""
    spec = AnalysisSpec(corpus=corpus, seed=seed)
    return run_analysis(spec, shards=1, backend="serial").stats


# ---------------------------------------------------------------------------
# Tables II and III — potentially vulnerable installers
# ---------------------------------------------------------------------------


@dataclass
class InstallerBreakdown:
    """Shared shape of Tables II and III."""

    corpus_size: int
    installers: int
    vulnerable: int
    secure: int
    unknown: int
    write_external: int

    @property
    def known(self) -> int:
        """Installers with a resolved verdict (the 'excluding unknown' row)."""
        return self.vulnerable + self.secure

    @property
    def vulnerable_share_excluding_unknown(self) -> float:
        """e.g. 779/931 = 83.7% for the Play corpus."""
        return self.vulnerable / self.known if self.known else 0.0

    @property
    def secure_share_excluding_unknown(self) -> float:
        """e.g. 152/931 = 16.3%."""
        return self.secure / self.known if self.known else 0.0

    @property
    def vulnerable_share_including_unknown(self) -> float:
        """e.g. 779/1493 = 52.2%."""
        return self.vulnerable / self.installers if self.installers else 0.0

    @property
    def secure_share_including_unknown(self) -> float:
        """e.g. 152/1493 = 10.2%."""
        return self.secure / self.installers if self.installers else 0.0


@dataclass
class Table2(InstallerBreakdown):
    """Table II: potentially vulnerable Google Play apps."""


@dataclass
class Table3(InstallerBreakdown):
    """Table III: potentially vulnerable pre-installed apps."""

    total_instances: int = 0
    write_external_instances: int = 0


def compute_table2(stats: AnalysisStats) -> Table2:
    """Table II from the Play corpus stats."""
    counts = table2_counts(stats)
    return Table2(
        corpus_size=counts["total"],
        installers=counts["installers"],
        vulnerable=counts["vulnerable"],
        secure=counts["secure"],
        unknown=counts["unknown"],
        write_external=counts["write_external"],
    )


def compute_table3(stats: AnalysisStats) -> Table3:
    """Table III from the pre-installed corpus stats."""
    counts = table3_counts(stats)
    return Table3(
        corpus_size=counts["total"],
        installers=counts["installers"],
        vulnerable=counts["vulnerable"],
        secure=counts["secure"],
        unknown=counts["unknown"],
        write_external=counts["write_external"],
        total_instances=counts["instances"],
        write_external_instances=counts["write_external_instances"],
    )


# ---------------------------------------------------------------------------
# Table IV — hardcoded redirect URLs
# ---------------------------------------------------------------------------


@dataclass
class Table4:
    """Table IV: number of fixed URL or redirection schemes."""

    corpus_size: int
    buckets: Dict[int, Tuple[int, float]]   # limit -> (count, fraction)
    redirecting: int
    redirecting_fraction: float


def compute_table4(stats: AnalysisStats) -> Table4:
    """Table IV from the Play corpus stats."""
    counts = table4_counts(stats)
    total = counts["total"]
    return Table4(
        corpus_size=total,
        buckets={limit: (count, count / total)
                 for limit, count in counts["buckets"].items()},
        redirecting=counts["redirecting"],
        redirecting_fraction=counts["redirecting"] / total,
    )


# ---------------------------------------------------------------------------
# Table V — impact of vulnerable pre-installed installers
# ---------------------------------------------------------------------------


@dataclass
class ImpactRow:
    """One row of Table V."""

    installer_package: str
    image_count: int
    carriers: Tuple[str, ...]
    vendors: Tuple[str, ...]
    models: int


@dataclass
class Table5:
    """Table V: devices/carriers/vendors affected per installer."""

    rows: List[ImpactRow] = field(default_factory=list)

    def row_for(self, package: str) -> Optional[ImpactRow]:
        """Row of one installer, if present."""
        for row in self.rows:
            if row.installer_package == package:
                return row
        return None


def compute_table5(stats: AnalysisStats) -> Table5:
    """Table V from the images corpus stats."""
    return Table5(rows=[
        ImpactRow(
            installer_package=package,
            image_count=counts["images"],
            carriers=counts["carriers"],
            vendors=counts["vendors"],
            models=counts["models"],
        )
        for package, counts in table5_counts(stats).items()
    ])


# ---------------------------------------------------------------------------
# Table VI — INSTALL_PACKAGES prevalence
# ---------------------------------------------------------------------------


@dataclass
class VendorPrivilegeRow:
    """One vendor's column of Table VI."""

    vendor: str
    avg_system_apps: float
    avg_install_packages: float

    @property
    def ratio(self) -> float:
        """Share of system apps holding INSTALL_PACKAGES."""
        return (
            self.avg_install_packages / self.avg_system_apps
            if self.avg_system_apps else 0.0
        )


@dataclass
class Table6:
    """Table VI: system apps with INSTALL_PACKAGES per vendor."""

    rows: List[VendorPrivilegeRow] = field(default_factory=list)
    doubled_over_period: bool = False
    flagship_range: Tuple[int, int] = (0, 0)

    def row_for(self, vendor: str) -> Optional[VendorPrivilegeRow]:
        """Row of one vendor."""
        for row in self.rows:
            if row.vendor == vendor:
                return row
        return None


def compute_table6(stats: AnalysisStats) -> Table6:
    """Table VI from the images corpus stats."""
    counts = table6_counts(stats)
    table = Table6(rows=[
        VendorPrivilegeRow(
            vendor=vendor,
            avg_system_apps=_per_image(totals, "apps"),
            avg_install_packages=_per_image(totals, "install_packages"),
        )
        for vendor, totals in counts["vendors"].items()
    ])
    # The "doubled in three years" finding: oldest vs newest quartile.
    oldest = _per_image(counts["years"][0], "install_packages")
    newest = _per_image(counts["years"][3], "install_packages")
    table.doubled_over_period = newest >= 1.9 * oldest
    flagship = counts["flagship"]
    if flagship:
        table.flagship_range = (flagship[0], flagship[-1])
    return table


def _per_image(totals: Dict[str, int], name: str) -> float:
    images = totals["images"]
    return totals[name] / images if images else 0.0
