"""ASCII rendering of measurement tables, paper-vs-measured style.

The Table II–VI renderers take the dicts that the pipeline's
``table*_counts`` extractors read out of merged
:class:`~repro.analysis.pipeline.AnalysisStats`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.pipeline import (
    study_stats,
    table2_counts,
    table3_counts,
    table4_counts,
    table5_counts,
    table6_counts,
)


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))
    separator = "-+-".join("-" * width for width in widths)
    out = [title, line(list(headers)), separator]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def pct(value: float) -> str:
    """Format a fraction as the paper prints percentages."""
    return f"{value * 100:.1f}%"


def render_installer_breakdown(title: str, counts: Dict[str, int]) -> str:
    """Render Table II or III from ``table2_counts``/``table3_counts``."""
    vulnerable = counts["vulnerable"]
    secure = counts["secure"]
    installers = counts["installers"]
    rows: List[Tuple[str, str, str]] = []
    # 'Excluding unknown' divides by the installers with a resolved verdict.
    for label, total in (("Excluding Unknown Apps", vulnerable + secure),
                         ("Including Unknown Apps", installers)):
        rows.append((
            label,
            f"{vulnerable}/{total} "
            f"({pct(vulnerable / total if total else 0.0)})",
            f"{secure}/{total} ({pct(secure / total if total else 0.0)})",
        ))
    body = render_table(
        title,
        ["Type", "SD-Card (potentially vulnerable)",
         "Internal Storage (potentially secure)"],
        rows,
    )
    footer = (
        f"\ncorpus={counts['total']}, installers={installers}, "
        f"WRITE_EXTERNAL_STORAGE={counts['write_external']}"
    )
    return body + footer


def render_table4(counts: Dict[str, Any]) -> str:
    """Render Table IV from ``table4_counts``."""
    total = counts["total"]
    headers = ["# hardcoded url or scheme", "1", "<=2", "<=4", "<=8"]
    row = ["# apps"]
    for count in counts["buckets"].values():
        row.append(f"{pct(count / total)} ({count}/{total})")
    body = render_table("Table IV: number of fixed url or redirection scheme",
                        headers, [row])
    redirecting = counts["redirecting"]
    return body + (
        f"\nredirecting apps overall: {redirecting}/{total} "
        f"({pct(redirecting / total)})"
    )


def render_table5(counts: Dict[str, Dict[str, Any]]) -> str:
    """Render Table V from ``table5_counts``."""
    rows = [
        (
            package,
            row["images"],
            row["models"],
            ", ".join(row["carriers"][:6])
            + ("..." if len(row["carriers"]) > 6 else ""),
            ", ".join(row["vendors"]),
        )
        for package, row in counts.items()
    ]
    return render_table(
        "Table V: impact of vulnerable pre-installed installers",
        ["Vulnerable app", "Images", "Models", "Carriers", "Vendors"],
        rows,
    )


def render_table6(counts: Dict[str, Any]) -> str:
    """Render Table VI from ``table6_counts``."""
    rows = [
        (
            vendor,
            f"{row['avg_install_packages']:.1f}/{row['avg_apps']:.1f}",
            pct(row["ratio"]),
        )
        for vendor, row in counts["vendors"].items()
    ]
    body = render_table(
        "Table VI: system apps with INSTALL_PACKAGES",
        ["Vendor", "avg INSTALL_PACKAGES / avg system apps", "ratio"],
        rows,
    )
    low, high = counts["flagship_range"]
    return body + (
        f"\ndoubled over 3 years: {counts['doubled']}; "
        f"flagship privileged apps: {low}-{high}"
    )


def render_tables(seed: int = 2016) -> str:
    """Tables II–VI from one serial pass over each corpus (``repro tables``)."""
    play = study_stats("play", seed)
    images = study_stats("images", seed)
    return "\n\n".join([
        render_installer_breakdown("Table II (Google Play apps)",
                                   table2_counts(play)),
        render_installer_breakdown(
            "Table III (pre-installed apps)",
            table3_counts(study_stats("preinstalled", seed))),
        render_table4(table4_counts(play)),
        render_table5(table5_counts(images)),
        render_table6(table6_counts(images)),
    ])
