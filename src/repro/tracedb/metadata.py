"""Whole-trace metadata summary string.

Each trace-database entry stores a free-form ``metadata`` string summarising
the entire trace (totals, miss rate, miss-type breakdown, wrong-eviction
ratio, recency/miss correlation).  Retrievers fall back to this string when a
query has no PC/address filter, and Ranger-generated code parses numbers out
of it with regular expressions, so the wording follows the example given in
section 4.3 of the paper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from repro.tracedb.schema import WorkloadStatistics


@dataclass
class TraceMetadata:
    """Parsed view of a metadata string (used by tests and analyses)."""

    total_accesses: int
    total_misses: int
    miss_rate_percent: float
    capacity_miss_percent: float
    conflict_miss_percent: float
    total_evictions: int
    wrong_evictions: int
    wrong_eviction_percent: float
    recency_correlation: Optional[float]


def build_metadata_string(stats: WorkloadStatistics) -> str:
    """Render the whole-trace summary string for one (workload, policy)."""
    total_misses = stats.total_misses
    miss_rate = stats.miss_rate * 100
    capacity_pct = (stats.capacity_misses / total_misses * 100) if total_misses else 0.0
    conflict_pct = (stats.conflict_misses / total_misses * 100) if total_misses else 0.0
    compulsory_pct = (stats.compulsory_misses / total_misses * 100) if total_misses else 0.0
    wrong_pct = stats.wrong_eviction_fraction * 100
    correlation = stats.recency_miss_correlation
    correlation_text = (
        f"{correlation:.2f}" if correlation is not None else "undefined"
    )
    return (
        f"Cache Performance Summary: {stats.total_accesses} total accesses, "
        f"{stats.total_misses} total misses, {miss_rate:.2f}% miss rate, "
        f"{compulsory_pct:.2f}% compulsory misses, "
        f"{capacity_pct:.2f}% capacity misses, "
        f"{conflict_pct:.2f}% conflict misses, "
        f"{stats.total_evictions} total evictions, "
        f"{stats.wrong_evictions} ({wrong_pct:.2f}%) wrong evictions where "
        f"evicted line has lower reuse distance. "
        f"The trace touches {stats.unique_pcs} unique PCs and "
        f"{stats.unique_addresses} unique addresses. "
        f"The correlation between accessed address recency and cache misses "
        f"is {correlation_text}."
    )


_METADATA_PATTERNS = {
    "total_accesses": r"([\d,]+) total accesses",
    "total_misses": r"([\d,]+) total misses",
    "miss_rate_percent": r"([\d.]+)% miss rate",
    "capacity_miss_percent": r"([\d.]+)% capacity misses",
    "conflict_miss_percent": r"([\d.]+)% conflict misses",
    "total_evictions": r"([\d,]+) total evictions",
    "wrong_evictions": r"([\d,]+) \(([\d.]+)%\) wrong evictions",
    # The number must not swallow the sentence-final period ("... is 0.86.").
    "recency_correlation":
        r"recency and cache misses\s+is (-?\d+(?:\.\d+)?|undefined)",
}


def parse_metadata_string(metadata: str) -> TraceMetadata:
    """Parse a metadata string back into structured numbers."""

    def find(pattern: str, group: int = 1) -> Optional[str]:
        match = re.search(pattern, metadata)
        return match.group(group) if match else None

    def as_int(text: Optional[str]) -> int:
        return int(text.replace(",", "")) if text else 0

    def as_float(text: Optional[str]) -> float:
        return float(text) if text else 0.0

    correlation_text = find(_METADATA_PATTERNS["recency_correlation"])
    correlation = (
        None if correlation_text in (None, "undefined") else float(correlation_text)
    )
    return TraceMetadata(
        total_accesses=as_int(find(_METADATA_PATTERNS["total_accesses"])),
        total_misses=as_int(find(_METADATA_PATTERNS["total_misses"])),
        miss_rate_percent=as_float(find(_METADATA_PATTERNS["miss_rate_percent"])),
        capacity_miss_percent=as_float(find(_METADATA_PATTERNS["capacity_miss_percent"])),
        conflict_miss_percent=as_float(find(_METADATA_PATTERNS["conflict_miss_percent"])),
        total_evictions=as_int(find(_METADATA_PATTERNS["total_evictions"])),
        wrong_evictions=as_int(find(_METADATA_PATTERNS["wrong_evictions"], group=1)),
        wrong_eviction_percent=as_float(find(_METADATA_PATTERNS["wrong_evictions"], group=2)),
        recency_correlation=correlation,
    )
