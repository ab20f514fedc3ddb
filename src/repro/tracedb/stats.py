"""Cache statistical expert: per-PC and per-set statistics.

The paper's Sieve pipeline includes a "Cache Statistical Expert" stage that,
for the PCs present in a retrieved slice, computes "miss rate, access and
eviction reuse distances, and percentage of bad evictions" (section 3.2.3).
:class:`CacheStatisticalExpert` implements exactly those helpers on top of a
trace :class:`~repro.tracedb.table.Table`, plus the per-set hotness the
insight analyses need.  The whole-trace summary behind the metadata string
(:class:`WorkloadStatistics`) comes from the access log itself
(:meth:`~repro.tracedb.schema.AccessLog.workload_statistics`), so it needs
no table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

# WorkloadStatistics lives with the access log it summarises; it is
# re-exported here so existing imports and stored entries keep resolving.
from repro.tracedb.schema import (  # noqa: F401
    HIT_LABEL,
    MISS_LABEL,
    NEVER_REUSED,
    WorkloadStatistics,
)
from repro.tracedb.table import Table


@dataclass
class PCStatistics:
    """Aggregated behaviour of one program counter in a trace."""

    pc: str
    accesses: int
    hits: int
    misses: int
    evictions_caused: int
    mean_accessed_reuse_distance: Optional[float]
    mean_evicted_reuse_distance: Optional[float]
    reuse_distance_std: Optional[float]
    mean_recency: Optional[float]
    bad_eviction_fraction: Optional[float]
    function_name: str = ""

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def summary(self) -> str:
        reuse = (f"{self.mean_accessed_reuse_distance:.1f}"
                 if self.mean_accessed_reuse_distance is not None else "n/a")
        return (f"PC {self.pc}: {self.accesses} accesses, "
                f"{self.miss_rate * 100:.2f}% miss rate, "
                f"mean reuse distance {reuse}"
                + (f", function {self.function_name}" if self.function_name else ""))


@dataclass
class SetStatistics:
    """Aggregated behaviour of one cache set."""

    set_id: int
    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class CacheStatisticalExpert:
    """Computes per-PC and per-set statistics over a trace table.

    Row lookups (PC slices, exact-equality counts, hit/miss outcomes) are
    expressed as declarative :class:`repro.analytics.Query` objects and
    executed through the analytics engine's stdlib executor.  The
    cross-column row logic (bad-eviction classification) stays as explicit
    loops — it is row-wise conditional logic the declarative layer
    deliberately does not model.
    """

    def __init__(self, table: Table):
        self.table = table
        self._store = None

    # ------------------------------------------------------------------
    # analytics engine plumbing
    # ------------------------------------------------------------------
    def _engine(self):
        """The lazily-created tabular store with the trace registered."""
        if self._store is None:
            from repro.analytics import StdlibBackend

            self._store = StdlibBackend()
            self._store.register_table("trace", self.table)
        return self._store

    def _slice_query(self, **conditions) -> Table:
        """Rows matching exact-equality ``conditions``, via the engine."""
        from repro.analytics import Filter, Query

        return self._engine().execute(Query(
            table="trace",
            filters=tuple(Filter(name, "eq", value)
                          for name, value in conditions.items()),
        ))

    # ------------------------------------------------------------------
    # per-PC statistics
    # ------------------------------------------------------------------
    def pcs(self) -> List[str]:
        """Unique program counters in first-seen order."""
        return self.table["program_counter"].unique()

    def pc_slice(self, pc: str) -> Table:
        return self._slice_query(program_counter=pc)

    def pc_statistics(self, pc: str) -> PCStatistics:
        """Full statistics for one program counter."""
        rows = self.pc_slice(pc)
        accesses = len(rows)
        hits = sum(1 for value in rows["evict"].values if value == HIT_LABEL)
        misses = accesses - hits
        evicted = [value for value in rows["evicted_address"].values if value]
        accessed_rd = [value for value in
                       rows["accessed_address_reuse_distance_numeric"].values
                       if value is not None and value != NEVER_REUSED]
        evicted_rd = [value for value in
                      rows["evicted_address_reuse_distance_numeric"].values
                      if value is not None and value != NEVER_REUSED]
        recency = [value for value in
                   rows["accessed_address_recency_numeric"].values
                   if value is not None and value != NEVER_REUSED]
        bad_fraction = self._bad_eviction_fraction(rows)
        function_names = [value for value in rows["function_name"].values if value]
        reuse_std = None
        if accessed_rd:
            mean_rd = sum(accessed_rd) / len(accessed_rd)
            reuse_std = math.sqrt(
                sum((value - mean_rd) ** 2 for value in accessed_rd) / len(accessed_rd))
        return PCStatistics(
            pc=pc,
            accesses=accesses,
            hits=hits,
            misses=misses,
            evictions_caused=len(evicted),
            mean_accessed_reuse_distance=(
                sum(accessed_rd) / len(accessed_rd) if accessed_rd else None),
            mean_evicted_reuse_distance=(
                sum(evicted_rd) / len(evicted_rd) if evicted_rd else None),
            reuse_distance_std=reuse_std,
            mean_recency=sum(recency) / len(recency) if recency else None,
            bad_eviction_fraction=bad_fraction,
            function_name=function_names[0] if function_names else "",
        )

    def all_pc_statistics(self) -> List[PCStatistics]:
        return [self.pc_statistics(pc) for pc in self.pcs()]

    @staticmethod
    def _bad_eviction_fraction(rows: Table) -> Optional[float]:
        """Fraction of evictions where the victim was needed sooner than the
        inserted line ("wrong"/"bad" evictions in the paper)."""
        bad = 0
        total = 0
        for row in rows.iter_rows():
            if not row["evicted_address"]:
                continue
            total += 1
            evicted_rd = row["evicted_address_reuse_distance_numeric"]
            accessed_rd = row["accessed_address_reuse_distance_numeric"]
            if evicted_rd is None or evicted_rd == NEVER_REUSED:
                continue
            if accessed_rd is None or accessed_rd == NEVER_REUSED or evicted_rd < accessed_rd:
                bad += 1
        if total == 0:
            return None
        return bad / total

    # ------------------------------------------------------------------
    # per-set statistics
    # ------------------------------------------------------------------
    def sets(self) -> List[int]:
        return sorted(self.table["cache_set_id"].unique())

    def set_statistics(self, set_id: int) -> SetStatistics:
        rows = self._slice_query(cache_set_id=set_id)
        hits = sum(1 for value in rows["evict"].values if value == HIT_LABEL)
        return SetStatistics(set_id=set_id, accesses=len(rows), hits=hits)

    def all_set_statistics(self) -> List[SetStatistics]:
        return [self.set_statistics(set_id) for set_id in self.sets()]

    def hot_and_cold_sets(self, count: int = 5,
                          by: str = "accesses") -> Tuple[List[int], List[int]]:
        """Return the ``count`` hottest and coldest sets.

        ``by`` selects the hotness metric: ``"accesses"`` (activity) or
        ``"hit_rate"`` (the metric used in the Figure 13 chat session).
        """
        stats = self.all_set_statistics()
        if by == "hit_rate":
            ordered = sorted(stats, key=lambda s: (s.hit_rate, s.accesses), reverse=True)
        else:
            ordered = sorted(stats, key=lambda s: (s.accesses, s.hit_rate), reverse=True)
        hot = [s.set_id for s in ordered[:count]]
        cold = [s.set_id for s in ordered[-count:]] if len(ordered) >= count else []
        return hot, cold

    # ------------------------------------------------------------------
    # convenience lookups used by retrievers and the bench generator
    # ------------------------------------------------------------------
    def count(self, **conditions) -> int:
        """Number of rows matching exact-equality conditions."""
        from repro.analytics import Aggregate, Filter, Query

        result = self._engine().execute(Query(
            table="trace",
            filters=tuple(Filter(name, "eq", value)
                          for name, value in conditions.items()),
            aggregates=(Aggregate("count", alias="n"),),
        ))
        return result["n"].values[0]

    def hit_or_miss(self, pc: str, address: str) -> Optional[str]:
        """Outcome label of the first access matching (pc, address)."""
        rows = self._slice_query(program_counter=pc, memory_address=address)
        if len(rows) == 0:
            return None
        outcomes = rows["evict"].values
        # The paper's benchmark treats the (pc, address) pair as a single
        # verifiable fact; report the majority outcome for robustness.
        hits = sum(1 for value in outcomes if value == HIT_LABEL)
        return HIT_LABEL if hits * 2 > len(outcomes) else MISS_LABEL

    def miss_rate_for_pc(self, pc: str) -> Optional[float]:
        rows = self.pc_slice(pc)
        if len(rows) == 0:
            return None
        return sum(rows["is_miss"].values) / len(rows)

    def mean_evicted_reuse_distance_for_pc(self, pc: str) -> Optional[float]:
        rows = self.pc_slice(pc)
        values = [value for value in
                  rows["evicted_address_reuse_distance_numeric"].values
                  if value is not None and value != NEVER_REUSED]
        if not values:
            return None
        return sum(values) / len(values)
