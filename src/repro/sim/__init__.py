"""Trace-driven cache simulator substrate (ChampSim/gem5 stand-in).

The simulator replays a :class:`~repro.workloads.trace.MemoryTrace` through a
configurable cache hierarchy and produces:

* eviction-annotated per-access records for the LLC (the rows of the trace
  database, see :mod:`repro.tracedb.schema`),
* per-level hit/miss statistics,
* an analytic cycle count / IPC estimate used by the actionable-insight use
  cases (bypass, Mockingjay, software prefetching).

Every stats replay runs through one core (:mod:`repro.sim.batch`): a
rollout emits a per-access hits column, the LLC counters are reductions
over it, and :func:`~repro.sim.cpu.timing_from_levels` derives the timing
from the service-level column — at full detail too.
"""

from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    DRAMConfig,
    HierarchyConfig,
    PAPER_CONFIG,
    SMALL_CONFIG,
    TINY_CONFIG,
)
from repro.sim.cache import (
    AccessOutcome,
    Cache,
    CacheLine,
    CacheStats,
)
from repro.sim.cpu import TimingResult, timing_from_levels
from repro.sim.engine import (
    DETAIL_FULL,
    DETAIL_LEVELS,
    DETAIL_STATS,
    PreparedReplay,
    SimulationEngine,
    SimulationResult,
    TraceReuse,
    simulate,
)
from repro.sim.batch import (
    BatchSimulator,
    NATIVE_POLICIES,
    RolloutSpec,
    rollout_strategy,
    run_batch,
)
from repro.sim.parallel import (
    ParallelSimulator,
    SimulationJob,
    default_jobs,
    planned_strategy,
)

__all__ = [
    "CacheConfig",
    "CoreConfig",
    "DRAMConfig",
    "HierarchyConfig",
    "PAPER_CONFIG",
    "SMALL_CONFIG",
    "TINY_CONFIG",
    "AccessOutcome",
    "Cache",
    "CacheLine",
    "CacheStats",
    "DETAIL_FULL",
    "DETAIL_LEVELS",
    "DETAIL_STATS",
    "TimingResult",
    "timing_from_levels",
    "SimulationEngine",
    "SimulationResult",
    "PreparedReplay",
    "TraceReuse",
    "simulate",
    "BatchSimulator",
    "NATIVE_POLICIES",
    "RolloutSpec",
    "rollout_strategy",
    "run_batch",
    "ParallelSimulator",
    "SimulationJob",
    "default_jobs",
    "planned_strategy",
]
