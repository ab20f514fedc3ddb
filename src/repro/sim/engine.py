"""Trace-driven simulation engine producing eviction-annotated records.

The engine replays a :class:`~repro.workloads.trace.MemoryTrace` — reading
its raw typed columns, not per-access objects — and appends one row per LLC
access into a columnar :class:`~repro.tracedb.schema.AccessLog`, annotated
with forward reuse distances, recency, eviction victims, resident lines,
policy eviction scores and source/assembly context — exactly the columns the
trace database stores (paper section 4.3).  Row views
(:class:`~repro.tracedb.schema.AccessRecord`) are materialised lazily via
``SimulationResult.records``.

Two modes are supported:

* ``"llc_only"`` (default) — every trace access is an LLC access, mirroring
  the PARROT infrastructure the paper builds on, which "replays LLC accesses"
  directly.  This is what the trace database uses.
* ``"hierarchy"`` — accesses are filtered through L1D and L2 (both LRU)
  first; only their misses reach the LLC.  The filtered stream is identical
  for every LLC policy, so oracle next-use information can still be
  precomputed.  This mode feeds the IPC/speedup use cases.

Two detail levels are supported:

* ``"full"`` (default) — one :class:`AccessRecord` per LLC access, with
  resident-line and eviction-score snapshots, source context and the
  wrong-eviction count.  This is what the trace database consumes.
* ``"stats"`` — aggregate statistics and timing only.  The replay skips
  record construction, context annotation, per-access snapshot lists and —
  unless the policy declares ``requires_future`` — the whole reuse-distance
  precomputation, and runs a single fused simulate+timing loop.  Hit/miss/
  eviction/bypass counts, per-set rates and IPC are identical to a full run.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.policies.base import NEVER, ReplacementPolicy, get_policy
from repro.sim.cache import (
    Cache,
    CacheStats,
    DETAIL_FULL,
    DETAIL_LEVELS,
    DETAIL_STATS,
)
from repro.sim.config import HierarchyConfig, SMALL_CONFIG
from repro.sim.cpu import (
    CPUModel,
    LEVEL_DRAM,
    LEVEL_L1,
    LEVEL_L2,
    LEVEL_LLC,
    TimingResult,
)
from repro.policies.basic import LRUPolicy
from repro.tracedb.schema import (
    AccessLog,
    AccessRecord,
    MISS_TYPE_CODES,
    NEVER_REUSED,
)
from repro.workloads.trace import FLAG_PREFETCH, FLAG_WRITE, MemoryTrace


@dataclass
class TraceReuse:
    """Reuse-distance precomputation for one access stream.

    ``next_use`` is always present (the stats path only needs it for
    ``requires_future`` policies); ``prev_use`` and ``positions_by_block``
    are the richer full-detail form.  Instances are shared read-only across
    rollouts and across cells via :meth:`SimulationCache.reuse_for`, so they
    must never be mutated after construction.
    """

    next_use: List[int]
    prev_use: Optional[List[int]] = None
    positions_by_block: Optional[Dict[int, List[int]]] = None


#: Provider signature for shared reuse precomputation:
#: ``(trace, block_bytes, full) -> TraceReuse`` (llc_only streams only —
#: hierarchy streams depend on the upper-level geometry, not just the trace).
ReuseProvider = Callable[[MemoryTrace, int, bool], TraceReuse]


def compute_next_use(addresses: Sequence[int], block_bytes: int) -> List[int]:
    """Per-position next-use indices over one address sequence.

    Single reverse pass — cheaper than the full per-block position lists the
    record-building path needs.  ``NEVER`` marks "no next use".
    """
    next_use = [NEVER] * len(addresses)
    next_seen: Dict[int, int] = {}
    for position in range(len(addresses) - 1, -1, -1):
        block = addresses[position] // block_bytes
        next_use[position] = next_seen.get(block, NEVER)
        next_seen[block] = position
    return next_use


def compute_full_reuse(addresses: Sequence[int],
                       block_bytes: int) -> TraceReuse:
    """Full reuse precomputation (next/prev use + per-block positions).

    Positions are indices into the given access stream, matching what
    :meth:`SimulationEngine._compute_reuse` historically produced over the
    LLC stream; the full-detail replay needs all three pieces.
    """
    positions_by_block: Dict[int, List[int]] = {}
    for position, address in enumerate(addresses):
        block = address // block_bytes
        positions_by_block.setdefault(block, []).append(position)

    next_use = [NEVER] * len(addresses)
    prev_use = [-1] * len(addresses)
    for positions in positions_by_block.values():
        for i, position in enumerate(positions):
            if i + 1 < len(positions):
                next_use[position] = positions[i + 1]
            if i > 0:
                prev_use[position] = positions[i - 1]
    return TraceReuse(next_use=next_use, prev_use=prev_use,
                      positions_by_block=positions_by_block)


@dataclass
class PreparedReplay:
    """Precomputed replay inputs shared across rollouts of one trace.

    The batch kernel computes the LLC stream (hierarchy filtering), the
    upper-level service map and the reuse arrays once per (trace, geometry)
    group and hands the same objects to every rollout via
    :meth:`SimulationEngine.run`; all fields are treated as read-only.
    ``None`` fields fall back to the engine's own per-run computation.
    """

    llc_stream: Optional[List[Tuple[int, int, int, bool, bool]]] = None
    upper_levels: Optional[Dict[int, str]] = None
    reuse: Optional[TraceReuse] = None


@dataclass
class SimulationResult:
    """Everything produced by one (workload, policy) simulation.

    Per-access data lives in the columnar ``log``; the ``records`` row view
    is materialised (and cached) only when someone asks for it.
    """

    workload: str
    policy_name: str
    policy_description: str
    config: HierarchyConfig
    mode: str
    detail: str = DETAIL_FULL
    log: Optional[AccessLog] = field(default=None, repr=False)
    llc_stats: CacheStats = field(default_factory=CacheStats)
    level_stats: Dict[str, CacheStats] = field(default_factory=dict)
    timing: TimingResult = field(default_factory=TimingResult)
    wrong_evictions: int = 0
    binary: Optional[object] = field(default=None, repr=False)

    @property
    def num_records(self) -> int:
        """Row count of the access log (without materialising records)."""
        return len(self.log) if self.log is not None else 0

    @cached_property
    def records(self) -> List[AccessRecord]:
        """Lazily materialised row views over the columnar access log."""
        return self.log.to_records() if self.log is not None else []

    def __getstate__(self) -> dict:
        # Drop lazily materialised caches: the row views rebuild from the
        # (compact) log, and pickling them would explode the payload the
        # persistent store and parallel workers ship around.
        state = dict(self.__dict__)
        state.pop("records", None)
        state.pop("set_hit_rates", None)
        return state

    @property
    def llc_accesses(self) -> int:
        return self.llc_stats.accesses

    @property
    def llc_hit_rate(self) -> float:
        return self.llc_stats.hit_rate

    @property
    def llc_miss_rate(self) -> float:
        return self.llc_stats.miss_rate

    @property
    def ipc(self) -> float:
        return self.timing.ipc

    @cached_property
    def set_hit_rates(self) -> Dict[int, float]:
        """Per-set hit rates, derived lazily from the LLC counters.

        Computed (and cached) on first read, so stats-only replay does no
        per-set post-processing unless a caller actually asks for it.
        """
        return self.llc_stats.set_hit_rates()

    def summary(self) -> str:
        return (f"{self.workload} under {self.policy_name}: "
                f"{self.llc_stats.accesses} LLC accesses, "
                f"{self.llc_stats.miss_rate * 100:.2f}% miss rate, "
                f"IPC {self.timing.ipc:.4f}")


class SimulationEngine:
    """Replays memory traces and produces annotated LLC access records."""

    def __init__(self, config: HierarchyConfig = SMALL_CONFIG,
                 mode: str = "llc_only", history_window: int = 8,
                 annotate_context: bool = True,
                 max_records: Optional[int] = None,
                 detail: str = DETAIL_FULL,
                 reuse_cache: Optional[ReuseProvider] = None):
        if mode not in ("llc_only", "hierarchy"):
            raise ValueError("mode must be 'llc_only' or 'hierarchy'")
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")
        self.config = config
        self.mode = mode
        self.history_window = history_window
        self.annotate_context = annotate_context
        self.max_records = max_records
        self.detail = detail
        #: Optional shared reuse provider (``SimulationCache.reuse_for``):
        #: llc_only runs fetch next-use/positions from it instead of
        #: recomputing per cell.  The returned arrays are identical to the
        #: local computation, so results are byte-for-byte unchanged.
        self.reuse_cache = reuse_cache

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, trace: MemoryTrace, policy,
            prepared: Optional[PreparedReplay] = None) -> SimulationResult:
        """Simulate ``trace`` with ``policy`` at the LLC.

        ``policy`` may be a :class:`ReplacementPolicy` instance or a
        registered policy name.  ``prepared`` optionally supplies
        precomputed (shared, read-only) replay inputs — the batch kernel's
        way of amortising stream filtering and reuse precomputation across
        many rollouts; a ``None`` field falls back to local computation, so
        results are identical either way.
        """
        if isinstance(policy, str):
            policy = get_policy(policy)
        if self.detail == DETAIL_STATS:
            return self._run_stats(trace, policy, prepared)
        if prepared is not None and prepared.llc_stream is not None:
            llc_stream = prepared.llc_stream
            upper_levels = prepared.upper_levels or {}
        else:
            llc_stream, upper_levels = self._build_llc_stream(trace)
        reuse = prepared.reuse if prepared is not None else None
        if reuse is None or reuse.prev_use is None:
            if self.mode == "llc_only" and self.reuse_cache is not None:
                reuse = self.reuse_cache(trace,
                                         self.config.llc.block_bytes, True)
            else:
                reuse = compute_full_reuse(
                    [address for _i, _pc, address, _w, _p in llc_stream],
                    self.config.llc.block_bytes)
        self._positions_by_block = reuse.positions_by_block or {}
        return self._replay_llc(trace, policy, llc_stream, upper_levels,
                                reuse.next_use, reuse.prev_use)

    # ------------------------------------------------------------------
    # pass 1: determine which accesses reach the LLC
    # ------------------------------------------------------------------
    def _build_llc_stream(self, trace: MemoryTrace
                          ) -> Tuple[List[Tuple[int, int, int, bool, bool]],
                                     Dict[int, str]]:
        """Return the LLC-bound accesses and the service level of the rest.

        The first element is a list of ``(trace_index, pc, address, is_write,
        is_prefetch)`` tuples (decoded straight from the trace columns) that
        reach the LLC; the second maps every other trace index to the level
        (L1 or L2) that serviced it.
        """
        pcs, addresses, flags, _instr = trace.columns()
        if self.mode == "llc_only":
            return [(index, pc, address, bool(flag & FLAG_WRITE),
                     bool(flag & FLAG_PREFETCH))
                    for index, (pc, address, flag)
                    in enumerate(zip(pcs, addresses, flags))], {}

        # The upper levels are always LRU, so the stats-only fast path is
        # behaviourally identical and filtering needs no outcome details.
        l1d = Cache(self.config.l1d, LRUPolicy(), detail=DETAIL_STATS)
        l2 = Cache(self.config.l2, LRUPolicy(), detail=DETAIL_STATS)
        l1_access = l1d.access_fast
        l2_access = l2.access_fast
        llc_stream: List[Tuple[int, int, int, bool, bool]] = []
        upper_levels: Dict[int, str] = {}
        for index, (pc, address, flag) in enumerate(zip(pcs, addresses, flags)):
            is_write = bool(flag & FLAG_WRITE)
            is_prefetch = bool(flag & FLAG_PREFETCH)
            if l1_access(pc, address, is_write, index,
                         is_prefetch=is_prefetch):
                upper_levels[index] = LEVEL_L1
                continue
            if l2_access(pc, address, is_write, index,
                         is_prefetch=is_prefetch):
                upper_levels[index] = LEVEL_L2
                continue
            llc_stream.append((index, pc, address, is_write, is_prefetch))
        return llc_stream, upper_levels

    # ------------------------------------------------------------------
    # pass 2 support: reuse-distance precomputation over the LLC stream
    # ------------------------------------------------------------------
    def _next_use_of_block(self, block: int, position: int) -> int:
        """Next LLC-stream position at which ``block`` is accessed after
        ``position`` (exclusive), or ``NEVER``."""
        positions = self._positions_by_block.get(block)
        if not positions:
            return NEVER
        index = bisect.bisect_right(positions, position)
        if index >= len(positions):
            return NEVER
        return positions[index]

    # ------------------------------------------------------------------
    # pass 2: replay the LLC with the policy under study
    # ------------------------------------------------------------------
    def _replay_llc(self, trace: MemoryTrace, policy: ReplacementPolicy,
                    llc_stream: List[Tuple[int, int, int, bool, bool]],
                    upper_levels: Dict[int, str],
                    next_use: List[int], prev_use: List[int]) -> SimulationResult:
        llc = Cache(self.config.llc, policy, classify_misses=True)
        cpu = CPUModel(self.config)
        block_bytes = self.config.llc.block_bytes
        binary = trace.binary

        log = AccessLog()
        history: List[Tuple[int, int]] = []  # (block, pc) of recent LLC accesses
        llc_levels: Dict[int, str] = {}
        wrong_evictions = 0
        annotate = self.annotate_context and binary is not None
        # Source/assembly context is a pure function of the PC, so it is
        # resolved once per unique PC instead of once per access.
        context_by_pc: Dict[int, Tuple[str, str, str]] = {}
        empty_context = ("", "", "")

        for position, (trace_index, pc, address, is_write,
                       is_prefetch) in enumerate(llc_stream):
            block = address // block_bytes
            outcome = llc.access(pc, address, is_write,
                                 access_index=position,
                                 next_use=next_use[position],
                                 is_prefetch=is_prefetch)
            llc_levels[trace_index] = LEVEL_LLC if outcome.hit else LEVEL_DRAM

            accessed_rd = (NEVER_REUSED if next_use[position] >= NEVER
                          else next_use[position] - position)
            recency = (NEVER_REUSED if prev_use[position] < 0
                       else position - prev_use[position])
            evicted_rd = NEVER_REUSED
            evicted_block = outcome.evicted_block
            if evicted_block is not None:
                evicted_next = self._next_use_of_block(evicted_block, position)
                if evicted_next < NEVER:
                    evicted_rd = evicted_next - position
                    if accessed_rd == NEVER_REUSED or evicted_rd < accessed_rd:
                        wrong_evictions += 1

            if self.max_records is None or len(log) < self.max_records:
                if annotate:
                    context = context_by_pc.get(pc)
                    if context is None:
                        context = (binary.function_name(pc),
                                   binary.source_snippet(pc),
                                   binary.assembly_context(pc))
                        context_by_pc[pc] = context
                else:
                    context = empty_context
                log.append(
                    position, pc, block, outcome.set_index, outcome.hit,
                    MISS_TYPE_CODES[outcome.miss_type],
                    -1 if evicted_block is None else evicted_block,
                    accessed_rd, evicted_rd, recency,
                    context[0], context[1], context[2],
                    outcome.resident_lines,
                    history[-self.history_window:],
                    outcome.eviction_scores,
                )

            history.append((block, pc))
            if len(history) > 4 * self.history_window:
                del history[: 2 * self.history_window]

        # Timing: walk the whole trace once — straight over the raw columns —
        # using the recorded service levels.
        _pcs, _addresses, trace_flags, trace_instr = trace.columns()
        for trace_index, (flag, gap) in enumerate(zip(trace_flags, trace_instr)):
            is_prefetch = bool(flag & FLAG_PREFETCH)
            if not is_prefetch:
                cpu.retire(gap + 1)
            level = upper_levels.get(trace_index) or llc_levels.get(trace_index)
            if level is None:
                # llc_only mode guarantees an LLC level for every access; this
                # branch only guards against malformed traces.
                level = LEVEL_DRAM
            cpu.memory_access(level, is_write=bool(flag & FLAG_WRITE),
                              is_prefetch=is_prefetch)

        result = SimulationResult(
            workload=trace.workload,
            policy_name=getattr(policy, "name", type(policy).__name__),
            policy_description=policy.describe(),
            config=self.config,
            mode=self.mode,
            detail=self.detail,
            log=log,
            llc_stats=llc.stats,
            level_stats={"llc": llc.stats},
            timing=cpu.finish(),
            wrong_evictions=wrong_evictions,
            binary=binary,
        )
        return result

    # ------------------------------------------------------------------
    # stats-only replay
    # ------------------------------------------------------------------
    @staticmethod
    def _next_use_sequence(addresses: Sequence[int],
                           block_bytes: int) -> List[int]:
        """Back-compat alias for :func:`compute_next_use` (only computed at
        all when the policy declares ``requires_future``)."""
        return compute_next_use(addresses, block_bytes)

    def _run_stats(self, trace: MemoryTrace, policy: ReplacementPolicy,
                   prepared: Optional[PreparedReplay] = None
                   ) -> SimulationResult:
        """Aggregate-only replay: no records, snapshots or context lookups."""
        config = self.config
        llc = Cache(config.llc, policy, classify_misses=True,
                    detail=DETAIL_STATS)
        requires_future = bool(getattr(policy, "requires_future", False))
        if self.mode == "llc_only":
            llc_stats, timing = self._replay_stats_llc_only(
                trace, llc, requires_future, prepared)
        else:
            llc_stats, timing = self._replay_stats_hierarchy(
                trace, llc, requires_future, prepared)
        return SimulationResult(
            workload=trace.workload,
            policy_name=getattr(policy, "name", type(policy).__name__),
            policy_description=policy.describe(),
            config=config,
            mode=self.mode,
            detail=self.detail,
            llc_stats=llc_stats,
            level_stats={"llc": llc_stats},
            timing=timing,
            binary=trace.binary,
        )

    def _replay_stats_llc_only(self, trace: MemoryTrace, llc: Cache,
                               requires_future: bool,
                               prepared: Optional[PreparedReplay] = None
                               ) -> Tuple[CacheStats, TimingResult]:
        """Fused simulate+timing loop over the raw trace columns.

        Accumulates the analytic timing model inline in the same order as
        :class:`CPUModel`, so IPC/cycles match the full-detail path exactly.
        """
        config = self.config
        pcs, addresses, flags, instr = trace.columns()
        next_use = None
        if requires_future:
            if prepared is not None and prepared.reuse is not None:
                next_use = prepared.reuse.next_use
            elif self.reuse_cache is not None:
                next_use = self.reuse_cache(
                    trace, config.llc.block_bytes, False).next_use
            else:
                next_use = compute_next_use(addresses,
                                            config.llc.block_bytes)

        # Hoisted loop state: one bound method, precomputed stall constants.
        access_fast = llc.access_fast
        retire_width = config.core.retire_width
        overlap = 1.0 - config.core.overlap_factor
        to_llc = float(config.l1d.latency_cycles + config.l2.latency_cycles
                       + config.llc.latency_cycles)
        to_dram = to_llc + config.dram.access_latency_cycles
        llc_stall = to_llc * overlap
        dram_stall = to_dram * overlap

        instructions = 0
        base_cycles = 0.0
        stall_cycles = 0.0
        llc_stall_total = 0.0
        dram_stall_total = 0.0
        llc_count = dram_count = 0
        llc_stall_events = dram_stall_events = 0

        for position, (pc, address, flag, gap) in enumerate(
                zip(pcs, addresses, flags, instr)):
            is_prefetch = bool(flag & FLAG_PREFETCH)
            is_write = bool(flag & FLAG_WRITE)
            if next_use is None:
                hit = access_fast(pc, address, is_write,
                                  position, NEVER, is_prefetch)
            else:
                hit = access_fast(pc, address, is_write,
                                  position, next_use[position], is_prefetch)
            if not is_prefetch:
                retired = gap + 1
                instructions += retired
                base_cycles += retired / retire_width
            if hit:
                llc_count += 1
                if not (is_write or is_prefetch):
                    stall_cycles += llc_stall
                    llc_stall_total += llc_stall
                    llc_stall_events += 1
            else:
                dram_count += 1
                if not (is_write or is_prefetch):
                    stall_cycles += dram_stall
                    dram_stall_total += dram_stall
                    dram_stall_events += 1

        timing = TimingResult(
            instructions=instructions,
            base_cycles=base_cycles,
            stall_cycles=stall_cycles,
        )
        if llc_count:
            timing.accesses_by_level[LEVEL_LLC] = llc_count
        if dram_count:
            timing.accesses_by_level[LEVEL_DRAM] = dram_count
        if llc_stall_events:
            timing.stalls_by_level[LEVEL_LLC] = llc_stall_total
        if dram_stall_events:
            timing.stalls_by_level[LEVEL_DRAM] = dram_stall_total
        return llc.stats, timing

    def _replay_stats_hierarchy(self, trace: MemoryTrace, llc: Cache,
                                requires_future: bool,
                                prepared: Optional[PreparedReplay] = None
                                ) -> Tuple[CacheStats, TimingResult]:
        """Stats-only hierarchy replay: filter, replay LLC, one timing walk."""
        if prepared is not None and prepared.llc_stream is not None:
            llc_stream = prepared.llc_stream
            upper_levels = prepared.upper_levels or {}
        else:
            llc_stream, upper_levels = self._build_llc_stream(trace)
        block_bytes = self.config.llc.block_bytes
        next_use = None
        if requires_future:
            if prepared is not None and prepared.reuse is not None:
                next_use = prepared.reuse.next_use
            else:
                next_use = compute_next_use(
                    [address for _i, _pc, address, _w, _p in llc_stream],
                    block_bytes)

        access_fast = llc.access_fast
        llc_hits: List[bool] = []
        for position, (_trace_index, pc, address, is_write,
                       is_prefetch) in enumerate(llc_stream):
            llc_hits.append(access_fast(
                pc, address, is_write, position,
                NEVER if next_use is None else next_use[position],
                is_prefetch))

        # The filtered stream is sparse relative to the trace, so the timing
        # walk reuses CPUModel rather than a fused loop (identical numbers).
        cpu = CPUModel(self.config)
        llc_position = 0
        _pcs, _addresses, trace_flags, trace_instr = trace.columns()
        for trace_index, (flag, gap) in enumerate(zip(trace_flags, trace_instr)):
            is_prefetch = bool(flag & FLAG_PREFETCH)
            if not is_prefetch:
                cpu.retire(gap + 1)
            level = upper_levels.get(trace_index)
            if level is None:
                level = LEVEL_LLC if llc_hits[llc_position] else LEVEL_DRAM
                llc_position += 1
            cpu.memory_access(level, is_write=bool(flag & FLAG_WRITE),
                              is_prefetch=is_prefetch)
        return llc.stats, cpu.finish()


def simulate(trace: MemoryTrace, policy, config: HierarchyConfig = SMALL_CONFIG,
             mode: str = "llc_only", **engine_kwargs) -> SimulationResult:
    """Convenience wrapper: build an engine and run one simulation."""
    engine = SimulationEngine(config=config, mode=mode, **engine_kwargs)
    return engine.run(trace, policy)
