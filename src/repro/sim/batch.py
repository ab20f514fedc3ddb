"""The replay core: one trace pass per rollout, decision columns out.

Every stats replay in the system runs here — a grid cell through
:meth:`BatchSimulator.run`, a single ``SimulationEngine(detail="stats")``
run through :meth:`BatchSimulator.rollout` — and every rollout produces the
same thing: a per-access **hits column** over its LLC stream.  Everything
else is a reduction over that column:

* the LLC :class:`~repro.sim.cache.CacheStats` (per-set accesses and hits,
  the miss classes at the miss positions, evictions);
* the service-level column, and from it the analytic timing through the
  one :func:`~repro.sim.cpu.timing_from_levels`.

This follows the "parallel rollouts as array programs" shape (Considine,
arXiv:2604.12902): N rollouts that share a trace read one set of
policy-independent columns, computed once per (trace, stream, geometry) and
shared read-only:

* the LLC stream (:func:`llc_stream`, which the engine's full-detail
  replay uses too) — the whole trace in ``llc_only`` mode, the
  L1/L2-filtered accesses in ``hierarchy`` mode (the upper levels are
  always LRU, run through the native LRU kernel, so the filtered stream is
  identical for every LLC policy);
* block and set columns over that stream (shift/mask on power-of-two
  geometries, div/mod otherwise);
* the miss classification (compulsory/capacity/conflict) — a pure function
  of the stream and ``(block_bytes, capacity)`` because the seen-set and
  the fully-associative shadow cache are updated on *every* access,
  whatever the policy decides — as one ``bytearray`` of class codes;
* per-set access counts and the oracle next-use array (for ``llc_only``
  streams optionally from a shared ``reuse_cache`` provider).

Four policies (lru, fifo, belady, srrip) have *native* kernels over flat
preallocated columns.  They never bypass and always fill free ways first,
which is what lets evictions be reduced from per-set miss counts.  Every
other policy replays through its own callbacks in one generic
:meth:`~repro.sim.cache.Cache.access_fast` loop, whose counters (bypasses
included) come from the cache itself.  Full-detail rollouts run the
engine's capture replay with the shared stream and reuse injected via
:class:`~repro.sim.engine.PreparedReplay`.  ``tests/test_batch.py`` holds
every path to the full-detail callback replay as the reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.policies.base import NEVER, ReplacementPolicy, get_policy
from repro.sim.cache import Cache, CacheStats
from repro.sim.config import HierarchyConfig
from repro.sim.cpu import (
    LEVEL_L1,
    LEVEL_L2,
    service_levels,
    timing_from_levels,
)
from repro.sim.engine import (
    DETAIL_LEVELS,
    DETAIL_STATS,
    PreparedReplay,
    ReuseProvider,
    SimulationEngine,
    SimulationResult,
    TraceReuse,
    compute_full_reuse,
    compute_next_use,
)
from repro.workloads.trace import FLAG_PREFETCH, FLAG_WRITE, MemoryTrace

#: Policies with a native decision-column kernel (registry defaults).
NATIVE_POLICIES = ("lru", "fifo", "belady", "srrip")

#: ``bytes.translate`` table turning a hits column into a misses column.
_MISS_OF_HIT = bytes([1, 0]) + bytes(254)


@dataclass(frozen=True)
class RolloutSpec:
    """One rollout of the shared trace: policy x config x mode x detail.

    The engine-knob fields (``max_records``, ``history_window``,
    ``annotate_context``) default to :class:`SimulationEngine`'s defaults so
    a bare ``RolloutSpec(policy, config)`` reproduces ``engine.run``
    exactly.
    """

    policy: str
    config: HierarchyConfig
    mode: str = "llc_only"
    detail: str = DETAIL_STATS
    max_records: Optional[int] = None
    history_window: int = 8
    annotate_context: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("llc_only", "hierarchy"):
            raise ValueError("mode must be 'llc_only' or 'hierarchy'")
        if self.detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")


def rollout_strategy(spec: RolloutSpec) -> str:
    """How the replay core runs one rollout.

    ``"native:<policy>"`` — a decision-column kernel, for every stats
    rollout of a policy in :data:`NATIVE_POLICIES` (requested *by name*, so
    its parameters are the registry defaults the kernels replicate), in
    either mode and on any geometry; ``"engine"`` — the policy's own
    callbacks through :class:`~repro.sim.cache.Cache`.
    """
    if spec.detail == DETAIL_STATS and spec.policy in NATIVE_POLICIES:
        return f"native:{spec.policy}"
    return "engine"


def block_column(addresses: Sequence[int], block_bytes: int) -> List[int]:
    """Block address of every byte address."""
    if block_bytes & (block_bytes - 1) == 0:
        shift = block_bytes.bit_length() - 1
        return [address >> shift for address in addresses]
    return [address // block_bytes for address in addresses]


def set_column(blocks: Sequence[int], num_sets: int) -> List[int]:
    """Set index of every block address."""
    if num_sets & (num_sets - 1) == 0:
        mask = num_sets - 1
        return [block & mask for block in blocks]
    return [block % num_sets for block in blocks]


def llc_stream(trace: MemoryTrace, config: HierarchyConfig, mode: str
               ) -> Tuple[List[Tuple[int, int, int, bool, bool]],
                          Dict[int, str]]:
    """The LLC-bound accesses of ``trace`` and the service level of the rest.

    The first element is a list of ``(trace_index, pc, address, is_write,
    is_prefetch)`` tuples (decoded straight from the trace columns) that
    reach the LLC; the second maps every other trace index to the level
    (L1 or L2) that serviced it.  In ``llc_only`` mode every access reaches
    the LLC.
    """
    pcs, addresses, flags, _instr = trace.columns()
    if mode == "llc_only":
        return [(index, pc, address, bool(flag & FLAG_WRITE),
                 bool(flag & FLAG_PREFETCH))
                for index, (pc, address, flag)
                in enumerate(zip(pcs, addresses, flags))], {}

    # The upper levels are always LRU: the L1 hits column, then the L2 hits
    # column over the L1 misses, from the native LRU kernel.
    indices: Sequence[int] = range(len(addresses))
    upper_levels: Dict[int, str] = {}
    for level, cache in ((LEVEL_L1, config.l1d), (LEVEL_L2, config.l2)):
        blocks = block_column([addresses[index] for index in indices],
                              cache.block_bytes)
        hits = _rollout_lru(blocks, set_column(blocks, cache.num_sets),
                            cache.num_sets, cache.num_ways, None)
        upper_levels.update((index, level)
                            for index in compress(indices, hits))
        indices = [index for index, hit in zip(indices, hits) if not hit]
    stream = [(index, pcs[index], addresses[index],
               bool(flags[index] & FLAG_WRITE),
               bool(flags[index] & FLAG_PREFETCH))
              for index in indices]
    return stream, upper_levels


def _stream_key(spec: RolloutSpec):
    """What a rollout's LLC stream depends on: nothing in ``llc_only`` mode,
    the upper-level geometry in ``hierarchy`` mode."""
    if spec.mode == "llc_only":
        return "llc_only"
    return (spec.config.l1d, spec.config.l2)


class BatchSimulator:
    """Replay many rollouts of one trace over shared decision-column inputs.

    Construct one per trace and call :meth:`run` with the rollout specs;
    results come back in spec order, each identical to what a fresh
    ``SimulationEngine(...).run(trace, policy)`` would produce.  The
    strategy chosen for each rollout of the last :meth:`run` is recorded in
    :attr:`strategies`.

    Shared precomputes are cached on the instance, keyed by the stream and
    the geometry parameters they actually depend on — so a 9-cell grid over
    3 configs sharing a block size decodes block addresses once, classifies
    misses once per distinct capacity, and computes the oracle next-use
    array exactly once.  ``reuse_cache`` (``SimulationCache.reuse_for``)
    optionally supplies the ``llc_only`` reuse arrays instead, so they are
    shared across batches too; they are identical to the local computation.
    """

    def __init__(self, trace: MemoryTrace,
                 reuse_cache: Optional[ReuseProvider] = None):
        self.trace = trace
        self.reuse_cache = reuse_cache
        self._columns = trace.columns()
        self.strategies: List[str] = []
        self._memo: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RolloutSpec]) -> List[SimulationResult]:
        """Execute every rollout; results in spec order."""
        self.strategies = [rollout_strategy(spec) for spec in specs]
        return [self.rollout(spec) for spec in specs]

    def rollout(self, spec: RolloutSpec,
                policy: Optional[ReplacementPolicy] = None
                ) -> SimulationResult:
        """Execute one rollout.

        ``policy`` replays a caller-built instance instead of the registry
        default named by ``spec.policy``; it always takes the generic
        callback loop, since its parameters may differ from the defaults
        the native kernels replicate.
        """
        if spec.detail != DETAIL_STATS:
            return self._run_engine(spec)
        native = policy is None and spec.policy in NATIVE_POLICIES
        if policy is None:
            policy = get_policy(spec.policy)
        next_use = (self._next_use(spec)
                    if getattr(policy, "requires_future", False) else None)
        if native:
            llc = spec.config.llc
            hits = _NATIVE_KERNELS[spec.policy](
                self._blocks(spec), self._sets(spec), llc.num_sets,
                llc.num_ways, next_use)
            stats = self._stats_from_hits(spec, hits)
        else:
            stats, hits = self._rollout_generic(spec, policy, next_use)
        if spec.mode == "llc_only":
            levels = service_levels(len(self.trace), {}, (), hits)
        else:
            levels = service_levels(len(self.trace), self._stream(spec)[1],
                                    self._stream_indices(spec), hits)
        _pcs, _addresses, flags, instr = self._columns
        return SimulationResult(
            workload=self.trace.workload,
            policy_name=getattr(policy, "name", type(policy).__name__),
            policy_description=policy.describe(),
            config=spec.config,
            mode=spec.mode,
            detail=spec.detail,
            llc_stats=stats,
            level_stats={"llc": stats},
            timing=timing_from_levels(spec.config, flags, instr, levels),
            binary=self.trace.binary,
        )

    # ------------------------------------------------------------------
    # shared precomputes (policy-independent, cached per stream/geometry)
    # ------------------------------------------------------------------
    def _cached(self, key: tuple, build: Callable[[], object]):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def _stream(self, spec: RolloutSpec) -> tuple:
        """``(llc_stream, upper_levels)`` of the rollout's mode."""
        return self._cached(
            ("stream", _stream_key(spec)),
            lambda: llc_stream(self.trace, spec.config, spec.mode))

    def _stream_indices(self, spec: RolloutSpec) -> List[int]:
        """The trace index of every access of a ``hierarchy`` LLC stream."""
        return self._cached(
            ("indices", _stream_key(spec)),
            lambda: [entry[0] for entry in self._stream(spec)[0]])

    def _addresses(self, spec: RolloutSpec) -> Sequence[int]:
        """The address column of the rollout's LLC stream."""
        if spec.mode == "llc_only":
            return self._columns[1]
        return self._cached(
            ("addresses", _stream_key(spec)),
            lambda: [entry[2] for entry in self._stream(spec)[0]])

    def _blocks(self, spec: RolloutSpec) -> List[int]:
        block_bytes = spec.config.llc.block_bytes
        return self._cached(
            ("blocks", _stream_key(spec), block_bytes),
            lambda: block_column(self._addresses(spec), block_bytes))

    def _sets(self, spec: RolloutSpec) -> List[int]:
        llc = spec.config.llc
        return self._cached(
            ("sets", _stream_key(spec), llc.block_bytes, llc.num_sets),
            lambda: set_column(self._blocks(spec), llc.num_sets))

    def _per_set_accesses(self, spec: RolloutSpec) -> List[int]:
        llc = spec.config.llc

        def build() -> List[int]:
            counts = [0] * llc.num_sets
            for set_index in self._sets(spec):
                counts[set_index] += 1
            return counts

        return self._cached(
            ("per_set", _stream_key(spec), llc.block_bytes, llc.num_sets),
            build)

    def _miss_classes(self, spec: RolloutSpec) -> bytearray:
        """Per-position miss class codes (0=compulsory, 1=capacity,
        2=conflict) — what :meth:`Cache._classify_miss` would answer if the
        access missed.

        Policy-independent: the seen-set and the fully-associative LRU
        shadow are updated on every access (hit or miss), so the state at
        position ``p`` depends only on accesses ``0..p-1``.  The shadow is
        a plain insertion-ordered dict (del+reinsert == ``move_to_end``),
        matching the cache's ``OrderedDict`` semantics exactly.
        """
        llc = spec.config.llc
        capacity = llc.num_blocks

        def build() -> bytearray:
            blocks = self._blocks(spec)
            classes = bytearray(len(blocks))
            seen = set()
            shadow: Dict[int, None] = {}
            add = seen.add
            for position, block in enumerate(blocks):
                if block in shadow:
                    classes[position] = 2  # conflict: shadow would have hit
                    del shadow[block]
                    shadow[block] = None
                else:
                    if block in seen:
                        classes[position] = 1  # capacity
                    else:
                        add(block)  # compulsory (code 0)
                    shadow[block] = None
                    while len(shadow) > capacity:
                        del shadow[next(iter(shadow))]
            return classes

        return self._cached(
            ("mclass", _stream_key(spec), llc.block_bytes, capacity), build)

    def _full_reuse(self, spec: RolloutSpec) -> TraceReuse:
        block_bytes = spec.config.llc.block_bytes
        if spec.mode == "llc_only" and self.reuse_cache is not None:
            return self.reuse_cache(self.trace, block_bytes, True)
        return self._cached(
            ("full_reuse", _stream_key(spec), block_bytes),
            lambda: compute_full_reuse(self._addresses(spec), block_bytes))

    def _next_use(self, spec: RolloutSpec) -> List[int]:
        block_bytes = spec.config.llc.block_bytes
        if spec.mode == "llc_only" and self.reuse_cache is not None:
            return self.reuse_cache(self.trace, block_bytes, False).next_use
        full = self._memo.get(("full_reuse", _stream_key(spec), block_bytes))
        if full is not None:
            return full.next_use
        return self._cached(
            ("next_use", _stream_key(spec), block_bytes),
            lambda: compute_next_use(self._addresses(spec), block_bytes))

    # ------------------------------------------------------------------
    # reductions and the non-native paths
    # ------------------------------------------------------------------
    def _stats_from_hits(self, spec: RolloutSpec,
                         hits: bytearray) -> CacheStats:
        """LLC counters of a native rollout, reduced from its hits column."""
        llc = spec.config.llc
        per_set_accesses = self._per_set_accesses(spec)
        per_set_hits = [0] * llc.num_sets
        for set_index, count in Counter(compress(self._sets(spec),
                                                 hits)).items():
            per_set_hits[set_index] = count
        miss_classes = bytes(compress(self._miss_classes(spec),
                                      hits.translate(_MISS_OF_HIT)))
        # Native kernels never bypass and fill free ways first, so every
        # miss past a set's first ``num_ways`` evicts.
        evictions = sum(
            max(0, accesses - set_hits - llc.num_ways)
            for accesses, set_hits in zip(per_set_accesses, per_set_hits))
        misses = len(miss_classes)
        return CacheStats(
            accesses=len(hits),
            hits=len(hits) - misses,
            misses=misses,
            evictions=evictions,
            bypasses=0,
            compulsory_misses=miss_classes.count(0),
            capacity_misses=miss_classes.count(1),
            conflict_misses=miss_classes.count(2),
            per_set_accesses=list(per_set_accesses),
            per_set_hits=per_set_hits,
        )

    def _rollout_generic(self, spec: RolloutSpec, policy: ReplacementPolicy,
                         next_use: Optional[List[int]]) -> tuple:
        """``(stats, hits)`` of a replay through the policy's callbacks."""
        pcs, addresses, flags, _instr = self._columns
        if spec.mode == "llc_only":
            accesses = zip(pcs, addresses, flags)
        else:
            accesses = ((pcs[index], addresses[index], flags[index])
                        for index in self._stream_indices(spec))
        llc = Cache(spec.config.llc, policy, classify_misses=True)
        access = llc.access_fast
        hits = bytearray()
        hit = hits.append
        for position, (pc, address, flag) in enumerate(accesses):
            hit(access(pc, address, bool(flag & FLAG_WRITE), position,
                       NEVER if next_use is None else next_use[position],
                       bool(flag & FLAG_PREFETCH)))
        return llc.stats, hits

    def _run_engine(self, spec: RolloutSpec) -> SimulationResult:
        """A full-detail rollout: the engine's capture replay, fed the
        shared stream and reuse precomputes."""
        engine = SimulationEngine(
            config=spec.config, mode=spec.mode,
            history_window=spec.history_window,
            annotate_context=spec.annotate_context,
            max_records=spec.max_records, detail=spec.detail)
        stream, upper_levels = self._stream(spec)
        prepared = PreparedReplay(llc_stream=stream, upper_levels=upper_levels,
                                  reuse=self._full_reuse(spec))
        return engine.run(self.trace, get_policy(spec.policy),
                          prepared=prepared)


# ----------------------------------------------------------------------
# native kernels
# ----------------------------------------------------------------------
# Each kernel replays ONE rollout over the SHARED block/set columns of its
# LLC stream with flat, preallocated per-rollout state, and returns the
# hits column: ``hits[p]`` is 1 when access ``p`` of the stream hit.


def _rollout_lru(blocks, sets, num_sets, num_ways, _next_use) -> bytearray:
    # Insertion order of each per-set dict doubles as recency order (hits
    # delete+reinsert), so the first key is the least recently used block.
    tags: List[dict] = [{} for _ in range(num_sets)]
    hits = bytearray()
    hit = hits.append
    for block, set_index in zip(blocks, sets):
        t = tags[set_index]
        if block in t:
            del t[block]
            t[block] = None
            hit(1)
        else:
            if len(t) == num_ways:
                del t[next(iter(t))]
            t[block] = None
            hit(0)
    return hits


def _rollout_fifo(blocks, sets, num_sets, num_ways, _next_use) -> bytearray:
    # Insertion order == fill order; hits do not reorder, so the first dict
    # key is the min-inserted_at line FIFO's choose_victim picks.
    tags: List[dict] = [{} for _ in range(num_sets)]
    hits = bytearray()
    hit = hits.append
    for block, set_index in zip(blocks, sets):
        t = tags[set_index]
        if block in t:
            hit(1)
        else:
            if len(t) == num_ways:
                del t[next(iter(t))]
            t[block] = None
            hit(0)
    return hits


def _rollout_belady(blocks, sets, num_sets, num_ways, next_use) -> bytearray:
    # Flat per-way columns: resident block and its next use, indexed by
    # set_index * num_ways + way.  Fills-only caches fill ways 0..W-1 in
    # order, so the per-set occupancy counter IS the next free way; the
    # victim scan takes the first way-order maximum (strictly-greater
    # comparisons), matching max(lines, key=next_use).
    total_ways = num_sets * num_ways
    resident_block = [-1] * total_ways
    resident_next = [0] * total_ways
    occupancy = [0] * num_sets
    slot_of: Dict[int, int] = {}
    hits = bytearray()
    hit = hits.append
    for block, set_index, nxt in zip(blocks, sets, next_use):
        slot = slot_of.get(block)
        if slot is not None:
            resident_next[slot] = nxt
            hit(1)
            continue
        hit(0)
        base = set_index * num_ways
        filled = occupancy[set_index]
        if filled < num_ways:
            slot = base + filled
            occupancy[set_index] = filled + 1
        else:
            slot = base
            farthest = resident_next[base]
            for way in range(1, num_ways):
                value = resident_next[base + way]
                if value > farthest:
                    farthest = value
                    slot = base + way
            del slot_of[resident_block[slot]]
        resident_block[slot] = block
        resident_next[slot] = nxt
        slot_of[block] = slot
    return hits


def _rollout_srrip(blocks, sets, num_sets, num_ways, _next_use) -> bytearray:
    # Flat RRPV column (2-bit counters, the registry default): hit -> 0,
    # fill -> max-1, victim = first way at max in way order, ageing every
    # way and retrying when none is — exactly _RRIPBase.choose_victim over
    # a full set.
    max_rrpv = 3
    insertion = max_rrpv - 1
    total_ways = num_sets * num_ways
    resident_block = [-1] * total_ways
    rrpv = [max_rrpv] * total_ways
    occupancy = [0] * num_sets
    slot_of: Dict[int, int] = {}
    hits = bytearray()
    hit = hits.append
    for block, set_index in zip(blocks, sets):
        slot = slot_of.get(block)
        if slot is not None:
            rrpv[slot] = 0
            hit(1)
            continue
        hit(0)
        base = set_index * num_ways
        filled = occupancy[set_index]
        if filled < num_ways:
            slot = base + filled
            occupancy[set_index] = filled + 1
        else:
            while True:
                slot = -1
                for way in range(num_ways):
                    if rrpv[base + way] >= max_rrpv:
                        slot = base + way
                        break
                if slot >= 0:
                    break
                for way in range(num_ways):
                    aged = rrpv[base + way] + 1
                    rrpv[base + way] = aged if aged < max_rrpv else max_rrpv
            del slot_of[resident_block[slot]]
        resident_block[slot] = block
        rrpv[slot] = insertion
        slot_of[block] = slot
    return hits


_NATIVE_KERNELS = {
    "lru": _rollout_lru,
    "fifo": _rollout_fifo,
    "belady": _rollout_belady,
    "srrip": _rollout_srrip,
}


def run_batch(trace: MemoryTrace,
              specs: Sequence[RolloutSpec]) -> List[SimulationResult]:
    """Convenience wrapper: one batch over ``trace`` for ``specs``."""
    return BatchSimulator(trace).run(list(specs))
