"""Set-associative cache model with pluggable replacement policies.

Two access paths are provided:

* :meth:`Cache.access` — the full-detail path.  It snapshots resident lines
  and per-line eviction scores into an :class:`AccessOutcome` so the trace
  database can store the paper's ``current_cache_lines`` /
  ``cache_line_eviction_scores`` columns.
* :meth:`Cache.access_fast` — the stats-only path used when the caller only
  needs aggregate counters (``detail="stats"``).  It skips outcome objects,
  resident-line and score snapshots and the per-access ``eviction_scores``
  callback (every built-in policy's ``eviction_scores`` is a pure read, so
  skipping it cannot change behaviour), and when the policy is plain LRU
  it bypasses the policy callback machinery entirely, driving recency
  through the per-set tag dict.

Both paths share one tag dictionary per set (block address -> way), so
residency lookups are O(1) instead of a linear way scan, both hand the live
:class:`CacheLine` objects to policies as views, and both produce identical
hit/miss/eviction/bypass statistics for every policy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.policies.base import (
    BYPASS,
    CacheLineView,
    NEVER,
    PolicyAccess,
    ReplacementPolicy,
)
from repro.policies.basic import LRUPolicy
from repro.sim.config import CacheConfig

#: Detail levels accepted by :class:`Cache` and the simulation engine.
DETAIL_FULL = "full"
DETAIL_STATS = "stats"
DETAIL_LEVELS = (DETAIL_FULL, DETAIL_STATS)


@dataclass
class CacheLine:
    """One resident cache line.

    ``way`` is fixed for the line's whole residency, which lets both access
    paths hand live lines directly to policies as views (duck-typed
    :class:`CacheLineView`: same attributes, no per-access copying).
    """

    block_address: int
    pc: int
    inserted_at: int
    last_access: int
    next_use: int = NEVER
    dirty: bool = False
    way: int = -1
    valid: bool = True


@dataclass
class CacheStats:
    """Aggregate and per-set counters for one cache.

    ``per_set_accesses``/``per_set_hits`` are lists indexed by set (one
    preallocated slot per set, see :meth:`for_sets`), so the hot path pays a
    list index instead of two dict lookups per access.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    compulsory_misses: int = 0
    capacity_misses: int = 0
    conflict_misses: int = 0
    per_set_accesses: List[int] = field(default_factory=list)
    per_set_hits: List[int] = field(default_factory=list)

    @classmethod
    def for_sets(cls, num_sets: int) -> "CacheStats":
        """Stats object with per-set counters preallocated for ``num_sets``."""
        return cls(per_set_accesses=[0] * num_sets, per_set_hits=[0] * num_sets)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def set_hit_rates(self) -> Dict[int, float]:
        """Per-set hit rate, only for sets that were accessed."""
        return {
            set_index: self.per_set_hits[set_index] / accesses
            for set_index, accesses in enumerate(self.per_set_accesses)
            if accesses
        }

    def as_tuple(self) -> Tuple:
        """Every counter (aggregate and per-set) as one comparable tuple.

        The canonical form for byte-identity assertions across replay paths
        and store round-trips.
        """
        return (self.accesses, self.hits, self.misses, self.evictions,
                self.bypasses, self.compulsory_misses, self.capacity_misses,
                self.conflict_misses, tuple(self.per_set_accesses),
                tuple(self.per_set_hits))


@dataclass
class AccessOutcome:
    """Result of one cache access."""

    hit: bool
    set_index: int
    way: Optional[int]
    bypassed: bool = False
    miss_type: str = ""
    evicted_block: Optional[int] = None
    evicted_pc: Optional[int] = None
    eviction_scores: List[Tuple[int, float]] = field(default_factory=list)
    resident_lines: List[Tuple[int, int]] = field(default_factory=list)


class Cache:
    """A single set-associative cache level driven by a replacement policy."""

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None,
                 classify_misses: bool = False,
                 detail: str = DETAIL_FULL):
        if detail not in DETAIL_LEVELS:
            raise ValueError(f"detail must be one of {DETAIL_LEVELS}")
        self.config = config
        self.policy = policy if policy is not None else LRUPolicy()
        self.num_sets = config.num_sets
        self.num_ways = config.num_ways
        self.block_bytes = config.block_bytes
        self.classify_misses = classify_misses
        self.detail = detail
        self.policy.initialize(self.num_sets, self.num_ways)
        # Power-of-two geometries (every bundled config) use shift/mask
        # address math; odd geometries fall back to div/mod.
        self._block_shift = (self.block_bytes.bit_length() - 1
                             if self.block_bytes & (self.block_bytes - 1) == 0
                             else None)
        self._set_mask = (self.num_sets - 1
                          if self.num_sets & (self.num_sets - 1) == 0
                          else None)
        # sets[set_index][way] -> CacheLine or None
        self.sets: List[List[Optional[CacheLine]]] = [
            [None] * self.num_ways for _ in range(self.num_sets)
        ]
        # tags[set_index]: block_address -> way.  On the fast-LRU path the
        # dict's insertion order doubles as recency order (hits reinsert).
        self._tags: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        # Stats-only + plain LRU: skip the policy callbacks entirely.  Exact
        # type check — an LRU subclass may override hooks we would bypass.
        self._fast_lru = (detail == DETAIL_STATS
                          and type(self.policy) is LRUPolicy)
        self.stats = CacheStats.for_sets(self.num_sets)
        # For miss classification: blocks ever seen, and a fully-associative
        # LRU "shadow" cache of the same capacity (capacity-vs-conflict).
        self._seen_blocks: set = set()
        self._shadow: "OrderedDict[int, None]" = OrderedDict()

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def block_address(self, byte_address: int) -> int:
        return byte_address // self.block_bytes

    def set_index(self, block_address: int) -> int:
        return block_address % self.num_sets

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def lookup(self, block_address: int) -> Tuple[Optional[int], Optional[CacheLine]]:
        """Return (way, line) if the block is resident, else (None, None)."""
        set_index = self.set_index(block_address)
        way = self._tags[set_index].get(block_address)
        if way is None:
            return None, None
        return way, self.sets[set_index][way]

    def contains(self, byte_address: int) -> bool:
        way, _line = self.lookup(self.block_address(byte_address))
        return way is not None

    def occupancy(self) -> int:
        return sum(len(tags) for tags in self._tags)

    # ------------------------------------------------------------------
    # miss classification
    # ------------------------------------------------------------------
    def _classify_miss(self, block_address: int) -> str:
        if not self.classify_misses:
            return ""
        if block_address not in self._seen_blocks:
            return "Compulsory"
        # A fully-associative cache of the same capacity: if it also misses,
        # the miss is a capacity miss; otherwise it is a conflict miss.
        if block_address in self._shadow:
            return "Conflict"
        return "Capacity"

    def _update_shadow(self, block_address: int) -> None:
        if not self.classify_misses:
            return
        self._seen_blocks.add(block_address)
        if block_address in self._shadow:
            self._shadow.move_to_end(block_address)
        else:
            self._shadow[block_address] = None
            capacity = self.config.num_blocks
            while len(self._shadow) > capacity:
                self._shadow.popitem(last=False)

    # ------------------------------------------------------------------
    # main access path (full detail)
    # ------------------------------------------------------------------
    def access(self, pc: int, byte_address: int, is_write: bool,
               access_index: int, next_use: int = NEVER,
               is_prefetch: bool = False) -> AccessOutcome:
        """Service one access and return its outcome (full detail)."""
        block_address = self.block_address(byte_address)
        set_index = self.set_index(block_address)
        policy_access = PolicyAccess(
            pc=pc,
            block_address=block_address,
            is_write=is_write,
            access_index=access_index,
            next_use=next_use,
            is_prefetch=is_prefetch,
        )
        stats = self.stats
        stats.accesses += 1
        stats.per_set_accesses[set_index] += 1

        # Resident lines double as views (see CacheLine); scores are read
        # before this access touches any line.
        views = [line for line in self.sets[set_index] if line is not None]
        resident_pairs = [(line.block_address, line.pc) for line in views]
        scores = self.policy.eviction_scores(set_index, views, policy_access) if views else []
        score_pairs = [(line.block_address, float(score))
                       for line, score in zip(views, scores)]

        tags = self._tags[set_index]
        way = tags.get(block_address)
        if way is not None:
            # Hit.
            line = self.sets[set_index][way]
            stats.hits += 1
            stats.per_set_hits[set_index] += 1
            line.last_access = access_index
            line.next_use = next_use
            if is_write:
                line.dirty = True
            self.policy.on_hit(set_index, line, policy_access)
            self._update_shadow(block_address)
            return AccessOutcome(
                hit=True, set_index=set_index, way=way,
                eviction_scores=score_pairs, resident_lines=resident_pairs,
            )

        # Miss.
        stats.misses += 1
        miss_type = self._classify_miss(block_address)
        if miss_type == "Compulsory":
            stats.compulsory_misses += 1
        elif miss_type == "Capacity":
            stats.capacity_misses += 1
        elif miss_type == "Conflict":
            stats.conflict_misses += 1
        self._update_shadow(block_address)

        outcome = AccessOutcome(
            hit=False, set_index=set_index, way=None, miss_type=miss_type,
            eviction_scores=score_pairs, resident_lines=resident_pairs,
        )

        # Bypass check (only meaningful once the set has pressure).
        if self.policy.should_bypass(set_index, views, policy_access):
            stats.bypasses += 1
            outcome.bypassed = True
            return outcome

        free_way = self._allocate_way(set_index, views, policy_access, outcome)
        if free_way is None:  # policy chose BYPASS from choose_victim
            return outcome

        new_line = CacheLine(
            block_address=block_address,
            pc=pc,
            inserted_at=access_index,
            last_access=access_index,
            next_use=next_use,
            dirty=is_write,
            way=free_way,
        )
        self.sets[set_index][free_way] = new_line
        tags[block_address] = free_way
        outcome.way = free_way
        self.policy.on_fill(set_index, new_line, policy_access)
        return outcome

    def _allocate_way(self, set_index: int, views: Sequence[CacheLineView],
                      policy_access: PolicyAccess,
                      outcome: AccessOutcome) -> Optional[int]:
        """Find a free way or evict a victim; ``None`` means bypass."""
        stats = self.stats
        cache_set = self.sets[set_index]
        if len(self._tags[set_index]) < self.num_ways:
            for candidate_way, candidate in enumerate(cache_set):
                if candidate is None:
                    return candidate_way
        victim_way = self.policy.choose_victim(set_index, views, policy_access)
        if victim_way == BYPASS:
            stats.bypasses += 1
            outcome.bypassed = True
            return None
        victim_line = cache_set[victim_way]
        if victim_line is None:  # defensive: policy pointed at a hole
            return victim_way
        self.policy.on_evict(set_index, victim_line, policy_access)
        stats.evictions += 1
        outcome.evicted_block = victim_line.block_address
        outcome.evicted_pc = victim_line.pc
        self._tags[set_index].pop(victim_line.block_address, None)
        return victim_way

    # ------------------------------------------------------------------
    # stats-only access path
    # ------------------------------------------------------------------
    def access_fast(self, pc: int, byte_address: int, is_write: bool,
                    access_index: int, next_use: int = NEVER,
                    is_prefetch: bool = False) -> bool:
        """Service one access; return only whether it hit.

        Behaviourally identical to :meth:`access` (same hit/miss/eviction/
        bypass decisions and statistics) but skips every per-access
        allocation the full path makes for the trace database: no
        :class:`AccessOutcome`, no resident-line snapshot, no eviction-score
        callback, and — for plain LRU — no policy callbacks at all.
        """
        block_shift = self._block_shift
        if block_shift is not None:
            block_address = byte_address >> block_shift
        else:
            block_address = byte_address // self.block_bytes
        set_mask = self._set_mask
        if set_mask is not None:
            set_index = block_address & set_mask
        else:
            set_index = block_address % self.num_sets

        stats = self.stats
        stats.accesses += 1
        stats.per_set_accesses[set_index] += 1
        tags = self._tags[set_index]
        cache_set = self.sets[set_index]
        fast_lru = self._fast_lru

        way = tags.get(block_address)
        if way is not None:
            # Hit.
            line = cache_set[way]
            stats.hits += 1
            stats.per_set_hits[set_index] += 1
            line.last_access = access_index
            line.next_use = next_use
            if is_write:
                line.dirty = True
            if fast_lru:
                # Reinsert to make this block the most recent in tag order.
                del tags[block_address]
                tags[block_address] = way
            else:
                # The live line doubles as the view (same attributes).
                self.policy.on_hit(set_index, line, PolicyAccess(
                    pc=pc, block_address=block_address, is_write=is_write,
                    access_index=access_index, next_use=next_use,
                    is_prefetch=is_prefetch))
            if self.classify_misses:
                self._update_shadow(block_address)
            return True

        # Miss.
        stats.misses += 1
        if self.classify_misses:
            miss_type = self._classify_miss(block_address)
            if miss_type == "Compulsory":
                stats.compulsory_misses += 1
            elif miss_type == "Capacity":
                stats.capacity_misses += 1
            elif miss_type == "Conflict":
                stats.conflict_misses += 1
            self._update_shadow(block_address)

        if fast_lru:
            free_way = None
            if len(tags) < self.num_ways:
                for candidate_way, candidate in enumerate(cache_set):
                    if candidate is None:
                        free_way = candidate_way
                        break
            if free_way is None:
                # Oldest tag-dict entry == least recently touched block,
                # exactly the line generic LRU picks by min(last_access).
                victim_block = next(iter(tags))
                free_way = tags.pop(victim_block)
                stats.evictions += 1
            cache_set[free_way] = CacheLine(
                block_address=block_address, pc=pc, inserted_at=access_index,
                last_access=access_index, next_use=next_use, dirty=is_write,
                way=free_way)
            tags[block_address] = free_way
            return False

        policy_access = PolicyAccess(
            pc=pc, block_address=block_address, is_write=is_write,
            access_index=access_index, next_use=next_use,
            is_prefetch=is_prefetch)
        # Resident lines double as views: every attribute a CacheLineView
        # carries is on the line (``way`` is pinned at fill), and policies
        # treat views as read-only, so no per-miss snapshot list is built.
        views = [line for line in cache_set if line is not None]
        if self.policy.should_bypass(set_index, views, policy_access):
            stats.bypasses += 1
            return False

        free_way = None
        if len(tags) < self.num_ways:
            for candidate_way, candidate in enumerate(cache_set):
                if candidate is None:
                    free_way = candidate_way
                    break
        if free_way is None:
            victim_way = self.policy.choose_victim(set_index, views,
                                                   policy_access)
            if victim_way == BYPASS:
                stats.bypasses += 1
                return False
            victim_line = cache_set[victim_way]
            if victim_line is None:  # defensive: policy pointed at a hole
                free_way = victim_way
            else:
                self.policy.on_evict(set_index, victim_line, policy_access)
                stats.evictions += 1
                tags.pop(victim_line.block_address, None)
                free_way = victim_way

        new_line = CacheLine(
            block_address=block_address, pc=pc, inserted_at=access_index,
            last_access=access_index, next_use=next_use, dirty=is_write,
            way=free_way)
        cache_set[free_way] = new_line
        tags[block_address] = free_way
        self.policy.on_fill(set_index, new_line, policy_access)
        return False

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate every line and reset policy state (keeps statistics)."""
        self.sets = [[None] * self.num_ways for _ in range(self.num_sets)]
        self._tags = [{} for _ in range(self.num_sets)]
        self.policy.reset()

    def reset_stats(self) -> None:
        self.stats = CacheStats.for_sets(self.num_sets)

    def set_hit_rates(self) -> Dict[int, float]:
        """Per-set hit rate (only sets that were accessed)."""
        return self.stats.set_hit_rates()
