"""Stats-only replay equivalence with the full-detail path.

The fast path may skip snapshots and bookkeeping, but it must make exactly
the same caching decisions: identical hit/miss/eviction/bypass counts, miss
taxonomy, per-set rates and timing for every registered policy on every
bundled workload.
"""

import dataclasses
import random

import pytest

from repro.policies.base import available_policies
from repro.sim.cache import Cache, CacheStats
from repro.sim.config import SMALL_CONFIG, TINY_CONFIG
from repro.sim.cpu import LEVELS, timing_from_levels
from repro.sim.engine import SimulationEngine
from repro.tracedb.schema import records_to_table
from repro.workloads.generator import available_workloads, generate_trace
from repro.workloads.trace import FLAG_PREFETCH, FLAG_WRITE

NUM_ACCESSES = 300

_TRACES = {}


def _trace(workload):
    if workload not in _TRACES:
        _TRACES[workload] = generate_trace(workload, NUM_ACCESSES, seed=0)
    return _TRACES[workload]


def _counters(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions,
            stats.bypasses, stats.compulsory_misses, stats.capacity_misses,
            stats.conflict_misses)


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", available_workloads())
def test_stats_replay_matches_full_replay(workload, policy):
    trace = _trace(workload)
    full = SimulationEngine(config=TINY_CONFIG).run(trace, policy)
    stats = SimulationEngine(config=TINY_CONFIG, detail="stats").run(trace, policy)
    assert _counters(full.llc_stats) == _counters(stats.llc_stats)
    assert full.set_hit_rates == stats.set_hit_rates
    assert full.timing.instructions == stats.timing.instructions
    assert full.timing.cycles == stats.timing.cycles
    assert full.timing.ipc == stats.timing.ipc
    assert full.timing.accesses_by_level == stats.timing.accesses_by_level
    assert full.timing.stalls_by_level == stats.timing.stalls_by_level


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", available_workloads())
def test_columnar_table_identical_to_row_materialised_table(workload, policy):
    """The columnar spine's table path is byte-identical to the object path.

    ``AccessLog.to_table`` (columns built directly from the engine's arrays)
    must produce exactly the table the legacy path gets by materialising
    ``AccessRecord`` rows and transposing them.
    """
    result = SimulationEngine(config=TINY_CONFIG).run(_trace(workload), policy)
    columnar = result.log.to_table()
    row_based = records_to_table(result.log.to_records())
    assert columnar.columns == row_based.columns
    assert columnar.to_dict() == row_based.to_dict()


@pytest.mark.parametrize("policy", ["lru", "ship", "belady"])
def test_stats_replay_matches_full_replay_hierarchy_mode(policy):
    trace = _trace("lbm")
    full = SimulationEngine(config=TINY_CONFIG, mode="hierarchy").run(trace, policy)
    stats = SimulationEngine(config=TINY_CONFIG, mode="hierarchy",
                             detail="stats").run(trace, policy)
    assert _counters(full.llc_stats) == _counters(stats.llc_stats)
    assert full.timing.cycles == stats.timing.cycles
    assert full.timing.ipc == stats.timing.ipc


def test_stats_detail_skips_records():
    result = SimulationEngine(config=TINY_CONFIG, detail="stats").run(
        _trace("astar"), "lru")
    assert result.detail == "stats"
    assert result.records == []
    # Full-detail replay still produces one record per access.
    full = SimulationEngine(config=TINY_CONFIG).run(_trace("astar"), "lru")
    assert full.detail == "full"
    assert len(full.records) == NUM_ACCESSES


def test_invalid_detail_rejected():
    with pytest.raises(ValueError):
        SimulationEngine(config=TINY_CONFIG, detail="verbose")


def test_set_hit_rates_is_lazy_and_cached():
    result = SimulationEngine(config=TINY_CONFIG, detail="stats").run(
        _trace("astar"), "lru")
    assert "set_hit_rates" not in result.__dict__  # not derived yet
    rates = result.set_hit_rates
    assert rates and all(0.0 <= rate <= 1.0 for rate in rates.values())
    assert result.__dict__["set_hit_rates"] is rates  # cached after first read


def test_per_set_counters_are_preallocated_lists():
    stats = CacheStats.for_sets(4)
    assert stats.per_set_accesses == [0, 0, 0, 0]
    assert stats.per_set_hits == [0, 0, 0, 0]
    assert stats.set_hit_rates() == {}  # nothing accessed yet
    stats.per_set_accesses[1] = 4
    stats.per_set_hits[1] = 3
    assert stats.set_hit_rates() == {1: 0.75}


def test_cache_lookup_uses_tag_maps_consistently():
    cache = Cache(TINY_CONFIG.llc)
    cache.access(pc=0x400000, byte_address=0x1000, is_write=False, access_index=0)
    assert cache.contains(0x1000)
    way, line = cache.lookup(cache.block_address(0x1000))
    assert way is not None and line.block_address == cache.block_address(0x1000)
    assert cache.occupancy() == 1
    cache.flush()
    assert not cache.contains(0x1000)
    assert cache.occupancy() == 0


def _timing_loop(config, flags, instr, levels):
    """Reference: the access-by-access accumulation of the timing model."""
    exposed = 1.0 - config.core.overlap_factor
    latency = {"l1": config.l1d.latency_cycles}
    latency["l2"] = latency["l1"] + config.l2.latency_cycles
    latency["llc"] = latency["l2"] + config.llc.latency_cycles
    latency["dram"] = latency["llc"] + config.dram.access_latency_cycles
    instructions, base, stall_total = 0, 0.0, 0.0
    by_level, stalls = {}, {}
    for flag, gap, code in zip(flags, instr, levels):
        level = LEVELS[code]
        by_level[level] = by_level.get(level, 0) + 1
        if flag & FLAG_PREFETCH:
            continue
        instructions += gap + 1
        base += (gap + 1) / config.core.retire_width
        if flag & FLAG_WRITE or level == "l1":
            continue
        stall = float(latency[level]) * exposed
        stall_total += stall
        stalls[level] = stalls.get(level, 0.0) + stall
    return (instructions, base, stall_total, sorted(by_level.items()),
            sorted(stalls.items()))


@pytest.mark.parametrize("huge_gap", [False, True])
@pytest.mark.parametrize("overlap", [0.35, 0.0, 1.0])
def test_timing_from_levels_matches_sequential_loop(overlap, huge_gap):
    """The column fold equals the loop bit for bit: random levels and
    flags, a retire width that does not divide evenly, zero-stall (fully
    overlapped) levels and, optionally, a u64 gap beyond float64's exact
    integers."""
    rng = random.Random(7)
    count = 3000
    flags = [rng.choice([0, 0, 0, FLAG_WRITE, FLAG_PREFETCH,
                         FLAG_WRITE | FLAG_PREFETCH]) for _ in range(count)]
    instr = [rng.randrange(0, 40) for _ in range(count)]
    if huge_gap:
        instr[5] = 2 ** 64 - 1
        flags[5] = 0
    levels = bytearray(rng.randrange(len(LEVELS)) for _ in range(count))
    for config in (TINY_CONFIG, SMALL_CONFIG):
        config = dataclasses.replace(
            config, core=dataclasses.replace(config.core, retire_width=3,
                                             overlap_factor=overlap))
        timing = timing_from_levels(config, flags, instr, levels)
        assert (timing.instructions, timing.base_cycles, timing.stall_cycles,
                sorted(timing.accesses_by_level.items()),
                sorted(timing.stalls_by_level.items())) \
            == _timing_loop(config, flags, instr, levels)
