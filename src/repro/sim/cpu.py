"""Analytic CPU timing model.

The actionable-insight use cases in the paper report IPC/speedup numbers from
ChampSim.  A full out-of-order core model is out of scope, so this module
provides a deliberately simple but well-defined analytic model:

* every retired instruction costs ``1 / retire_width`` cycles of base work;
* a demand load that is serviced by level ``L`` adds a stall of
  ``latency(L) * (1 - overlap_factor)`` cycles — the overlap factor stands in
  for memory-level parallelism and out-of-order latency tolerance;
* store and software-prefetch accesses never stall the pipeline (they retire
  through the store queue / are purely speculative warm-ups);
* L1 hits are assumed fully pipelined (no stall).

This is enough for the reproduction's purposes: IPC improves when the miss
profile improves, and the *relative* changes (bypass, prefetching, Mockingjay
training) follow the same direction as the paper's ChampSim experiments.

A replay describes itself to the model as a *service-level column*: one
level code per trace access (:func:`service_levels`).  The one function
:func:`timing_from_levels` turns that column into a :class:`TimingResult`,
for every replay path and detail level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.sim.config import HierarchyConfig
from repro.workloads.trace import FLAG_PREFETCH, FLAG_WRITE

#: Service levels an access can be satisfied from.
LEVEL_L1 = "l1"
LEVEL_L2 = "l2"
LEVEL_LLC = "llc"
LEVEL_DRAM = "dram"

#: Level codes of a service-level column are indices into this tuple.
LEVELS = (LEVEL_L1, LEVEL_L2, LEVEL_LLC, LEVEL_DRAM)
CODE_LLC = LEVELS.index(LEVEL_LLC)
CODE_DRAM = LEVELS.index(LEVEL_DRAM)
#: ``bytes.translate`` table mapping an LLC hit flag (0/1) to its level code.
_LLC_HIT_LEVELS = bytes([CODE_DRAM, CODE_LLC]) + bytes(254)
#: Integers below this convert to float64 exactly.
_EXACT_FLOAT_INTS = 2 ** 53


@dataclass
class TimingResult:
    """Cycle/instruction accounting for one simulation."""

    instructions: int = 0
    base_cycles: float = 0.0
    stall_cycles: float = 0.0
    stalls_by_level: Dict[str, float] = field(default_factory=dict)
    accesses_by_level: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.base_cycles + self.stall_cycles

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    def speedup_over(self, baseline: "TimingResult") -> float:
        """Relative IPC improvement over a baseline run (1.0 = no change)."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc


def _stall_per_level(config: HierarchyConfig) -> tuple:
    """Stall of one demand access per level code (load-to-use latency times
    the exposed fraction); L1 hits are fully pipelined."""
    exposed = 1.0 - config.core.overlap_factor
    to_l2 = config.l1d.latency_cycles + config.l2.latency_cycles
    to_llc = to_l2 + config.llc.latency_cycles
    to_dram = to_llc + config.dram.access_latency_cycles
    return (0.0, float(to_l2) * exposed, float(to_llc) * exposed,
            float(to_dram) * exposed)


def service_levels(num_accesses: int, upper_levels: Dict[int, str],
                   llc_indices: Iterable[int],
                   llc_hits: bytearray) -> bytearray:
    """The service-level column of one replay.

    ``upper_levels`` maps the trace indices an upper cache served to its
    level; ``llc_indices`` are the trace indices of the LLC stream, whose
    accesses the LLC serves on a hit and DRAM otherwise.  An index in
    neither is charged to DRAM.
    """
    if len(llc_hits) == num_accesses:
        # The LLC stream is the whole trace (it is always in trace order).
        return llc_hits.translate(_LLC_HIT_LEVELS)
    levels = bytearray([CODE_DRAM]) * num_accesses
    for index, level in upper_levels.items():
        levels[index] = LEVELS.index(level)
    for index, hit in zip(llc_indices, llc_hits):
        levels[index] = CODE_LLC if hit else CODE_DRAM
    return levels


def _fold(values: np.ndarray) -> float:
    """Left-to-right float sum: ``np.add.accumulate`` adds sequentially
    (unlike ``np.sum``'s pairwise summation), exactly like ``total += v``
    in trace order."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def timing_from_levels(config: HierarchyConfig, flags: Sequence[int],
                       instr: Sequence[int],
                       levels: bytearray) -> TimingResult:
    """The analytic timing of one replay from its service-level column.

    Every non-prefetch access retires its gap plus one instructions, and
    every demand access (neither write nor prefetch) served below L1 adds
    its level's stall.  Each float total is a repeated addition in trace
    order, so equal level columns give bit-identical floats.  Per-level
    dicts list the levels in :data:`LEVELS` order.
    """
    flag_col = np.frombuffer(bytes(flags), dtype=np.uint8)
    level_col = np.frombuffer(levels, dtype=np.uint8)
    gaps = np.asarray(instr, dtype=np.uint64)[(flag_col & FLAG_PREFETCH) == 0]
    retire_width = config.core.retire_width
    instructions = sum(gaps.tolist()) + len(gaps)  # Python ints: no overflow
    if len(gaps) and int(gaps.max()) >= _EXACT_FLOAT_INTS:
        # Gaps from u64 trace files can pass float64's exact integers:
        # divide them as Python ints, correctly rounded.
        base_terms = np.array([(gap + 1) / retire_width
                               for gap in gaps.tolist()])
    else:
        base_terms = (gaps + 1) / retire_width
    demand_levels = level_col[
        ((flag_col & (FLAG_PREFETCH | FLAG_WRITE)) == 0) & (level_col > 0)]
    stall_of = _stall_per_level(config)
    result = TimingResult(
        instructions=instructions,
        base_cycles=_fold(base_terms),
        stall_cycles=_fold(np.array(stall_of)[demand_levels]),
    )
    accesses = np.bincount(level_col, minlength=len(LEVELS))
    stalls = np.bincount(demand_levels, minlength=len(LEVELS))
    for code, level in enumerate(LEVELS):
        if accesses[code]:
            result.accesses_by_level[level] = int(accesses[code])
        if stalls[code]:
            result.stalls_by_level[level] = _fold(
                np.full(int(stalls[code]), stall_of[code]))
    return result
