"""Per-access record schema for the external trace database.

Section 4.3 of the paper documents one row per LLC access with the columns
listed in :data:`ACCESS_COLUMNS`.  :class:`AccessLog` is the columnar
in-memory representation the simulation engine appends into (typed arrays
plus ragged object columns).  The whole-trace summary
(:meth:`AccessLog.workload_statistics`) is computed straight from those int
columns, so building a database entry formats nothing;
:meth:`AccessLog.to_table` builds the canonical
:class:`~repro.tracedb.table.Table` column-by-column only when a retriever
first reads an entry's rows.  :class:`AccessRecord` remains the per-access
*row view* — ``AccessLog.to_records`` materialises it on demand, and
``records_to_table`` still converts row lists for hand-built inputs; both
paths produce byte-identical tables.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.tracedb.table import Table

#: Column order of the per-access data frame (paper section 4.3).
ACCESS_COLUMNS: Tuple[str, ...] = (
    "access_index",
    "program_counter",
    "memory_address",
    "cache_set_id",
    "evict",
    "miss_type",
    "evicted_address",
    "accessed_address_recency",
    "accessed_address_reuse_distance",
    "evicted_address_reuse_distance",
    "function_name",
    "function_code",
    "assembly_code",
    "current_cache_lines",
    "recent_access_history",
    "cache_line_eviction_scores",
    "current_cache_line_addresses",
    "evicted_address_reuse_distance_numeric",
    "accessed_address_reuse_distance_numeric",
    "accessed_address_recency_numeric",
    "is_miss",
)

#: Value stored in ``evict`` for a hit / miss (the paper reuses the column
#: name ``evict`` for the access outcome).
HIT_LABEL = "Cache Hit"
MISS_LABEL = "Cache Miss"

#: Miss taxonomy labels.
MISS_TYPE_NONE = ""
MISS_TYPE_COMPULSORY = "Compulsory"
MISS_TYPE_CAPACITY = "Capacity"
MISS_TYPE_CONFLICT = "Conflict"

#: Sentinel reuse distance for "never reused again".
NEVER_REUSED = -1

#: Miss-type labels indexed by the byte code stored in ``AccessLog``.
MISS_TYPE_LABELS = (MISS_TYPE_NONE, MISS_TYPE_COMPULSORY, MISS_TYPE_CAPACITY,
                    MISS_TYPE_CONFLICT)
#: Inverse mapping (label -> byte code) used by producers.
MISS_TYPE_CODES = {label: code for code, label in enumerate(MISS_TYPE_LABELS)}


def format_pc(pc: int) -> str:
    """Render a program counter the way the paper does (``0x401e31``)."""
    return f"0x{pc:x}"


def format_address(address: int) -> str:
    """Render a memory (block) address the way the paper does."""
    return f"0x{address:x}"


def describe_recency(recency: Optional[int]) -> str:
    """Map a numeric recency (intervening accesses) onto the textual
    descriptor stored in ``accessed_address_recency``."""
    if recency is None or recency < 0:
        return "never seen before"
    if recency <= 8:
        return "very recently accessed"
    if recency <= 64:
        return "recently accessed"
    if recency <= 512:
        return "moderately recent"
    return "not recently accessed"


def describe_reuse_distance(distance: Optional[int]) -> str:
    """Map a numeric forward reuse distance onto a textual descriptor."""
    if distance is None or distance < 0:
        return "never reused"
    if distance <= 16:
        return f"reused almost immediately (in {distance} accesses)"
    if distance <= 256:
        return f"reused soon (in {distance} accesses)"
    if distance <= 4096:
        return f"reused after a while (in {distance} accesses)"
    return f"reused far in the future (in {distance} accesses)"


class _Rendered(dict):
    """``{int: text}`` memo that renders each distinct value once.

    One instance lives for one :meth:`AccessLog.to_table` call, so a value
    repeated across rows and snapshot columns is formatted a single time.
    """

    def __init__(self, render: Callable[[int], str]):
        super().__init__()
        self.render = render

    def __missing__(self, value: int) -> str:
        text = self[value] = self.render(value)
        return text

    def column(self, values: Sequence[int]) -> List[str]:
        return list(map(self.__getitem__, values))


@dataclass
class WorkloadStatistics:
    """Whole-trace summary used to build the metadata string."""

    total_accesses: int
    total_misses: int
    total_evictions: int
    compulsory_misses: int
    capacity_misses: int
    conflict_misses: int
    wrong_evictions: int
    recency_miss_correlation: Optional[float]
    unique_pcs: int
    unique_addresses: int

    @property
    def miss_rate(self) -> float:
        return self.total_misses / self.total_accesses if self.total_accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    @property
    def wrong_eviction_fraction(self) -> float:
        if not self.total_evictions:
            return 0.0
        return self.wrong_evictions / self.total_evictions


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Pearson correlation; None when undefined (fewer than 2 points or a
    zero-variance series)."""
    if len(xs) < 2 or len(xs) != len(ys):
        return None
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return None
    return cov / math.sqrt(var_x * var_y)


@dataclass
class AccessRecord:
    """One LLC access with its eviction / reuse / source-context annotations."""

    access_index: int
    program_counter: int
    memory_address: int
    cache_set_id: int
    is_hit: bool
    miss_type: str = MISS_TYPE_NONE
    evicted_address: Optional[int] = None
    accessed_reuse_distance: Optional[int] = None
    evicted_reuse_distance: Optional[int] = None
    accessed_recency: Optional[int] = None
    function_name: str = ""
    function_code: str = ""
    assembly_code: str = ""
    current_cache_lines: List[Tuple[str, str]] = field(default_factory=list)
    recent_access_history: List[Tuple[str, str]] = field(default_factory=list)
    cache_line_eviction_scores: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def is_miss(self) -> bool:
        return not self.is_hit

    @property
    def outcome_label(self) -> str:
        return HIT_LABEL if self.is_hit else MISS_LABEL

    def to_row(self) -> Dict[str, Any]:
        """Convert this record to a row matching :data:`ACCESS_COLUMNS`."""
        accessed_rd = (
            self.accessed_reuse_distance
            if self.accessed_reuse_distance is not None
            else NEVER_REUSED
        )
        evicted_rd = (
            self.evicted_reuse_distance
            if self.evicted_reuse_distance is not None
            else NEVER_REUSED
        )
        recency = (
            self.accessed_recency if self.accessed_recency is not None else NEVER_REUSED
        )
        current_lines = [
            (format_address(addr) if isinstance(addr, int) else str(addr),
             format_pc(pc) if isinstance(pc, int) else str(pc))
            for addr, pc in self.current_cache_lines
        ]
        history = [
            (format_address(addr) if isinstance(addr, int) else str(addr),
             format_pc(pc) if isinstance(pc, int) else str(pc))
            for addr, pc in self.recent_access_history
        ]
        return {
            "access_index": self.access_index,
            "program_counter": format_pc(self.program_counter),
            "memory_address": format_address(self.memory_address),
            "cache_set_id": self.cache_set_id,
            "evict": self.outcome_label,
            "miss_type": self.miss_type,
            "evicted_address": (
                format_address(self.evicted_address)
                if self.evicted_address is not None
                else ""
            ),
            "accessed_address_recency": describe_recency(self.accessed_recency),
            "accessed_address_reuse_distance": describe_reuse_distance(
                self.accessed_reuse_distance
            ),
            "evicted_address_reuse_distance": describe_reuse_distance(
                self.evicted_reuse_distance
            ),
            "function_name": self.function_name,
            "function_code": self.function_code,
            "assembly_code": self.assembly_code,
            "current_cache_lines": current_lines,
            "recent_access_history": history,
            "cache_line_eviction_scores": list(self.cache_line_eviction_scores),
            "current_cache_line_addresses": [addr for addr, _pc in current_lines],
            "evicted_address_reuse_distance_numeric": evicted_rd,
            "accessed_address_reuse_distance_numeric": accessed_rd,
            "accessed_address_recency_numeric": recency,
            "is_miss": 0 if self.is_hit else 1,
        }


class AccessLog:
    """Columnar accumulator of per-access annotations (the engine's output).

    Scalar columns live in typed arrays (``-1`` encodes "absent" for the
    optional reuse/recency/eviction values, matching :data:`NEVER_REUSED`).
    The ragged snapshot columns — resident lines, recent history, eviction
    scores — are packed into *flat* typed arrays plus prefix-offset arrays
    (row ``i`` owns the flat span ``offsets[i]:offsets[i+1]``), so the whole
    log pickles/unpickles at buffer speed: no per-tuple object cost, which
    is what makes the persistent store's warm starts fast.  Per-PC source
    context stays as string lists (pickle deduplicates the shared per-PC
    string objects).  ``workload_statistics`` summarises the log without
    formatting a value; ``to_table`` builds the canonical data frame
    directly from these columns — no intermediate row dictionaries — and is
    byte-identical to ``records_to_table(log.to_records())``.
    """

    __slots__ = ("access_indices", "pcs", "block_addresses", "set_ids",
                 "hit_flags", "miss_type_codes", "evicted_blocks",
                 "accessed_reuse", "evicted_reuse", "recencies",
                 "function_names", "function_codes", "assembly_codes",
                 "line_pairs", "line_offsets", "history_pairs",
                 "history_offsets", "score_blocks", "score_values",
                 "score_offsets")

    def __init__(self) -> None:
        self.access_indices = array("Q")
        self.pcs = array("Q")
        self.block_addresses = array("Q")
        self.set_ids = array("Q")
        self.hit_flags = array("B")
        self.miss_type_codes = array("B")
        self.evicted_blocks = array("q")      # -1 = no eviction
        self.accessed_reuse = array("q")      # NEVER_REUSED = never reused
        self.evicted_reuse = array("q")
        self.recencies = array("q")           # NEVER_REUSED = never seen
        self.function_names: List[str] = []
        self.function_codes: List[str] = []
        self.assembly_codes: List[str] = []
        # Ragged columns: interleaved (block, pc) pairs / parallel
        # (block, score) flats, with per-row prefix offsets into them.
        self.line_pairs = array("Q")
        self.line_offsets = array("Q", [0])
        self.history_pairs = array("Q")
        self.history_offsets = array("Q", [0])
        self.score_blocks = array("Q")
        self.score_values = array("d")
        self.score_offsets = array("Q", [0])

    def __len__(self) -> int:
        return len(self.access_indices)

    # Pickle support: __slots__ classes have no __dict__, and the arrays
    # themselves serialise as raw buffers.
    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def append(self, access_index: int, pc: int, block_address: int,
               set_id: int, is_hit: bool, miss_type_code: int,
               evicted_block: int, accessed_reuse: int, evicted_reuse: int,
               recency: int, function_name: str, function_code: str,
               assembly_code: str, resident: List[Tuple[int, int]],
               history: List[Tuple[int, int]],
               scores: List[Tuple[int, float]]) -> None:
        """Append one access (optional ints already encoded as ``-1``).

        The snapshot pairs are copied into the flat arrays, so callers may
        pass lists they keep mutating.
        """
        self.access_indices.append(access_index)
        self.pcs.append(pc)
        self.block_addresses.append(block_address)
        self.set_ids.append(set_id)
        self.hit_flags.append(1 if is_hit else 0)
        self.miss_type_codes.append(miss_type_code)
        self.evicted_blocks.append(evicted_block)
        self.accessed_reuse.append(accessed_reuse)
        self.evicted_reuse.append(evicted_reuse)
        self.recencies.append(recency)
        self.function_names.append(function_name)
        self.function_codes.append(function_code)
        self.assembly_codes.append(assembly_code)
        self.line_pairs.extend(chain.from_iterable(resident))
        self.line_offsets.append(len(self.line_pairs))
        self.history_pairs.extend(chain.from_iterable(history))
        self.history_offsets.append(len(self.history_pairs))
        if scores:
            blocks, values = zip(*scores)
            self.score_blocks.extend(blocks)
            self.score_values.extend(values)
        self.score_offsets.append(len(self.score_blocks))

    # ------------------------------------------------------------------
    # ragged-row decoding
    # ------------------------------------------------------------------
    def row_lines(self, i: int) -> List[Tuple[int, int]]:
        """Resident ``(block, pc)`` pairs of row ``i``."""
        flat = self.line_pairs
        start, stop = self.line_offsets[i], self.line_offsets[i + 1]
        return [(flat[j], flat[j + 1]) for j in range(start, stop, 2)]

    def row_history(self, i: int) -> List[Tuple[int, int]]:
        """Recent-access ``(block, pc)`` pairs of row ``i``."""
        flat = self.history_pairs
        start, stop = self.history_offsets[i], self.history_offsets[i + 1]
        return [(flat[j], flat[j + 1]) for j in range(start, stop, 2)]

    def row_scores(self, i: int) -> List[Tuple[int, float]]:
        """Eviction-score ``(block, score)`` pairs of row ``i``."""
        start, stop = self.score_offsets[i], self.score_offsets[i + 1]
        blocks = self.score_blocks
        values = self.score_values
        return [(blocks[j], values[j]) for j in range(start, stop)]

    # ------------------------------------------------------------------
    def workload_statistics(self) -> WorkloadStatistics:
        """Whole-trace summary computed straight from the int columns.

        Equal to the summary the built table's columns give: an eviction is
        a row with a victim, "wrong" when the victim is reused before the
        accessed block, and the recency/miss correlation runs over the rows
        whose block was seen before, in row order.
        """
        evictions = wrong = 0
        for evicted, evicted_rd, accessed_rd in zip(
                self.evicted_blocks, self.evicted_reuse, self.accessed_reuse):
            if evicted < 0:
                continue
            evictions += 1
            if evicted_rd != NEVER_REUSED and (accessed_rd == NEVER_REUSED
                                               or evicted_rd < accessed_rd):
                wrong += 1
        recency_values: List[float] = []
        miss_values: List[float] = []
        for recency, hit in zip(self.recencies, self.hit_flags):
            if recency != NEVER_REUSED:
                recency_values.append(float(recency))
                miss_values.append(0.0 if hit else 1.0)
        codes = self.miss_type_codes
        return WorkloadStatistics(
            total_accesses=len(self),
            total_misses=len(self) - sum(self.hit_flags),
            total_evictions=evictions,
            compulsory_misses=codes.count(MISS_TYPE_CODES[MISS_TYPE_COMPULSORY]),
            capacity_misses=codes.count(MISS_TYPE_CODES[MISS_TYPE_CAPACITY]),
            conflict_misses=codes.count(MISS_TYPE_CODES[MISS_TYPE_CONFLICT]),
            wrong_evictions=wrong,
            recency_miss_correlation=_pearson(recency_values, miss_values),
            unique_pcs=len(set(self.pcs)),
            unique_addresses=len(set(self.block_addresses)),
        )

    def to_table(self) -> Table:
        """Build the canonical data frame column-by-column (no row dicts).

        Every formatted value matches :meth:`AccessRecord.to_row` exactly,
        so tables from this path are byte-identical to the row-materialised
        ``records_to_table`` output.  Each distinct address, PC and
        recency/reuse value is rendered once, and the ragged snapshot
        columns are sliced from the rendered flats.
        """
        addresses = _Rendered(format_address)
        pcs = _Rendered(format_pc)
        reuse = _Rendered(describe_reuse_distance)

        def ragged(flat: array, offsets: array) -> List[List[Tuple[str, str]]]:
            pairs = list(zip(addresses.column(flat[0::2]),
                             pcs.column(flat[1::2])))
            halves = [offset // 2 for offset in offsets]
            return [pairs[start:stop]
                    for start, stop in zip(halves, halves[1:])]

        lines = ragged(self.line_pairs, self.line_offsets)
        scores = list(zip(self.score_blocks, self.score_values))
        score_offsets = self.score_offsets
        columns: Dict[str, List[Any]] = {
            "access_index": list(self.access_indices),
            "program_counter": pcs.column(self.pcs),
            "memory_address": addresses.column(self.block_addresses),
            "cache_set_id": list(self.set_ids),
            "evict": [HIT_LABEL if hit else MISS_LABEL
                      for hit in self.hit_flags],
            "miss_type": [MISS_TYPE_LABELS[code]
                          for code in self.miss_type_codes],
            "evicted_address": [addresses[block] if block >= 0 else ""
                                for block in self.evicted_blocks],
            # describe_recency / describe_reuse_distance already treat a
            # negative value exactly like None, so the -1 encoding feeds them
            # directly.
            "accessed_address_recency":
                _Rendered(describe_recency).column(self.recencies),
            "accessed_address_reuse_distance": reuse.column(self.accessed_reuse),
            "evicted_address_reuse_distance": reuse.column(self.evicted_reuse),
            "function_name": list(self.function_names),
            "function_code": list(self.function_codes),
            "assembly_code": list(self.assembly_codes),
            "current_cache_lines": lines,
            "recent_access_history": ragged(self.history_pairs,
                                            self.history_offsets),
            "cache_line_eviction_scores": [
                scores[start:stop]
                for start, stop in zip(score_offsets, score_offsets[1:])],
            "current_cache_line_addresses": [
                [addr for addr, _pc in row] for row in lines],
            "evicted_address_reuse_distance_numeric": list(self.evicted_reuse),
            "accessed_address_reuse_distance_numeric": list(self.accessed_reuse),
            "accessed_address_recency_numeric": list(self.recencies),
            "is_miss": [0 if hit else 1 for hit in self.hit_flags],
        }
        return Table.from_columns({name: columns[name]
                                   for name in ACCESS_COLUMNS})

    def to_records(self) -> List[AccessRecord]:
        """Materialise the row view (compatibility / inspection path)."""
        records = []
        for i in range(len(self)):
            evicted = self.evicted_blocks[i]
            accessed_rd = self.accessed_reuse[i]
            evicted_rd = self.evicted_reuse[i]
            recency = self.recencies[i]
            records.append(AccessRecord(
                access_index=self.access_indices[i],
                program_counter=self.pcs[i],
                memory_address=self.block_addresses[i],
                cache_set_id=self.set_ids[i],
                is_hit=bool(self.hit_flags[i]),
                miss_type=MISS_TYPE_LABELS[self.miss_type_codes[i]],
                evicted_address=None if evicted < 0 else evicted,
                accessed_reuse_distance=(None if accessed_rd == NEVER_REUSED
                                         else accessed_rd),
                evicted_reuse_distance=(None if evicted_rd == NEVER_REUSED
                                        else evicted_rd),
                accessed_recency=None if recency == NEVER_REUSED else recency,
                function_name=self.function_names[i],
                function_code=self.function_codes[i],
                assembly_code=self.assembly_codes[i],
                current_cache_lines=self.row_lines(i),
                recent_access_history=self.row_history(i),
                cache_line_eviction_scores=self.row_scores(i),
            ))
        return records


def records_to_table(records: Sequence[AccessRecord]) -> Table:
    """Materialise access records into the canonical data-frame layout."""
    return Table.from_rows([record.to_row() for record in records],
                           columns=ACCESS_COLUMNS)


def table_to_records(table: Table) -> List[AccessRecord]:
    """Best-effort inverse of :func:`records_to_table` (used in tests)."""
    records = []
    for row in table.iter_rows():
        accessed_rd = row.get("accessed_address_reuse_distance_numeric", NEVER_REUSED)
        evicted_rd = row.get("evicted_address_reuse_distance_numeric", NEVER_REUSED)
        recency = row.get("accessed_address_recency_numeric", NEVER_REUSED)
        evicted_address = row.get("evicted_address") or None
        records.append(
            AccessRecord(
                access_index=row.get("access_index", 0),
                program_counter=int(row["program_counter"], 16),
                memory_address=int(row["memory_address"], 16),
                cache_set_id=row["cache_set_id"],
                is_hit=row["evict"] == HIT_LABEL,
                miss_type=row.get("miss_type", MISS_TYPE_NONE),
                evicted_address=(
                    int(evicted_address, 16) if evicted_address else None
                ),
                accessed_reuse_distance=(
                    None if accessed_rd == NEVER_REUSED else accessed_rd
                ),
                evicted_reuse_distance=(
                    None if evicted_rd == NEVER_REUSED else evicted_rd
                ),
                accessed_recency=None if recency == NEVER_REUSED else recency,
                function_name=row.get("function_name", ""),
                function_code=row.get("function_code", ""),
                assembly_code=row.get("assembly_code", ""),
            )
        )
    return records


def record_field_names() -> List[str]:
    """Field names of :class:`AccessRecord` (useful for tests/docs)."""
    return [f.name for f in fields(AccessRecord)]
