"""Declarative query objects for the analytics engine.

A :class:`Query` is a small, serialisable description of a tabular
computation over one (or two, via an inner :class:`Join`) registered
tables:

``FROM table [JOIN other ON ...] WHERE filters [GROUP BY cols + aggregates]
[ORDER BY cols] [LIMIT n]`` followed by column projection.

Queries are plain frozen dataclasses with lossless ``to_dict`` /
``from_dict`` wire forms (mirroring :class:`repro.core.experiment
.ExperimentSpec`), so they ride the JSON-lines serve protocol unchanged.
Execution semantics are defined once in :mod:`repro.analytics.backends`.
The contract every result honours: cells come back canonical (``bool``
becomes ``0``/``1`` and ``NaN`` becomes NULL/``None``), NULLs sort last,
numbers sort before strings, and source row order breaks every remaining
tie.  ``tests/test_analytics.py`` pins result bytes for a randomized query
matrix so the contract cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

#: Supported filter operators.  Comparison/equality operators never match
#: NULL values (SQL semantics); use ``is_null`` / ``not_null`` to test for
#: missing data explicitly.
FILTER_OPS = ("eq", "ne", "lt", "le", "gt", "ge", "in", "not_in", "is_null", "not_null")

#: Supported aggregate functions.  All numeric aggregates share
#: :class:`repro.tracedb.table.Column` semantics: non-numeric and NULL/NaN
#: values are skipped, ``mean``/``min``/``max``/``median``/``percentile``/
#: ``std`` return ``None`` over an empty set, ``sum`` returns ``0`` and
#: ``count`` counts *rows in the group* (like SQL ``COUNT(*)``).
#: ``std`` is the population standard deviation (ddof=0).
AGGREGATE_FUNCS = ("count", "sum", "mean", "min", "max", "median", "percentile", "std")

_SCALAR_TYPES = (int, float, str, bool)


def _check_literal(value: Any, where: str) -> None:
    if value is None or isinstance(value, bool):
        return
    if not isinstance(value, _SCALAR_TYPES):
        raise ValueError(
            f"{where}: literal must be int/float/str/bool/None, got {type(value).__name__}"
        )
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        raise ValueError(f"{where}: NaN/inf literals are not supported")


@dataclass(frozen=True)
class Filter:
    """One WHERE predicate: ``column <op> value``.

    ``eq``/``ne`` and the ordered comparisons (``lt``/``le``/``gt``/``ge``)
    never match NULL cells; ``ne``/``not_in`` therefore *exclude* NULLs,
    matching SQL.  Ordered comparisons are additionally type-guarded: a
    numeric literal only matches numeric cells and a string literal only
    matches string cells: ``5 > "3"`` is simply false, never an error.
    Cells are compared in canonical form, so a ``True`` cell equals ``1``
    and a ``NaN`` cell is NULL.
    """

    column: str
    op: str = "eq"
    value: Any = None

    def __post_init__(self) -> None:
        if self.op not in FILTER_OPS:
            raise ValueError(f"unknown filter op {self.op!r}; supported: {', '.join(FILTER_OPS)}")
        if self.op in ("is_null", "not_null"):
            if self.value is not None:
                raise ValueError(f"filter op {self.op!r} takes no value")
            return
        if self.op in ("in", "not_in"):
            if isinstance(self.value, (str, bytes)) or not isinstance(self.value, Sequence):
                raise ValueError(f"filter op {self.op!r} requires a list of literals")
            items = tuple(self.value)
            for item in items:
                _check_literal(item, f"filter {self.column} {self.op}")
                if item is None:
                    raise ValueError(
                        f"filter {self.column} {self.op}: None is never matched by "
                        "(not_)in; use is_null/not_null"
                    )
            object.__setattr__(self, "value", items)
            return
        _check_literal(self.value, f"filter {self.column} {self.op}")
        if self.value is None:
            raise ValueError(
                f"filter {self.column} {self.op}: None never compares equal; "
                "use is_null/not_null"
            )
        if self.op in ("lt", "le", "gt", "ge") and isinstance(self.value, bool):
            raise ValueError(f"filter {self.column} {self.op}: bool literals are not ordered")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"column": self.column, "op": self.op}
        if self.op not in ("is_null", "not_null"):
            payload["value"] = list(self.value) if self.op in ("in", "not_in") else self.value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Filter":
        return cls(
            column=payload["column"],
            op=payload.get("op", "eq"),
            value=payload.get("value"),
        )


@dataclass(frozen=True)
class Aggregate:
    """One aggregate output: ``func(column) AS alias``.

    ``count`` takes no column (it counts rows in the group).
    ``percentile`` requires ``q`` in [0, 1] and uses linear interpolation
    between order statistics (:meth:`Column.percentile`).
    """

    func: str
    column: Optional[str] = None
    alias: Optional[str] = None
    q: Optional[float] = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(
                f"unknown aggregate {self.func!r}; supported: {', '.join(AGGREGATE_FUNCS)}"
            )
        if self.func == "count":
            if self.column is not None:
                raise ValueError("count() takes no column; it counts rows in the group")
        elif not self.column:
            raise ValueError(f"aggregate {self.func!r} requires a column")
        if self.func == "percentile":
            if self.q is None or not 0.0 <= float(self.q) <= 1.0:
                raise ValueError("percentile requires q in [0, 1]")
            object.__setattr__(self, "q", float(self.q))
        elif self.q is not None:
            raise ValueError(f"aggregate {self.func!r} takes no q parameter")

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if self.func == "count":
            return "count"
        if self.func == "percentile":
            return f"p{self.q:g}_{self.column}"
        return f"{self.func}_{self.column}"

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"func": self.func}
        if self.column is not None:
            payload["column"] = self.column
        if self.alias is not None:
            payload["alias"] = self.alias
        if self.q is not None:
            payload["q"] = self.q
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Aggregate":
        return cls(
            func=payload["func"],
            column=payload.get("column"),
            alias=payload.get("alias"),
            q=payload.get("q"),
        )


@dataclass(frozen=True)
class OrderBy:
    """One ORDER BY key.

    NULL cells sort last in *both* directions (the :meth:`Table.sort_by`
    convention); among non-NULL cells, numbers sort before strings and the
    requested direction applies to both the kind rank and the value
    (ascending gives ``1, 2, "a", "b", NULL``; descending gives
    ``"b", "a", 2, 1, NULL``).  Ties preserve the source row order
    (stable).
    """

    column: str
    descending: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"column": self.column, "descending": self.descending}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OrderBy":
        return cls(column=payload["column"], descending=bool(payload.get("descending", False)))


@dataclass(frozen=True)
class Join:
    """Inner equality join against a second registered table.

    ``on`` is a tuple of ``(left_column, right_column)`` key pairs; rows
    with NULL keys never match (SQL semantics).  ``select`` picks right
    columns into the output as ``(right_column, output_name)``; when empty,
    every right column that is not a join key is exported, renamed to
    ``"<table>.<name>"`` on a collision with a left column.  Output rows
    appear in left-major order (left row order, then right row order).
    """

    table: str
    on: Tuple[Tuple[str, str], ...]
    select: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        pairs = tuple((str(left), str(right)) for left, right in self.on)
        if not pairs:
            raise ValueError("join requires at least one (left, right) key pair")
        object.__setattr__(self, "on", pairs)
        picked = tuple((str(col), str(alias)) for col, alias in self.select)
        object.__setattr__(self, "select", picked)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"table": self.table, "on": [list(pair) for pair in self.on]}
        if self.select:
            payload["select"] = [list(pair) for pair in self.select]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Join":
        return cls(
            table=payload["table"],
            on=tuple(tuple(pair) for pair in payload["on"]),
            select=tuple(tuple(pair) for pair in payload.get("select", ())),
        )


@dataclass(frozen=True)
class Query:
    """A declarative query over registered tables.

    Execution order: FROM ``table`` → ``join`` → ``filters`` →
    ``group_by`` + ``aggregates`` → ``order_by`` → ``limit`` → ``select``
    projection.  With ``aggregates`` and no ``group_by`` the whole input is
    one group and the result has exactly one row (even over empty input,
    like SQL).  ``order_by`` may reference any source column (or, for
    grouped queries, any group key / aggregate output); ``select`` is only
    valid for non-aggregated queries, whose output columns default to every
    source column.
    """

    table: str
    select: Tuple[str, ...] = ()
    filters: Tuple[Filter, ...] = ()
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[Aggregate, ...] = ()
    order_by: Tuple[OrderBy, ...] = ()
    limit: Optional[int] = None
    join: Optional[Join] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "select", tuple(str(name) for name in self.select))
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "group_by", tuple(str(name) for name in self.group_by))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        object.__setattr__(self, "order_by", tuple(self.order_by))
        if self.group_by and not self.aggregates:
            raise ValueError("group_by requires at least one aggregate")
        if self.aggregates and self.select:
            raise ValueError(
                "select and aggregates are mutually exclusive; aggregated output "
                "columns are group_by keys plus aggregate aliases"
            )
        if self.limit is not None and (not isinstance(self.limit, int) or self.limit < 0):
            raise ValueError("limit must be a non-negative integer")
        seen = set()
        for name in self.output_columns() or ():
            if name in seen:
                raise ValueError(f"duplicate output column {name!r}")
            seen.add(name)

    # -- fluent helpers ------------------------------------------------

    def where(self, column: str, op: str = "eq", value: Any = None) -> "Query":
        """Return a copy with one more filter predicate."""

        return replace(self, filters=self.filters + (Filter(column, op, value),))

    def order(self, column: str, descending: bool = False) -> "Query":
        """Return a copy with one more ORDER BY key."""

        return replace(self, order_by=self.order_by + (OrderBy(column, descending),))

    def head(self, limit: int) -> "Query":
        """Return a copy limited to the first ``limit`` result rows."""

        return replace(self, limit=limit)

    def output_columns(self) -> Optional[Tuple[str, ...]]:
        """Names of the result columns, or ``None`` when they depend on the
        source schema (non-aggregated query with no explicit select)."""

        if self.aggregates:
            return self.group_by + tuple(agg.output_name for agg in self.aggregates)
        return self.select or None

    # -- wire form -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"table": self.table}
        if self.select:
            payload["select"] = list(self.select)
        if self.filters:
            payload["filters"] = [item.to_dict() for item in self.filters]
        if self.group_by:
            payload["group_by"] = list(self.group_by)
        if self.aggregates:
            payload["aggregates"] = [item.to_dict() for item in self.aggregates]
        if self.order_by:
            payload["order_by"] = [item.to_dict() for item in self.order_by]
        if self.limit is not None:
            payload["limit"] = self.limit
        if self.join is not None:
            payload["join"] = self.join.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Query":
        join = payload.get("join")
        return cls(
            table=payload["table"],
            select=tuple(payload.get("select", ())),
            filters=tuple(Filter.from_dict(item) for item in payload.get("filters", ())),
            group_by=tuple(payload.get("group_by", ())),
            aggregates=tuple(Aggregate.from_dict(item) for item in payload.get("aggregates", ())),
            order_by=tuple(OrderBy.from_dict(item) for item in payload.get("order_by", ())),
            limit=payload.get("limit"),
            join=Join.from_dict(join) if join is not None else None,
        )


def as_query(value: Union[Query, Mapping[str, Any]]) -> Query:
    """Coerce a :class:`Query` or its wire form into a :class:`Query`."""

    if isinstance(value, Query):
        return value
    if isinstance(value, Mapping):
        return Query.from_dict(value)
    raise TypeError(f"expected Query or mapping, got {type(value).__name__}")
