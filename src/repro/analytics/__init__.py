"""repro.analytics — a declarative query layer over columnar tables.

One tested query engine replaces N ad-hoc loops: Sieve's grounding stages,
``ExperimentResult`` views, the serve layer's ``query`` op and the CLI's
``experiment report --query`` all express their lookups as
:class:`Query` objects and execute them through the pure-stdlib columnar
executor (:class:`StdlibBackend`, via :func:`run_query`).  Queries have
lossless ``to_dict``/``from_dict`` wire forms so they ride the JSON-lines
serve protocol.
"""

from .backends import (
    BaseTabularStore,
    StdlibBackend,
    aggregate_values,
    canonical_value,
    run_query,
)
from .dsl import QuerySyntaxError, parse_query
from .query import (
    AGGREGATE_FUNCS,
    FILTER_OPS,
    Aggregate,
    Filter,
    Join,
    OrderBy,
    Query,
    as_query,
)

__all__ = [
    "AGGREGATE_FUNCS",
    "FILTER_OPS",
    "Aggregate",
    "BaseTabularStore",
    "Filter",
    "Join",
    "OrderBy",
    "Query",
    "QuerySyntaxError",
    "StdlibBackend",
    "aggregate_values",
    "as_query",
    "canonical_value",
    "parse_query",
    "run_query",
]
