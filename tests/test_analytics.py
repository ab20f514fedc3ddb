"""The analytics engine: Query objects, the stdlib executor, DSL, wiring.

The flagship acceptance test is the randomized differential suite: every
query in the matrix — NULLs, mixed types, empty groups, top-k ties, joins —
must return tables whose canonical JSON matches a pinned SHA-256 digest.
The digests were recorded while a second, independent SQL executor still
returned the same bytes, so they hold the executor to that agreed
behaviour.
"""

import hashlib
import json
import random

import pytest

from repro.analytics import (
    AGGREGATE_FUNCS,
    Aggregate,
    Filter,
    Join,
    OrderBy,
    Query,
    QuerySyntaxError,
    StdlibBackend,
    aggregate_values,
    as_query,
    canonical_value,
    parse_query,
    run_query,
)
from repro.errors import UnknownNameError
from repro.tracedb.table import Column, Table


def make_table(**columns) -> Table:
    return Table.from_columns({name: list(values)
                               for name, values in columns.items()})


@pytest.fixture(params=["stdlib"])
def backend():
    with StdlibBackend() as store:
        yield store


# ----------------------------------------------------------------------
# Query objects: validation, fluent helpers, wire forms
# ----------------------------------------------------------------------
def test_query_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Query(table="t", group_by=("a",))  # group_by without aggregates
    with pytest.raises(ValueError):
        Query(table="t", select=("a",), aggregates=(Aggregate("count"),))
    with pytest.raises(ValueError):
        Query(table="t", limit=-1)
    with pytest.raises(ValueError):
        Query(table="t", limit=2.5)
    with pytest.raises(ValueError):
        Query(table="t", select=("a", "a"))  # duplicate output column
    with pytest.raises(ValueError):
        Query(table="t", group_by=("a",),
              aggregates=(Aggregate("count", alias="a"),))


def test_filter_validation():
    with pytest.raises(ValueError):
        Filter("c", "like", "x")  # unknown op
    with pytest.raises(ValueError):
        Filter("c", "eq", float("nan"))  # NaN literal never matches anything
    with pytest.raises(ValueError):
        Filter("c", "lt", float("inf"))
    with pytest.raises(ValueError):
        Filter("c", "lt", None)
    with pytest.raises(ValueError):
        Filter("c", "ge", True)  # bool literals ambiguous under ordering
    with pytest.raises(ValueError):
        Filter("c", "in", 3)  # in/not_in require a sequence
    assert Filter("c", "in", [1, 2]).value == (1, 2)
    assert Filter("c", "is_null").value is None


def test_aggregate_validation_and_output_names():
    with pytest.raises(ValueError):
        Aggregate("variance")
    with pytest.raises(ValueError):
        Aggregate("sum")  # needs a column
    with pytest.raises(ValueError):
        Aggregate("count", column="c")  # count is rows-in-group, no column
    with pytest.raises(ValueError):
        Aggregate("percentile", column="c")  # needs q
    with pytest.raises(ValueError):
        Aggregate("percentile", column="c", q=1.5)
    assert Aggregate("count").output_name == "count"
    assert Aggregate("mean", column="x").output_name == "mean_x"
    assert Aggregate("percentile", column="x", q=0.95).output_name == "p0.95_x"
    assert Aggregate("sum", column="x", alias="total").output_name == "total"
    assert "percentile" in AGGREGATE_FUNCS


def test_fluent_helpers_build_new_queries():
    base = Query(table="t")
    query = base.where("a", "gt", 3).where("b", "is_null").order("a", descending=True).head(5)
    assert base.filters == () and base.limit is None  # frozen original
    assert query.filters == (Filter("a", "gt", 3), Filter("b", "is_null"))
    assert query.order_by == (OrderBy("a", True),)
    assert query.limit == 5


def test_output_columns():
    assert Query(table="t").output_columns() is None
    assert Query(table="t", select=("b", "a")).output_columns() == ("b", "a")
    grouped = Query(table="t", group_by=("g",),
                    aggregates=(Aggregate("count"), Aggregate("mean", column="x")))
    assert grouped.output_columns() == ("g", "count", "mean_x")


def test_wire_round_trip_is_lossless_and_json_safe():
    query = Query(
        table="cells",
        filters=(Filter("a", "gt", 1), Filter("b", "in", ["x", "y"]),
                 Filter("c", "is_null")),
        group_by=("g", "h"),
        aggregates=(Aggregate("count", alias="n"),
                    Aggregate("percentile", column="v", q=0.9)),
        order_by=(OrderBy("n", True), OrderBy("g")),
        limit=10,
    )
    payload = json.loads(json.dumps(query.to_dict()))
    assert Query.from_dict(payload) == query

    joined = Query(table="l", join=Join("r", on=(("k", "k2"),),
                                        select=(("v", "v_r"),)))
    assert Query.from_dict(json.loads(json.dumps(joined.to_dict()))) == joined

    plain = Query(table="t")
    assert plain.to_dict() == {"table": "t"}  # sparse wire form


def test_as_query_coercion():
    query = Query(table="t", limit=3)
    assert as_query(query) is query
    assert as_query(query.to_dict()) == query
    with pytest.raises(TypeError):
        as_query("select *")


# ----------------------------------------------------------------------
# Column.median / percentile / std (satellite 1)
# ----------------------------------------------------------------------
def test_column_percentile_linear_interpolation():
    column = Column("x", [10.0, 20.0, 30.0, 40.0])
    assert column.percentile(0.0) == 10.0
    assert column.percentile(1.0) == 40.0
    assert column.percentile(0.5) == 25.0  # interpolates between 20 and 30
    assert column.percentile(0.25) == pytest.approx(17.5)
    with pytest.raises(ValueError):
        column.percentile(1.5)
    assert Column("x", [None, "text"]).percentile(0.5) is None


def test_column_median_skips_nulls_and_non_numerics():
    assert Column("x", [3, None, 1, "junk", 2]).median() == 2
    assert Column("x", [4, 1, 2, 3]).median() == 2.5
    assert Column("x", []).median() is None


def test_column_std_is_population_std():
    column = Column("x", [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert column.std() == pytest.approx(2.0)  # ddof=0, not 2.138 (ddof=1)
    assert Column("x", [5.0]).std() == 0.0


def test_table_aggregate_median():
    table = make_table(g=["a", "a", "b"], v=[1, 3, 10])
    result = table.aggregate("g", {"v_median": ("v", "median")})
    assert result["v_median"].values == [2, 10]


# ----------------------------------------------------------------------
# executor semantics
# ----------------------------------------------------------------------
def test_filters_null_semantics(backend):
    backend.register_table("t", make_table(a=[1, 2, None, 3], b=["x", None, "y", "x"]))
    run = lambda q: backend.execute(q)["a"].values
    assert run(Query("t").where("a", "ne", 2)) == [1, 3]  # NULL excluded
    assert run(Query("t").where("a", "is_null")) == [None]
    assert run(Query("t").where("a", "not_null")) == [1, 2, 3]
    assert run(Query("t").where("a", "in", [1, 3, 99])) == [1, 3]
    assert run(Query("t").where("a", "not_in", [1])) == [2, 3]  # NULL excluded
    assert run(Query("t").where("a", "in", [])) == []
    assert run(Query("t").where("a", "not_in", [])) == [1, 2, 3]
    assert run(Query("t").where("b", "eq", "x")) == [1, 3]


def test_ordered_comparisons_are_type_guarded(backend):
    backend.register_table("t", make_table(v=[5, "10", 2.5, None, "abc", 7]))
    result = backend.execute(Query("t").where("v", "gt", 3))
    assert result["v"].values == [5, 7]  # strings never compare to numbers
    result = backend.execute(Query("t").where("v", "ge", "abc"))
    assert result["v"].values == ["abc"]  # and numbers never compare to strings


def test_ordering_nulls_last_and_numbers_before_strings(backend):
    backend.register_table("t", make_table(v=[None, "b", 2, "a", 1, None]))
    ascending = backend.execute(Query("t").order("v"))
    assert ascending["v"].values == [1, 2, "a", "b", None, None]
    descending = backend.execute(Query("t").order("v", descending=True))
    assert descending["v"].values == ["b", "a", 2, 1, None, None]


def test_ordering_ties_preserve_row_order(backend):
    backend.register_table("t", make_table(k=[1, 1, 0, 1, 0], tag=list("abcde")))
    result = backend.execute(Query("t").order("k", descending=True).head(3))
    assert result["tag"].values == ["a", "b", "d"]  # stable within the tie


def test_aggregates_without_group_by_always_one_row(backend):
    backend.register_table("t", make_table(v=[1.0, 2.0, 3.0]))
    query = Query("t", aggregates=(
        Aggregate("count", alias="n"), Aggregate("sum", column="v"),
        Aggregate("mean", column="v"), Aggregate("min", column="v"),
        Aggregate("max", column="v"), Aggregate("median", column="v"),
        Aggregate("std", column="v"),
        Aggregate("percentile", column="v", q=0.5, alias="p50")))
    result = backend.execute(query)
    assert len(result) == 1
    assert result["n"].values == [3]
    assert result["sum_v"].values == [6.0]
    assert result["median_v"].values == [2.0]
    assert result["p50"].values == [2.0]

    empty = backend.execute(query.where("v", "gt", 100))
    assert len(empty) == 1  # SQL semantics: aggregates never vanish
    assert empty["n"].values == [0]
    assert empty["sum_v"].values == [0]  # empty sum is 0
    assert empty["mean_v"].values == [None]  # but empty mean is NULL
    assert empty["min_v"].values == [None]
    assert empty["p50"].values == [None]


def test_group_by_first_seen_order_and_null_groups(backend):
    backend.register_table("t", make_table(
        g=["b", None, "a", "b", None], v=[1, 2, 3, 4, 5]))
    result = backend.execute(Query(
        "t", group_by=("g",),
        aggregates=(Aggregate("count", alias="n"), Aggregate("sum", column="v"))))
    assert result["g"].values == ["b", None, "a"]  # first-seen, NULL is a group
    assert result["n"].values == [2, 2, 1]
    assert result["sum_v"].values == [5, 7, 3]


def test_count_counts_rows_not_values(backend):
    backend.register_table("t", make_table(g=["a", "a"], v=[None, None]))
    result = backend.execute(Query(
        "t", group_by=("g",), aggregates=(Aggregate("count", alias="n"),)))
    assert result["n"].values == [2]  # COUNT(*), not COUNT(v)


def test_select_projection_and_limit(backend):
    backend.register_table("t", make_table(a=[1, 2, 3], b=[4, 5, 6], c=[7, 8, 9]))
    result = backend.execute(Query("t", select=("c", "a"), limit=2))
    assert result.columns == ["c", "a"]
    assert result["c"].values == [7, 8]
    assert len(backend.execute(Query("t", limit=0))) == 0


def test_join_inner_equality(backend):
    backend.register_table("runs", make_table(
        wl=["astar", "lbm", "mcf", None], miss=[0.5, 0.3, 0.9, 0.1]))
    backend.register_table("base", make_table(
        wl=["lbm", "astar", None], miss=[0.4, 0.6, 0.2]))
    query = Query("runs", join=Join("base", on=(("wl", "wl"),)))
    result = backend.execute(query)
    # left-major order; mcf unmatched; NULL keys never match
    assert result["wl"].values == ["astar", "lbm"]
    assert result["miss"].values == [0.5, 0.3]
    assert result["base.miss"].values == [0.6, 0.4]  # collision renamed

    picked = backend.execute(Query("runs", join=Join(
        "base", on=(("wl", "wl"),), select=(("miss", "baseline"),))))
    assert picked.columns == ["wl", "miss", "baseline"]


def test_join_duplicate_right_matches_fan_out(backend):
    backend.register_table("l", make_table(k=[1, 2], v=["a", "b"]))
    backend.register_table("r", make_table(k=[1, 1, 2], w=[10, 20, 30]))
    result = backend.execute(Query("l", join=Join("r", on=(("k", "k"),))))
    assert result["v"].values == ["a", "a", "b"]
    assert result["w"].values == [10, 20, 30]


def test_unknown_names_raise(backend):
    backend.register_table("t", make_table(a=[1]))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("missing"))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t").where("nope", "eq", 1))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t", select=("nope",)))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t").order("nope"))
    with pytest.raises(UnknownNameError):
        backend.execute(Query("t", join=Join("missing", on=(("a", "a"),))))


def test_store_table_management(backend):
    table = make_table(a=[1, True, None], b=[2.5, "x", -3])
    backend.register_table("t", table)
    assert backend.list_tables() == ["t"]
    assert backend.has_table("t")
    assert backend.table_columns("t") == ("a", "b")
    # round-trip through the backend canonicalises bools to ints
    loaded = backend.load_table("t")
    assert loaded["a"].values == [1, 1, None]
    assert loaded["b"].values == [2.5, "x", -3]
    backend.drop_table("t")
    assert not backend.has_table("t")
    with pytest.raises(UnknownNameError):
        backend.load_table("t")
    backend.close()
    with pytest.raises(RuntimeError):
        backend.register_table("u", make_table(a=[1]))


def test_run_query():
    table = make_table(a=[3, 1, 2])
    result = run_query(Query("t").order("a"), {"t": table})
    assert result["a"].values == [1, 2, 3]
    assert run_query(Query("t").to_dict(), {"t": table})["a"].values == [3, 1, 2]
    with pytest.raises(UnknownNameError):
        run_query(Query("missing"), {"t": table})


def test_canonical_value_and_aggregate_values():
    assert canonical_value(True) == 1 and canonical_value(True) is not True
    assert canonical_value(float("nan")) is None
    assert canonical_value("x") == "x"
    assert aggregate_values("sum", []) == 0
    assert aggregate_values("mean", []) is None
    assert aggregate_values("percentile", [1.0, 2.0], q=0.5) == 1.5
    with pytest.raises(ValueError):
        aggregate_values("nope", [1])


def test_opaque_payloads_pass_through(backend):
    # Non-scalar payload columns (the trace table's current_cache_lines)
    # survive select passthrough and table loads untouched.
    backend.register_table("t", make_table(
        k=[1, 2, 3], lines=[[10, 20], {"a": 1}, None]))
    result = backend.execute(Query("t").where("k", "le", 2))
    assert result["lines"].values == [[10, 20], {"a": 1}]
    assert backend.load_table("t")["lines"].values == [[10, 20], {"a": 1}, None]


# ----------------------------------------------------------------------
# the differential matrix: randomized queries against pinned digests
# ----------------------------------------------------------------------
def random_table(rng: random.Random, rows: int) -> Table:
    """A messy table: NULLs everywhere, mixed types, heavy ties.

    Group keys draw from int/str/None pools only — 1 and 1.0 are the same
    group key by design, so float keys would only blur what the
    differential test is probing.
    """
    groups = ["red", "green", "blue", 1, 2, None]
    return make_table(
        g=[rng.choice(groups) for _ in range(rows)],
        k=[rng.choice([0, 1, 2, None]) for _ in range(rows)],
        v=[rng.choice([None, rng.randint(-5, 5), rng.random() * 10,
                       "stray", True]) for _ in range(rows)],
        w=[float(rng.randint(0, 3)) for _ in range(rows)],  # heavy ties
    )


DIFFERENTIAL_QUERIES = [
    Query("t"),
    Query("t", select=("v", "g")),
    Query("t").where("v", "gt", 2).order("v", descending=True),
    Query("t").where("v", "ne", 1).where("g", "in", ["red", 1]),
    Query("t").where("v", "is_null").order("g"),
    Query("t").where("v", "not_in", [0, "stray"]),
    Query("t").order("v").order("g", descending=True).head(7),
    Query("t").order("w").head(5),  # top-k over heavy ties
    Query("t", group_by=("g",), aggregates=(
        Aggregate("count", alias="n"), Aggregate("sum", column="v"),
        Aggregate("mean", column="v"), Aggregate("std", column="w"),
        Aggregate("percentile", column="v", q=0.75, alias="p75"))),
    Query("t", group_by=("g", "k"), aggregates=(
        Aggregate("count", alias="n"), Aggregate("median", column="v"))
        ).order("n", descending=True).order("g").head(6),
    # empty groups: the filter leaves no rows at all
    Query("t", aggregates=(Aggregate("count", alias="n"),
                           Aggregate("sum", column="v"),
                           Aggregate("mean", column="v"))
          ).where("v", "gt", 10 ** 9),
    Query("t", group_by=("k",),
          aggregates=(Aggregate("max", column="v"),)
          ).where("g", "eq", "no-such-group"),
    # join on a messy key, then order the combined row set
    Query("t", join=Join("u", on=(("k", "k"),)),
          ).where("w", "ge", 1.0).order("v").head(20),
    Query("t", join=Join("u", on=(("g", "g"), ("k", "k")),
                         select=(("v", "v_right"),))).order("v_right"),
]


#: SHA-256 of ``json.dumps(result.to_dict(), sort_keys=True)`` for each
#: seed's tables and each query of DIFFERENTIAL_QUERIES, in order.
PINNED_DIGESTS = {
    0: (
        "6c524e8b02bee9ca8e43f5fdc10e76d2dee0d6366d0505e5b47d4e8b174b2a0e",
        "7c5d32696645b492c6df1852d7224a82eaf49d5b606c02be560fd5c5024eb705",
        "a2e56a11a2186580dda8b38527f48f00f96b5569bb05dc69c2f585e3db8ecdfd",
        "d6128cd17e3c7d055122e2fb03e190b9bea95e2fb170da777f8a5da8c74ba032",
        "c05fa6643825efd232d101847ba9177950506f487fdb2bb2fcddb66160892d9b",
        "00471f786a345f04d2e427e1ccabfb3b9d486e353172731e6bb8b6748e7c1538",
        "c8ac31b0d3be61ee16282ebc5d0afeaf064cd5b2b74158b5d5cd9b79bf6937a8",
        "e0e29411445b1ca15fbbb0d8c64b3a5bddcc06d9049d0ca5128806f4cd241eec",
        "a84c8cd3d07cd5af84d97234baf9859fea15603a00b7d508caab549031020b35",
        "7499cfa87d885d30ab4ee16de41af07c2b3366390c5d8fd01b7dc863cc08f7dd",
        "72c2b33c96577840bfddea8909c5092d6bdaeb352638b777dd25261f2a1be721",
        "d48ec6addf4b382fd673eb925e980ba5012d11e833df37d5e9c0eda7b9073b7d",
        "36401b0a23cf795f3c5f21cc058a386bdae2bb6a7fc5864375cec51ca318c04e",
        "d3a8132db0275ff24cd2f6f10ba51c2af3bfd387f9b561f8b6f8f5b77a609b0f",
    ),
    1: (
        "bb0cd069304890103d8f0346ba0800d97c2675050c3bef74634912d2c2af4ed4",
        "5ab6962568f47c46377824c346a700f81b0c5784d0c135b86e7ddf0e07b06b02",
        "6e15fc8bbe7390f2bdf0dc07099ad37c42976e5206b20e010b046fa6a62f07d9",
        "0dd67eb03f60fd06b2a12cb0752e15dfa5f50e18d1f42eb95a27954f193d08a0",
        "e7172cc5a857233a73a2b0e2fe63b98998f1c9b1029613a6e3bdf41979131564",
        "166f0f5764e90e1f61c309cda53763f71e482c4a76c8c5faa1a097c2afaee378",
        "e4f1cac1a232c20d55d43d7102cad363a327a770737f597687be19a89ba6e066",
        "cae9256c27cd7c3890f3f877346a3d6eb2a900e35f1e100cd96a1399b17be872",
        "c1c02c0e584bb8b5daeeb28ff9f79182dea631db68fb51c6402d75068c0045ac",
        "25547b8e145c0bb5ca803ff784b2f0bc6469edce1f6fd67092b1613dadba4d4f",
        "72c2b33c96577840bfddea8909c5092d6bdaeb352638b777dd25261f2a1be721",
        "d48ec6addf4b382fd673eb925e980ba5012d11e833df37d5e9c0eda7b9073b7d",
        "251d2d58e1608c82fc5817890eb0c5ea5484669d66428f9d42b16ceab2a259e5",
        "afb525db6bc4270d864401f3a63476cd53f76ed99dc361cbd5a7743867464010",
    ),
    2: (
        "6084f978bd8616c8f2c4237dc7f73e0d62aed099e64d3597e00ca4fedf8cb18d",
        "fe433f0e90644f95d5d8a8b584be00b82c2bc5e1149ad63ab4d54193c71cd5ea",
        "97d304da3b7f58fc56be2522163b87811065643d88d7cf4b919e35ee6bbe75e8",
        "ea0a41c23c64e12956cab78ca3878cd84afe285cee328c7a67153855a38a824f",
        "6a66c271c882f0474dd9e0054b94d9e0b3a4840762cc3843f7e5961215af9f38",
        "043bcd02d386eb8720c88655aa8b34102371d95b1f9025f843d9ba17a7bc6ea9",
        "35181d1060aa5baf717e862c34b9f05141a3f6fdf120da36a66cf2a675e52738",
        "cf631d811a1a7d21837380cbed3882e39767068580feb7cc4ee364e791615725",
        "6e158dcf05b225b6793fd3ffe5d8d5d088a17fd2d84d8f1aa1dc9d46e2c87fea",
        "9bfbc1dd8e42a6bbc0e0b89a09aaea870f8dddb4f076263cf4a99e16d57b7c9f",
        "72c2b33c96577840bfddea8909c5092d6bdaeb352638b777dd25261f2a1be721",
        "d48ec6addf4b382fd673eb925e980ba5012d11e833df37d5e9c0eda7b9073b7d",
        "8d725ce41efd5ecff1968efe796c25696e2508df670fc8324a2867af3b8042ec",
        "79bc3c363655b0689459efdf3ec1e0cacc0d53c4653f36cee515175dbc87516d",
    ),
}


def result_digest(table: Table) -> str:
    return hashlib.sha256(
        json.dumps(table.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_matches_pinned_digests(seed):
    rng = random.Random(seed)
    left = random_table(rng, 60)
    right = random_table(rng, 40)
    assert len(PINNED_DIGESTS[seed]) == len(DIFFERENTIAL_QUERIES)
    with StdlibBackend() as store:
        store.register_table("t", left)
        store.register_table("u", right)
        for query, pinned in zip(DIFFERENTIAL_QUERIES, PINNED_DIGESTS[seed]):
            expected = store.execute(query)
            assert result_digest(expected) == pinned, \
                f"result bytes drifted on {query.to_dict()}"
            # and the wire form reproduces the native result exactly
            rewired = store.execute(Query.from_dict(query.to_dict()))
            assert rewired.to_dict() == expected.to_dict()


def test_differential_identity_is_type_strict():
    # `==` cannot see 1 vs 1.0 and digests do not say which query drifted,
    # so pin the numeric types directly: aggregates float all numerics
    # (Column._numeric_values), and the empty sum is the int 0.
    table = make_table(g=["a", "a", "b"], v=[1, 2, 10])
    query = Query("t", group_by=("g",), aggregates=(
        Aggregate("sum", column="v"), Aggregate("min", column="v")))
    empty_sum = Query("t", aggregates=(Aggregate("sum", column="v"),)
                      ).where("v", "gt", 100)
    with StdlibBackend() as store:
        store.register_table("t", table)
        result = store.execute(query)
        assert result["sum_v"].values == [3.0, 10.0]
        assert all(type(v) is float for v in result["sum_v"].values)
        assert all(type(v) is float for v in result["min_v"].values)
        zero = store.execute(empty_sum)["sum_v"].values
        assert zero == [0] and type(zero[0]) is int


# ----------------------------------------------------------------------
# the --query mini-DSL (satellite 3)
# ----------------------------------------------------------------------
def test_dsl_full_query():
    query = parse_query(
        "select workload, policy, miss_rate "
        "where config = 'tiny' and miss_rate > 0.1 "
        "order by miss_rate desc, workload limit 5")
    assert query == Query(
        table="cells",
        select=("workload", "policy", "miss_rate"),
        filters=(Filter("config", "eq", "tiny"),
                 Filter("miss_rate", "gt", 0.1)),
        order_by=(OrderBy("miss_rate", True), OrderBy("workload", False)),
        limit=5,
    )


def test_dsl_aggregates_and_group_by():
    query = parse_query(
        "group by workload agg mean(miss_rate) as mean_miss, count(), "
        "percentile(ipc, 0.9) order by mean_miss")
    assert query.group_by == ("workload",)
    assert query.aggregates == (
        Aggregate("mean", column="miss_rate", alias="mean_miss"),
        Aggregate("count"),
        Aggregate("percentile", column="ipc", q=0.9),
    )


def test_dsl_operators_and_literals():
    query = parse_query(
        "where a != 3 and b in (1, 'two', three) and c is null "
        "and d is not null and e not in (4.5) and f = true and g <= -2")
    assert query.filters == (
        Filter("a", "ne", 3),
        Filter("b", "in", (1, "two", "three")),
        Filter("c", "is_null"),
        Filter("d", "not_null"),
        Filter("e", "not_in", (4.5,)),
        Filter("f", "eq", True),
        Filter("g", "le", -2),
    )


def test_dsl_table_override_and_errors():
    assert parse_query("limit 3", table="trace").table == "trace"
    for bad in ["frobnicate x", "where a", "limit -1", "limit many",
                "agg nope(x)", "where a = ", "select",
                "group by g"]:  # group without aggregates
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)


def test_dsl_matches_hand_built_execution():
    table = make_table(workload=["astar", "lbm", "astar"],
                       miss_rate=[0.5, 0.3, 0.7])
    query = parse_query("group by workload agg mean(miss_rate) as m "
                        "order by m desc")
    result = run_query(query, {"cells": table})
    assert result["workload"].values == ["astar", "lbm"]
    assert result["m"].values == [0.6, 0.3]


# ----------------------------------------------------------------------
# ExperimentResult.query / top_k / join
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stored_experiment(tmp_path_factory):
    """A store-backed session with one completed 2x2 experiment."""
    from repro import CacheMind

    from conftest import SESSION_KWARGS

    store_dir = str(tmp_path_factory.mktemp("analytics") / "store")
    session = CacheMind(store_dir=store_dir, **SESSION_KWARGS)
    spec = session.experiment_spec(workloads=["astar", "lbm"],
                                   policies=["lru", "belady"])
    result = session.run_experiment(spec)
    return session, spec, result, store_dir


def test_experiment_query_group_by(stored_experiment):
    _session, _spec, result, _store_dir = stored_experiment
    table = result.query(Query(
        "cells", group_by=("workload",),
        aggregates=(Aggregate("count", alias="n"),
                    Aggregate("mean", column="miss_rate", alias="mean_miss"))))
    assert table["workload"].values == ["astar", "lbm"]
    assert table["n"].values == [2, 2]
    for workload, mean_miss in zip(table["workload"].values,
                                   table["mean_miss"].values):
        cells = [row["miss_rate"] for row in result.iter_rows()
                 if row["workload"] == workload]
        assert mean_miss == pytest.approx(sum(cells) / len(cells))
    # the wire form gives the same bytes
    assert result.query(Query.from_dict(Query(
        "cells", group_by=("workload",),
        aggregates=(Aggregate("count", alias="n"),
                    Aggregate("mean", column="miss_rate", alias="mean_miss"))
    ).to_dict())).to_dict() == table.to_dict()


def test_experiment_top_k(stored_experiment):
    _session, _spec, result, _store_dir = stored_experiment
    worst = result.top_k("miss_rate", k=2)
    assert len(worst) == 2
    rates = sorted((row["miss_rate"] for row in result.iter_rows()),
                   reverse=True)
    assert worst["miss_rate"].values == rates[:2]
    best = result.top_k("miss_rate", k=1, descending=False,
                        where={"workload": "astar"})
    astar = [row["miss_rate"] for row in result.iter_rows()
             if row["workload"] == "astar"]
    assert best["miss_rate"].values == [min(astar)]
    with pytest.raises(ValueError):
        result.top_k("no_such_metric")


def test_experiment_self_join_has_zero_deltas(stored_experiment):
    _session, _spec, result, _store_dir = stored_experiment
    joined = result.join(result, metrics=("miss_rate", "ipc"))
    assert len(joined) == len(result)
    assert joined["miss_rate_other"].values == joined["miss_rate"].values
    assert joined["miss_rate_delta"].values == [0.0] * len(result)
    assert joined["ipc_delta"].values == [0.0] * len(result)


def test_experiment_iter_rows_is_lazy_and_matches_rows(stored_experiment):
    _session, _spec, result, _store_dir = stored_experiment
    iterator = result.iter_rows()
    first = next(iterator)
    assert first == result.row(0)
    assert [first] + list(iterator) == result.rows()


# ----------------------------------------------------------------------
# Sieve: every stage lookup runs through the engine
# ----------------------------------------------------------------------
def test_sieve_stage_lookups_match_table_scans(session):
    from repro.retrieval.sieve import SieveRetriever

    sieve = SieveRetriever(session.database)
    field = "accessed_address_reuse_distance_numeric"
    for entry in session.database.entries.values():
        table = entry.data_frame
        pcs = table["program_counter"].values
        for pc in (pcs[0], pcs[-1], "0xdead00"):
            assert sieve._trace_count(table, program_counter=pc) == pcs.count(pc)
            assert sieve._trace_slice(table, program_counter=pc).to_dict() \
                == table.where(program_counter=pc).to_dict()
        assert sieve._field_values(table, field) == [
            value for value in table[field].values
            if value is not None and value != -1]


# ----------------------------------------------------------------------
# the serve layer: the `query` op and RemoteClient.query
# ----------------------------------------------------------------------
def test_remote_query_matches_in_process(stored_experiment):
    from repro.serve import CacheMindServer, CacheMindService, RemoteClient

    session, spec, result, _store_dir = stored_experiment
    query = parse_query("group by workload agg mean(miss_rate) as m, count() "
                        "order by m desc")
    expected = result.query(query)
    service = CacheMindService(session=session)
    try:
        with CacheMindServer(service, host="127.0.0.1", port=0).start() as server:
            host, port = server.address
            with RemoteClient(host, port) as client:
                # a unique fingerprint prefix resolves server-side
                remote = client.query(spec.fingerprint()[:10], query)
                assert remote.to_dict() == expected.to_dict()
                via_wire = client.query(spec.fingerprint(), query.to_dict())
                assert via_wire.to_dict() == expected.to_dict()
    finally:
        service.close()


def test_query_op_error_paths(stored_experiment):
    from repro.serve import CacheMindServer, CacheMindService

    session, spec, _result, _store_dir = stored_experiment
    service = CacheMindService(session=session)
    try:
        server = CacheMindServer(service, host="127.0.0.1", port=0)
        wire = {"op": "query", "fingerprint": spec.fingerprint(),
                "query": Query("cells", limit=1).to_dict()}
        assert server.dispatch_line(json.dumps(wire).encode())["ok"] is True
        # clients built before the executor became the only one always
        # send "backend": "stdlib"; that value still answers
        legacy = server.dispatch_line(
            json.dumps({**wire, "backend": "stdlib"}).encode())
        assert legacy["ok"] is True
        assert legacy["result"] == server.dispatch_line(
            json.dumps(wire).encode())["result"]
        for broken in [
            {**wire, "fingerprint": "feedbeef"},        # no such experiment
            {**wire, "fingerprint": ""},                # missing fingerprint
            {**wire, "query": "select *"},              # query must be a dict
            {**wire, "query": {"table": "cells", "limit": -2}},
            # (any table name binds the cell table, so probe a bad column)
            {**wire, "query": {"table": "cells", "select": ["nope"]}},
            {**wire, "backend": "pandas"},              # unknown backend
            {**wire, "backend": "sqlite"},              # removed backend
            {**wire, "backend": None},                  # not a name
        ]:
            reply = server.dispatch_line(json.dumps(broken).encode())
            assert reply["ok"] is False, broken
            assert reply["kind"] == "bad_request", broken
    finally:
        service.close()


def test_query_op_without_store_is_a_client_error(session):
    from repro.serve import CacheMindServer, CacheMindService

    service = CacheMindService(session=session)  # no store_dir attached
    try:
        server = CacheMindServer(service, host="127.0.0.1", port=0)
        reply = server.dispatch_line(json.dumps(
            {"op": "query", "fingerprint": "ab",
             "query": {"table": "cells"}}).encode())
        assert reply["ok"] is False
        assert reply["kind"] == "bad_request"
        assert "store" in reply["error"]
    finally:
        service.close()


# ----------------------------------------------------------------------
# CLI: experiment report --query / --format csv
# ----------------------------------------------------------------------
def test_cli_report_query_formats(stored_experiment, capsys):
    from repro.cli import main

    _session, spec, result, store_dir = stored_experiment
    dsl = ("group by workload agg mean(miss_rate) as m, count() "
           "order by m desc")
    base = ["experiment", "report", "--store-dir", store_dir,
            "--fingerprint", spec.fingerprint()[:8], "--query", dsl]
    assert main([*base, "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0] == "workload,m,count"
    assert csv == result.query(parse_query(dsl)).to_csv() + "\n"

    assert main(base) == 0  # default fixed-width rendering
    rendered = capsys.readouterr().out
    assert "workload" in rendered and "astar" in rendered

    assert main([*base, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == result.query(parse_query(dsl)).to_dict()


def test_cli_report_query_json_wire_form(stored_experiment, capsys):
    from repro.cli import main

    _session, spec, result, store_dir = stored_experiment
    wire = json.dumps(Query("cells", select=("workload", "policy", "miss_rate"),
                            order_by=(OrderBy("miss_rate", True),),
                            limit=2).to_dict())
    assert main(["experiment", "report", "--store-dir", store_dir,
                 "--fingerprint", spec.fingerprint(), "--query", wire,
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "workload,policy,miss_rate"
    assert len(out.strip().splitlines()) == 3  # header + limit 2


def test_cli_report_query_errors(stored_experiment, capsys):
    from repro.cli import main

    _session, spec, _result, store_dir = stored_experiment
    base = ["experiment", "report", "--store-dir", store_dir,
            "--fingerprint", spec.fingerprint()]
    assert main([*base, "--query", "frobnicate"]) == 2
    assert "bad --query" in capsys.readouterr().err
    assert main([*base, "--query", '{"limit": 1}']) == 2  # missing table
    assert "bad --query" in capsys.readouterr().err
    assert main([*base, "--query", "select no_such_column"]) == 1
    assert "no_such_column" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exited:  # the option is gone
        main([*base, "--query", "limit 1", "--backend", "stdlib"])
    assert exited.value.code == 2
    assert "--backend" in capsys.readouterr().err
