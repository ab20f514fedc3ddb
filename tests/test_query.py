"""QueryParser: category classification, extraction and the wants_sets fix."""

import pytest

from repro.core import query as q
from repro.core.query import QueryParser

PARSER = QueryParser(known_workloads=["astar", "lbm", "mcf"],
                     known_policies=["lru", "belady", "mlp", "parrot"])

#: one question per CacheMindBench category (plus helper categories).
CATEGORY_QUESTIONS = [
    (q.HIT_MISS, "Does the access at PC 0x400100 to address 0x7fff12345678 "
                 "result in a cache hit or a miss for astar under lru?"),
    (q.MISS_RATE, "What is the miss rate of lru on astar?"),
    (q.POLICY_COMPARISON, "Which policy has the lowest miss rate on astar?"),
    (q.COUNT, "How many times does PC 0x400100 miss in astar?"),
    (q.ARITHMETIC, "What is the average reuse distance for PC 0x400100 "
                   "in astar?"),
    (q.CONCEPT, "How does increasing associativity affect conflict misses?"),
    (q.CODE_GENERATION, "Write code to compute the miss rate for lbm."),
    (q.POLICY_ANALYSIS, "Why does belady outperform lru at PC 0x400100?"),
    (q.WORKLOAD_ANALYSIS, "Which workload has the highest miss rate "
                          "under lru?"),
    (q.SEMANTIC_ANALYSIS, "Why does PC 0x400100 miss so often? Examine the "
                          "assembly context."),
    (q.SET_ANALYSIS, "Which cache sets are hot and cold in astar under lru?"),
    (q.PC_LIST, "List all unique PCs in the astar trace."),
]


@pytest.mark.parametrize("expected,question", CATEGORY_QUESTIONS)
def test_category_classification(expected, question):
    assert PARSER.parse(question).question_type == expected


def test_hex_extraction_classifies_pcs_and_addresses():
    intent = PARSER.parse(
        "Does PC 0x400100 access address 0x7fff12345678 in astar?")
    assert intent.pcs == ["0x400100"]
    assert intent.addresses == ["0x7fff12345678"]


def test_workload_and_policy_extraction():
    intent = PARSER.parse(
        "Compare the policies lru and belady on the mcf workload.")
    assert intent.workloads == ["mcf"]
    assert set(intent.policies) == {"lru", "belady"}


def test_policy_alias_resolution():
    intent = PARSER.parse("Is Belady's optimal better than least recently "
                          "used on astar?")
    assert "belady" in intent.policies
    assert "lru" in intent.policies


# ----------------------------------------------------------------------
# the wants_sets operator-precedence fix
# ----------------------------------------------------------------------
def test_superlative_word_boundaries():
    assert PARSER.parse(
        "Which policy gives the best hit rate on astar over at least "
        "10000 accesses?").comparison == "best"
    assert PARSER.parse(
        "Is the miss rate almost unchanged across policies on astar?"
    ).comparison is None
    assert PARSER.parse(
        "Which policy has the lowest miss rate on astar?").comparison == "lowest"
    assert PARSER.parse(
        "Which policy performs worst on astar?").comparison == "worst"


def test_resolve_comparison_truth_table():
    from repro.core.query import resolve_comparison

    # (comparison, wants_hit_rate) -> winner has the lowest miss rate?
    assert resolve_comparison(None, False) is True
    assert resolve_comparison("best", True) is True
    assert resolve_comparison("worst", False) is False
    assert resolve_comparison("lowest", False) is True    # lowest miss rate
    assert resolve_comparison("highest", False) is False  # highest miss rate
    assert resolve_comparison("lowest", True) is False    # lowest hit rate
    assert resolve_comparison("highest", True) is True    # highest hit rate


def test_wants_sets_for_cache_set_questions():
    assert PARSER.parse("Which cache sets are hot in astar?").wants_sets
    assert PARSER.parse("Show the hot and cold sets of lbm.").wants_sets
    assert PARSER.parse("What happens in cache set 12?").wants_sets


def test_wants_sets_not_triggered_by_substrings():
    # Pre-fix, `"set" in q and "cache set" in q or "sets" in q` made any
    # question containing the substring "sets" (offsets, onsets, ...) match.
    assert not PARSER.parse("What offsets are used by PC 0x400100?").wants_sets
    assert not PARSER.parse("How do the onsets of thrashing look?").wants_sets
    assert not PARSER.parse("What is the miss rate of lru on astar?").wants_sets


# ----------------------------------------------------------------------
# count questions keep their hit/miss qualifier
# ----------------------------------------------------------------------
def test_count_outcome_parsed_only_for_one_named_outcome():
    assert PARSER.parse("How many misses for lru on astar?").outcome == "miss"
    assert PARSER.parse("How many hits does lbm get under lru?").outcome == "hit"
    for question in ["How many accesses does astar make under lru?",
                     "How many hits and misses for lru on astar?",
                     "What is the miss rate of lru on astar?"]:
        assert PARSER.parse(question).outcome is None, question
    intent = PARSER.parse("How many misses for lru on astar?")
    assert "outcome=miss" in intent.describe()


def test_count_set_index_parsed_for_count_questions():
    intent = PARSER.parse("How many misses in set 3 for lru on astar?")
    assert intent.question_type == q.COUNT
    assert intent.set_index == 3
    assert "set=3" in intent.describe()
    assert PARSER.parse("How many misses for lru on astar?").set_index is None
    assert PARSER.parse("How many misses in the offset 3 region of astar "
                        "under lru?").set_index is None


def test_ranger_count_filters_on_named_outcome(fresh_cache):
    from repro import CacheMind, TINY_CONFIG
    from repro.retrieval.ranger import RangerRetriever

    session = CacheMind(workloads=["astar"], policies=["lru"],
                        num_accesses=600, config=TINY_CONFIG,
                        simulation_cache=fresh_cache)
    stats = session.database.get("astar", "lru").result.llc_stats
    assert (stats.accesses, stats.misses, stats.hits) == (600, 402, 198)
    ranger = RangerRetriever(session.database)

    def grounded_count(question):
        intent = session.parser.parse(question)
        execution = ranger.executor.execute(ranger.generate_code(intent))
        assert execution.success, execution.error
        return execution.payload["count"]

    assert grounded_count("How many misses for lru on astar?") == stats.misses
    assert grounded_count("How many misses does astar incur under lru?") \
        == stats.misses
    assert grounded_count("How many hits for lru on astar?") == stats.hits
    assert grounded_count("How many accesses does astar make under lru?") \
        == stats.accesses



def test_ranger_count_filters_on_named_set(fresh_cache):
    from repro import CacheMind, TINY_CONFIG
    from repro.retrieval.ranger import RangerRetriever

    session = CacheMind(workloads=["astar"], policies=["lru"],
                        num_accesses=600, config=TINY_CONFIG,
                        simulation_cache=fresh_cache)
    ranger = RangerRetriever(session.database)

    def payload(question):
        intent = session.parser.parse(question)
        execution = ranger.executor.execute(ranger.generate_code(intent))
        assert execution.success, execution.error
        return execution.payload

    impossible = payload("How many misses in set 99999999 for lru on astar?")
    assert impossible["count"] == 0
    assert "premise_violation" in impossible
    table = session.database.get("astar", "lru").data_frame
    expected = sum(1 for set_id, miss in zip(table.column("cache_set_id"),
                                             table.column("is_miss"))
                   if set_id == 3 and miss)
    assert expected > 0
    in_set = payload("How many misses in set 3 for lru on astar?")
    assert in_set["count"] == expected
    assert "premise_violation" not in in_set
