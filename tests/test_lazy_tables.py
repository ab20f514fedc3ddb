"""Trace tables are built on first read.

Entry statistics come straight from the columnar access log, so a session
answers whole-trace questions without building a single per-access table.
These tests hold that contract three ways:

* the log-derived :class:`WorkloadStatistics` equals an oracle computed here
  from the built table's columns, for every registered policy, an ingested
  ChampSim trace and a ``max_records``-truncated log;
* counting ``AccessLog.to_table`` calls pins which questions build tables;
* ``loaded_data()`` values behave as the documented mapping, and the table
  columns themselves are pinned by digest.
"""

import hashlib
import math
import random
from collections.abc import Mapping
from dataclasses import astuple

import pytest

from repro.core.query import QueryParser
from repro.policies.base import available_policies
from repro.retrieval.codegen import RangerCodeGenerator
from repro.retrieval.executor import SandboxExecutor
from repro.sim.config import TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.tracedb.database import DEFAULT_WORKLOADS, make_entry
from repro.tracedb.schema import (
    ACCESS_COLUMNS,
    AccessLog,
    WorkloadStatistics,
    format_address,
    format_pc,
)
from repro.workloads.generator import generate_trace
from repro.workloads.ingest import parse_champsim_trace, write_champsim_trace
from repro.workloads.trace import FLAG_PREFETCH, FLAG_WRITE, MemoryTrace

NUM_ACCESSES = 300


def _oracle_pearson(xs, ys):
    if len(xs) < 2:
        return None
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return None
    return cov / math.sqrt(var_x * var_y)


def _oracle_statistics(table):
    """Whole-trace statistics read from the formatted table columns."""
    evicted = table["evicted_address"].values
    evicted_rd = table["evicted_address_reuse_distance_numeric"].values
    accessed_rd = table["accessed_address_reuse_distance_numeric"].values
    recency = table["accessed_address_recency_numeric"].values
    is_miss = table["is_miss"].values
    miss_types = table["miss_type"].values
    wrong = sum(1 for victim, victim_rd, own_rd
                in zip(evicted, evicted_rd, accessed_rd)
                if victim and victim_rd != -1
                and (own_rd == -1 or victim_rd < own_rd))
    seen = [(float(value), float(miss))
            for value, miss in zip(recency, is_miss) if value != -1]
    return WorkloadStatistics(
        total_accesses=len(table),
        total_misses=sum(is_miss),
        total_evictions=sum(1 for victim in evicted if victim),
        compulsory_misses=miss_types.count("Compulsory"),
        capacity_misses=miss_types.count("Capacity"),
        conflict_misses=miss_types.count("Conflict"),
        wrong_evictions=wrong,
        recency_miss_correlation=_oracle_pearson(
            [value for value, _miss in seen], [miss for _value, miss in seen]),
        unique_pcs=len(set(table["program_counter"].values)),
        unique_addresses=len(set(table["memory_address"].values)),
    )


def _assert_statistics_match_table(log):
    expected = _oracle_statistics(log.to_table())
    assert astuple(log.workload_statistics()) == astuple(expected)


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("workload", DEFAULT_WORKLOADS)
def test_log_statistics_match_table_oracle(workload, policy):
    trace = generate_trace(workload, NUM_ACCESSES, seed=0)
    result = SimulationEngine(config=TINY_CONFIG).run(trace, policy)
    _assert_statistics_match_table(result.log)


@pytest.mark.parametrize("policy", ["lru", "mlp", "belady"])
def test_log_statistics_match_table_oracle_on_ingested_trace(tmp_path,
                                                             policy):
    rng = random.Random(7)
    size = 400
    columns = (
        [0x400000 + 4 * rng.randrange(24) for _ in range(size)],
        [64 * rng.randrange(160) for _ in range(size)],
        [rng.choice((0, 0, FLAG_WRITE, FLAG_PREFETCH)) for _ in range(size)],
        [rng.randrange(8) for _ in range(size)],
    )
    path = write_champsim_trace(
        MemoryTrace(workload="ingested", columns=columns),
        str(tmp_path / "ingested.champsim"))
    trace = parse_champsim_trace(path)
    result = SimulationEngine(config=TINY_CONFIG).run(trace, policy)
    _assert_statistics_match_table(result.log)


def test_log_statistics_follow_max_records_truncation():
    trace = generate_trace("mcf", NUM_ACCESSES, seed=0)
    result = SimulationEngine(config=TINY_CONFIG, max_records=120).run(
        trace, "srrip")
    assert len(result.log) == 120
    statistics = result.log.workload_statistics()
    assert statistics.total_accesses == 120
    _assert_statistics_match_table(result.log)


def test_empty_log_statistics():
    statistics = AccessLog().workload_statistics()
    assert astuple(statistics) == (0, 0, 0, 0, 0, 0, 0, None, 0, 0)


def test_make_entry_builds_no_table(monkeypatch):
    calls = _count_table_builds(monkeypatch)
    trace = generate_trace("astar", NUM_ACCESSES, seed=0)
    entry = make_entry(SimulationEngine(config=TINY_CONFIG).run(trace, "lru"))
    assert calls == []
    assert "rows=300" in repr(entry)
    assert calls == []
    assert len(entry.data_frame) == 300
    assert len(calls) == 1


def test_make_entry_rejects_a_stats_result():
    trace = generate_trace("astar", NUM_ACCESSES, seed=0)
    result = SimulationEngine(config=TINY_CONFIG, detail="stats").run(
        trace, "lru")
    with pytest.raises(ValueError, match="no access log"):
        make_entry(result)


# ----------------------------------------------------------------------
# which questions build tables
# ----------------------------------------------------------------------
def _count_table_builds(monkeypatch):
    calls = []
    original = AccessLog.to_table

    def counted(log):
        calls.append(log)
        return original(log)

    monkeypatch.setattr(AccessLog, "to_table", counted)
    return calls


def test_miss_rate_ask_and_describe_build_no_table(session, monkeypatch):
    calls = _count_table_builds(monkeypatch)
    answer = session.ask("What is the miss rate of lru on astar?")
    assert answer.retriever == "sieve"
    assert "%" in answer.text
    assert calls == []
    description = session.describe()
    assert "astar_evictions_lru: 500 rows" in description
    assert calls == []


def test_hit_miss_ask_builds_only_its_table(session, monkeypatch):
    calls = _count_table_builds(monkeypatch)
    log = session.database.get("astar", "lru").result.log
    pc, address = format_pc(log.pcs[7]), format_address(log.block_addresses[7])
    answer = session.ask(f"Is the access of PC {pc} to address {address} "
                         f"a hit or a miss under lru on astar?")
    assert calls == [log]
    assert "Cache" in answer.text


# ----------------------------------------------------------------------
# loaded_data values and pinned tables
# ----------------------------------------------------------------------
def test_loaded_data_values_behave_as_the_documented_mapping(session,
                                                             monkeypatch):
    calls = _count_table_builds(monkeypatch)
    loaded = session.database.loaded_data()
    session.retriever("ranger")
    assert calls == []
    entry = session.database.get("astar", "lru")
    value = loaded["astar_evictions_lru"]
    assert isinstance(value, Mapping)
    assert list(value.keys()) == ["data_frame", "metadata", "description"]
    assert len(value) == 3
    assert "metadata" in value and "rows" not in value
    assert value.get("description") == entry.description
    assert value.get("rows") is None
    with pytest.raises(KeyError):
        value["rows"]
    with pytest.raises(TypeError):
        value["metadata"] = "edited"
    assert calls == []
    assert value["data_frame"] is entry.data_frame
    assert len(calls) == 1
    assert dict(value.items()) == {"data_frame": entry.data_frame,
                                   "metadata": entry.metadata,
                                   "description": entry.description}
    assert len(calls) == 1


@pytest.mark.parametrize("question", [
    "Which policy has the lowest miss rate on astar?",
    "Which workload has the highest miss rate under lru?",
])
def test_cross_key_codegen_answers_match_plain_dicts(session, question):
    database = session.database
    intent = QueryParser(known_workloads=database.workloads,
                         known_policies=database.policies).parse(question)
    code = RangerCodeGenerator().generate(intent)
    assert "for other_key in sorted(loaded_data)" in code
    plain = {key: {"data_frame": entry.data_frame,
                   "metadata": entry.metadata,
                   "description": entry.description}
             for key, entry in database.entries.items()}
    lazy = SandboxExecutor(database.loaded_data()).execute(code)
    eager = SandboxExecutor(plain).execute(code)
    assert lazy.success and eager.success
    assert lazy.result == eager.result
    assert lazy.payload == eager.payload


#: SHA-256 over ``repr`` of every column of ``to_table()``, in column order,
#: for SMALL_CONFIG, trace seed 0, 1000 accesses.
PINNED_TABLE_DIGESTS = {
    ("astar", "mlp"):
        "8e503966e60eff1d0f434348b666c30e0fbb72fa215cb12969c1024ee501a614",
    ("mcf", "parrot"):
        "36bf23f6ebdbde058f1160a354f5bc92292dd118e1d57f86b8b82640e4c25878",
}


@pytest.mark.parametrize("workload,policy", sorted(PINNED_TABLE_DIGESTS))
def test_table_columns_match_pinned_digest(workload, policy):
    trace = generate_trace(workload, 1000, seed=0)
    table = SimulationEngine().run(trace, policy).log.to_table()
    digest = hashlib.sha256()
    for name in ACCESS_COLUMNS:
        digest.update(name.encode())
        digest.update(repr(table[name].values).encode())
    assert digest.hexdigest() == PINNED_TABLE_DIGESTS[(workload, policy)]
