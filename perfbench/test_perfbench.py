"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import questions  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def facts():
    from repro.tracedb.database import DEFAULT_POLICIES, DEFAULT_WORKLOADS
    return questions.session_facts(DEFAULT_WORKLOADS, DEFAULT_POLICIES, 300)


@pytest.fixture(scope="module")
def declared():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", ["cold-ask", "served-mix"])
def test_same_seed_gives_same_questions(facts, workload):
    first = questions.generate_questions(workload, 7, 60, facts)
    assert first == questions.generate_questions(workload, 7, 60, facts)
    assert first != questions.generate_questions(workload, 8, 60, facts)
    assert (questions.category_probes(workload, 7, facts)
            == questions.category_probes(workload, 7, facts))


def test_work_is_fixed_by_seed_and_seconds(tmp_path):
    """A run attempts the same operations however fast the host is."""
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    grid = run.build_inputs("experiment-grid", 3, 25, tmp_path, expected)
    passes = [number for round_ in grid["rounds"] for number in round_]
    assert passes == list(range(round(25 / run.GRID_PASS_S)))
    assert len(grid["rounds"]) == run.ROUNDS
    assert run._split(list(range(10)), 3) == [[0, 1, 2], [3, 4, 5],
                                               [6, 7, 8, 9]]


def test_served_mix_covers_every_category(facts):
    mix = questions.generate_questions("served-mix", 1, 120, facts)
    assert {q["category"] for q in mix} == set(questions.SERVED_CATEGORIES)
    assert {q["type"] for q in mix} >= {
        "hit_miss", "miss_rate", "policy_comparison", "count", "arithmetic",
        "concept", "code_generation", "policy_analysis",
        "workload_analysis", "semantic_analysis"}
    assert any(q["check"] == "premise" for q in mix)


def _reply(question, value, rejected=False):
    return {"question_type": question["type"], "route": question["route"],
            "answer": {"grounded": True, "value": value,
                       "rejected_premise": rejected}}


def test_tampered_answer_value_is_flagged(facts):
    mix = questions.generate_questions("served-mix", 3, 240, facts)
    tampered = {
        "float": lambda value: value * 1.01 + 0.001,
        "equal": lambda value: ("Cache Hit" if value == "Cache Miss"
                                else value + 1),
        "choice": lambda value: "no-such-policy",
        "set": lambda value: value[:-1],
    }
    checked = set()
    for question in mix:
        kind = question["check"]
        if kind in tampered:
            expect = question["expect"]
            honest = expect[0] if kind == "choice" else expect
            assert questions.check_reply(question,
                                         _reply(question, honest)) is None
            assert questions.check_reply(
                question, _reply(question, tampered[kind](honest))) is not None
            checked.add(kind)
        elif kind == "premise":
            assert questions.check_reply(
                question, _reply(question, None, rejected=True)) is None
            assert questions.check_reply(
                question, _reply(question, 0.5)) is not None
            checked.add(kind)
    assert checked == {"float", "equal", "choice", "set", "premise"}


def test_ungrounded_or_misrouted_replies():
    question = {"template": "miss_rate", "text": "q", "type": "miss_rate",
                "route": "sieve", "check": "float", "expect": 0.5}
    ungrounded = _reply(question, 0.9)
    ungrounded["answer"]["grounded"] = False
    assert questions.check_reply(question, ungrounded) is None
    assert questions.check_reply(question, dict(_reply(question, 0.5),
                                                route="ranger")) is not None
    assert questions.check_reply(question, None, "boom") is not None


def test_metric_names_and_contract_shape(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    names = [metric["name"] for key in ("end_to_end", "per_layer")
             for metric in declared[key]]
    names += [workload["name"] for workload in declared["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_reported_metrics_match_the_declared_ones(declared):
    round_ = {"setup_s": 1.0, "peak_rss_mb": 50.0, "op_s": [0.1, 0.2],
              "warm_s": [0.01], "work": 2, "ops": 2, "rates": [6.0],
              "spans": [], "counters": {}}
    for workload in run.WORKLOADS:
        assert (set(run.end_to_end(workload, [round_]))
                >= {m["name"] for m in declared["end_to_end"]})
    layers = set(tracing.layer_metrics([round_])) | {"trace.overhead_ms"}
    assert layers == {m["name"] for m in declared["per_layer"]}


def test_window_rates_count_completions_per_window():
    done = [0.01 * number for number in range(1, 2 * run.RATE_WINDOW + 5)]
    rates = run.window_rates(list(reversed(done)))
    assert rates == pytest.approx([100.0, 100.0])


def test_layer_self_time_subtracts_children():
    spans = [[1, "core.ask", 0.0, 1.0, None, None, None],
             [2, "sim.replay_full", 0.1, 0.6, 1, None,
              {"accesses": 100, "cells": 1}],
             [3, "tracedb.materialise", 0.6, 0.9, 1, None, None],
             [4, "tracedb.materialise", 0.7, 0.8, 3, None, None]]
    metrics = tracing.layer_metrics([{"spans": spans, "ops": 1}])
    assert metrics["core.ask_s"] == pytest.approx(0.2)
    assert metrics["sim.replay_full_s"] == pytest.approx(0.5)
    assert metrics["tracedb.materialise_s"] == pytest.approx(0.3)
    assert metrics["tracedb.materialise.calls"] == 1
    assert metrics["sim.ns_per_access_full"] == pytest.approx(5e6)


def test_digest_ignores_row_order():
    rows = [dict.fromkeys(questions.DIGEST_COLUMNS, index)
            for index in range(3)]
    assert (questions.stats_digest(rows)
            == questions.stats_digest(list(reversed(rows))))
    rows[1]["misses"] = 99
    assert questions.stats_digest(rows) != questions.stats_digest(
        list(reversed([dict.fromkeys(questions.DIGEST_COLUMNS, index)
                       for index in range(3)])))


def test_digest_mismatch_fails_every_operation():
    known = {"template": "count_misses", "why": "known"}
    rounds = [{"attempted": 10, "failures": [known], "digests": ["a"]},
              {"attempted": 5, "failures": [], "digests": ["a"]}]
    assert run.tally(rounds, "a") == (15, 1, True)
    assert run.tally(rounds, "b") == (15, 15, False)
    rounds[1]["failures"].append({"template": "miss_rate", "why": "wrong"})
    assert run.tally(rounds, "a") == (15, 2, False)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-ask",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
