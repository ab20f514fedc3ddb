"""Seeded CacheMind questions, their oracle answers and the reply check.

The ``cold-ask`` and ``served-mix`` workloads share this module.  A question
is a plain dictionary (so it crosses process boundaries as JSON)::

    {"template": "miss_rate", "category": "aggregate",
     "text": "What is the miss rate of lru on astar?",
     "type": "miss_rate", "route": "sieve",
     "check": "float", "expect": 0.478}

``type`` and ``route`` are what the program must report for the question;
``check``/``expect`` describe the oracle answer a *grounded* reply must
match.  The oracle never goes through Sieve or Ranger: it reads the trace
columns directly and replays the trace with ``SimulationEngine(detail=
"stats")``.  Hit/miss questions only name (PC, address) pairs whose single
access is the first touch of its block, so the oracle answer is a
compulsory miss under every policy -- that relies on the modelled caches
starting empty.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence

#: trace length of the sessions ``cold-ask`` and ``served-mix`` build.
SESSION_ACCESSES = 1000

#: templates whose failure is a documented program defect.  They stay in
#: the mix so the defect shows in ``failed``; ``correct`` stays true only
#: while every failure comes from one of these.
KNOWN_DEFECTS = {
    "count_misses": "count questions drop the hit/miss qualifier, so Ranger "
                    "counts every access (ROADMAP item 1)",
}

#: question categories of each workload's mix.
COLD_ASK_CATEGORIES = ("aggregate", "pc_level", "count", "premise", "concept")
SERVED_CATEGORIES = ("miss_rate", "policy_comparison", "hit_miss", "count",
                     "arithmetic", "trick", "concept", "code_generation",
                     "policy_analysis", "workload_analysis",
                     "semantic_analysis", "pc_list")

#: the cold-ask category -> served category templates it draws from.
_COLD_ASK_SOURCES = {
    "aggregate": ("miss_rate", "policy_comparison"),
    "pc_level": ("hit_miss", "count_pc"),
    "count": ("count_pc", "count_all", "count_misses"),
    "premise": ("trick",),
    "concept": ("concept",),
}

_CONCEPT_QUESTIONS = (
    "What is a cache set index?",
    "How does increasing associativity affect conflict misses?",
    "What is the number of sets in a 64 KB 16-way cache with 64-byte blocks?",
    "Explain the difference between the tag and the offset bits.",
)


def _hex(value: int) -> str:
    return f"0x{value:x}"


# ----------------------------------------------------------------------
# oracle facts
# ----------------------------------------------------------------------
def session_facts(workloads: Sequence[str], policies: Sequence[str],
                  num_accesses: int, seed: int = 0) -> Dict[str, Any]:
    """Everything the oracle needs about one session's traces.

    Trace facts come straight from the generated columns; miss counts and
    rates from one stats-detail replay per (workload, policy).
    """
    from repro import SMALL_CONFIG, SimulationEngine, generate_trace

    block_bytes = SMALL_CONFIG.llc.block_bytes
    engine = SimulationEngine(config=SMALL_CONFIG, detail="stats")
    facts: Dict[str, Any] = {"workloads": {}, "policies": list(policies)}
    for workload in workloads:
        trace = generate_trace(workload, num_accesses, seed=seed)
        pcs, addresses = trace.columns()[:2]
        blocks = [address // block_bytes for address in addresses]
        pair_counts = Counter(zip(pcs, blocks))
        seen = set()
        first_touch = []
        for pc, block in zip(pcs, blocks):
            if block not in seen and pair_counts[(pc, block)] == 1:
                first_touch.append([_hex(pc), _hex(block)])
            seen.add(block)
        next_seen: Dict[int, int] = {}
        distances = []
        for position in range(len(blocks) - 1, -1, -1):
            following = next_seen.get(blocks[position])
            if following is not None:
                distances.append(following - position)
            next_seen[blocks[position]] = position
        distances.reverse()
        stats = {}
        for policy in policies:
            llc = engine.run(trace, policy).llc_stats
            stats[policy] = {"accesses": llc.accesses, "misses": llc.misses,
                             "miss_rate": llc.miss_rate}
        facts["workloads"][workload] = {
            "accesses": len(trace),
            "pc_counts": {_hex(pc): count
                          for pc, count in sorted(Counter(pcs).items())},
            "first_touch": first_touch,
            "mean_reuse": (sum(distances) / len(distances)
                           if distances else None),
            "stats": stats,
        }
    every_pc = {pc for info in facts["workloads"].values()
                for pc in info["pc_counts"]}
    facts["absent_pcs"] = [_hex(value) for value in range(0x7f0000, 0x7f0400, 4)
                           if _hex(value) not in every_pc]
    return facts


# ----------------------------------------------------------------------
# templates
# ----------------------------------------------------------------------
def _question(template: str, text: str, qtype: str, route: str,
              check: Optional[str] = None, expect: Any = None) -> Dict:
    return {"template": template, "text": text, "type": qtype,
            "route": route, "check": check, "expect": expect}


def _best_policies(facts: Dict, workload: str) -> List[str]:
    rates = {policy: cell["miss_rate"] for policy, cell
             in facts["workloads"][workload]["stats"].items()}
    lowest = min(rates.values())
    return sorted(policy for policy, rate in rates.items()
                  if math.isclose(rate, lowest, rel_tol=1e-12, abs_tol=0.0))


#: phrasings of the miss-count question; the default backend grounds the
#: second one for (mcf, lru), which the set-up probe uses so the dropped
#: qualifier shows in every run.
_MISS_COUNT_FORMS = ("How many misses for {policy} on {workload}?",
                     "How many misses does {workload} incur under {policy}?")
_MISS_COUNT_PROBE = ("mcf", "lru", 1)


def _count_misses(facts: Dict, workload: str, policy: str,
                  form: int) -> Dict:
    text = _MISS_COUNT_FORMS[form].format(policy=policy, workload=workload)
    return _question("count_misses", text, "count", "ranger", "equal",
                     facts["workloads"][workload]["stats"][policy]["misses"])


def _template(name: str, rng: random.Random, facts: Dict) -> Dict:
    workload = rng.choice(sorted(facts["workloads"]))
    policy = rng.choice(facts["policies"])
    info = facts["workloads"][workload]
    cell = info["stats"][policy]
    where = f"in {workload} under {policy}"
    if name == "miss_rate":
        if rng.random() < 0.5:
            return _question(name, f"What is the miss rate of {policy} on "
                             f"{workload}?", "miss_rate", "sieve", "float",
                             cell["miss_rate"])
        return _question(name, f"What is the hit rate of {policy} on "
                         f"{workload}?", "miss_rate", "sieve", "float",
                         1.0 - cell["miss_rate"])
    if name == "policy_comparison":
        phrase = rng.choice(("lowest miss rate", "highest hit rate"))
        return _question(name, f"Which policy has the {phrase} on "
                         f"{workload}?", "policy_comparison", "sieve",
                         "choice", _best_policies(facts, workload))
    if name == "hit_miss":
        pc, block = rng.choice(info["first_touch"])
        return _question(name, f"Does the access at PC {pc} to address "
                         f"{block} result in a cache hit or miss {where}?",
                         "hit_miss", "sieve", "equal", "Cache Miss")
    if name == "count_pc":
        pc = rng.choice(sorted(info["pc_counts"]))
        return _question(name, f"How many times does PC {pc} appear "
                         f"{where}?", "count", "ranger", "equal",
                         info["pc_counts"][pc])
    if name == "count_all":
        return _question(name, f"How many accesses does {workload} make "
                         f"under {policy}?", "count", "ranger", "equal",
                         info["accesses"])
    if name == "count_misses":
        return _count_misses(facts, workload, policy,
                             rng.randrange(len(_MISS_COUNT_FORMS)))
    if name == "arithmetic":
        return _question(name, f"What is the average reuse distance for "
                         f"{policy} on {workload}?", "arithmetic", "ranger",
                         "float", info["mean_reuse"])
    if name == "trick":
        pc = rng.choice(facts["absent_pcs"])
        if rng.random() < 0.5:
            return _question(name, f"What is the miss rate of PC {pc} "
                             f"{where}?", "miss_rate", "sieve", "premise")
        _pc, block = rng.choice(info["first_touch"])
        return _question(name, f"Does the access at PC {pc} to address "
                         f"{block} result in a cache hit or miss {where}?",
                         "hit_miss", "sieve", "premise")
    if name == "concept":
        return _question(name, rng.choice(_CONCEPT_QUESTIONS), "concept",
                         "embedding")
    if name == "code_generation":
        return _question(name, f"Write code to compute the miss rate of "
                         f"{policy} on {workload}", "code_generation",
                         "ranger")
    if name == "policy_analysis":
        other = rng.choice([candidate for candidate in facts["policies"]
                            if candidate != policy])
        return _question(name, f"Why does {policy} outperform {other} on "
                         f"{workload}?", "policy_analysis", "sieve")
    if name == "workload_analysis":
        return _question(name, f"Which workload has the highest miss rate "
                         f"under {policy}?", "workload_analysis", "sieve")
    if name == "semantic_analysis":
        pc = rng.choice(sorted(info["pc_counts"]))
        return _question(name, f"Why does PC {pc} miss so often in "
                         f"{workload}? Examine the assembly.",
                         "semantic_analysis", "sieve")
    if name == "pc_list":
        return _question(name, f"List all unique PCs in {workload} under "
                         f"{policy}", "pc_list", "ranger", "set",
                         sorted(info["pc_counts"]))
    raise ValueError(f"unknown question template {name!r}")


def _mix(workload: str):
    """``(categories, category -> template names)`` of a workload's mix."""
    if workload == "cold-ask":
        return COLD_ASK_CATEGORIES, _COLD_ASK_SOURCES
    sources = {category: (category,) for category in SERVED_CATEGORIES}
    sources["count"] = ("count_pc", "count_all", "count_misses")
    return SERVED_CATEGORIES, sources


def generate_questions(workload: str, seed: int, count: int,
                       facts: Dict) -> List[Dict]:
    """``count`` questions of ``workload``'s mix, fully determined by
    ``seed`` and the oracle facts.

    Categories rotate in a freshly shuffled order every cycle, so any
    window of questions keeps the mix's proportions.
    """
    categories, sources = _mix(workload)
    rng = random.Random(f"perfbench:{workload}:{seed}")
    questions: List[Dict] = []
    while len(questions) < count:
        order = list(categories)
        rng.shuffle(order)
        for category in order:
            question = _template(rng.choice(sources[category]), rng, facts)
            question["category"] = category
            questions.append(question)
    return questions[:count]


def category_probes(workload: str, seed: int, facts: Dict) -> List[Dict]:
    """One question per category of the mix (the untimed set-up asks)."""
    categories, sources = _mix(workload)
    rng = random.Random(f"perfbench:{workload}:{seed}:probes")
    probes = []
    for category in categories:
        if category == "count":
            question = _count_misses(facts, *_MISS_COUNT_PROBE)
        else:
            question = _template(rng.choice(sources[category]), rng, facts)
        question["category"] = category
        probes.append(question)
    return probes


# ----------------------------------------------------------------------
# the reply check
# ----------------------------------------------------------------------
def check_reply(question: Dict, reply: Optional[Dict],
                error: Optional[str] = None) -> Optional[str]:
    """Why ``reply`` fails ``question``, or ``None`` when it passes.

    ``reply`` is an ``AskResponse.to_dict()`` payload.  A reply fails when
    it is an error, when its question type or route differs from the
    template's, or when it claims ``grounded=True`` with a value the oracle
    contradicts (for premise questions: without rejecting the premise).
    """
    if error is not None or reply is None:
        return f"error: {error}"
    if reply.get("question_type") != question["type"]:
        return (f"question_type {reply.get('question_type')!r} != "
                f"{question['type']!r}")
    if reply.get("route") != question["route"]:
        return f"route {reply.get('route')!r} != {question['route']!r}"
    answer = reply.get("answer") or {}
    if not answer.get("grounded") or question["check"] is None:
        return None
    check, expect, value = question["check"], question["expect"], answer.get(
        "value")
    if check == "premise":
        ok = bool(answer.get("rejected_premise"))
    elif check == "float":
        ok = (isinstance(value, (int, float)) and expect is not None
              and math.isclose(value, expect, rel_tol=1e-9, abs_tol=1e-12))
    elif check == "choice":
        ok = value in expect
    elif check == "set":
        ok = isinstance(value, list) and sorted(value) == sorted(expect)
    else:
        ok = value == expect
    if ok:
        return None
    return f"grounded value {value!r} disagrees with oracle {expect!r}"


def unexpected(failures: Sequence[Dict]) -> List[Dict]:
    """The failures not explained by a documented defect."""
    return [failure for failure in failures
            if failure.get("template") not in KNOWN_DEFECTS]


# ----------------------------------------------------------------------
# simulated-statistics digest
# ----------------------------------------------------------------------
#: cell-table columns the digest covers (every simulated statistic).
DIGEST_COLUMNS = ("workload", "policy", "config", "detail", "num_accesses",
                  "seed", "miss_rate", "hit_rate", "ipc", "accesses", "hits",
                  "misses", "evictions", "instructions", "cycles")


def stats_digest(rows: Sequence[Dict]) -> str:
    """sha256 over the canonical JSON of experiment cell rows."""
    canonical = sorted(
        (json.dumps({column: row[column] for column in DIGEST_COLUMNS},
                    sort_keys=True) for row in rows))
    return hashlib.sha256("\n".join(canonical).encode("utf-8")).hexdigest()
