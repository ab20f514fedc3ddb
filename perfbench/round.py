"""One round of the ``cold-ask`` or ``experiment-grid`` workload.

Each round runs in a fresh interpreter, so its set-up (importing ``repro``
and an untimed first pass that absorbs first-use costs) is measured the
way a user pays it.  ``run.py`` starts the rounds; by hand::

    PYTHONPATH=src python3 perfbench/round.py ROUND.json

``ROUND.json`` names the workload, the round's inputs file (its ``work`` is
the round's fixed list of questions or grid passes), whether to trace, a
scratch directory and the output file.  The
output holds the round's timings, its checked operations, counters, peak
RSS and (when traced) the recorded spans.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import questions  # noqa: E402
import tracing  # noqa: E402


class Outcomes:
    """Checked operations of one round."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[Dict[str, Any]] = []
        self.digests: List[str] = []

    def fail(self, template: str, why: str) -> None:
        self.failures.append({"template": template, "why": why})

    def check(self, question: Dict, response, error: Optional[str]) -> None:
        self.attempted += 1
        reply = response.to_dict() if response is not None else None
        why = questions.check_reply(question, reply, error)
        if why is not None:
            self.fail(question["template"], f"{question['text']}: {why}")

    def to_dict(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failures": self.failures,
                "digests": sorted(set(self.digests))}


def _ask(session, question: Dict):
    """``(response, error, seconds)`` of one in-process ask."""
    started = time.perf_counter()
    try:
        response = session.ask_request(question["text"])
    except Exception as error:  # a failed op is counted, not fatal
        return None, repr(error), time.perf_counter() - started
    return response, None, time.perf_counter() - started


def cold_ask_round(spec: Dict, inputs: Dict,
                   tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """Fresh default sessions, each asked one question cold, then
    ``warm_asks`` aggregate questions warm."""
    from repro import CacheMind, SimulationCache

    def new_session():
        return CacheMind(num_accesses=inputs["accesses"],
                         simulation_cache=SimulationCache())

    outcomes = Outcomes()
    session = new_session()
    for probe in inputs["probes"]:
        outcomes.check(probe, *_ask(session, probe)[:2])
    setup_s = time.perf_counter() - STARTED

    pool = inputs["work"]
    # Warm asks are always aggregate questions: their cost does not depend
    # on which category the cold question came from.
    warm_pool = [question for question in inputs["probes"]
                 + [question for round_ in inputs["rounds"]
                    for question in round_]
                 if question["category"] == "aggregate"]
    cold: List[float] = []
    warm: List[float] = []
    counters = {"cache_hits": 0, "cache_misses": 0}
    for question in pool:
        if tracer is not None:
            tracer.enabled = True
        started = time.perf_counter()
        session = new_session()
        response, error, _seconds = _ask(session, question)
        cold.append(time.perf_counter() - started)
        outcomes.check(question, response, error)
        for _ in range(inputs["warm_asks"]):
            warm_question = warm_pool[len(warm) % len(warm_pool)]
            again, again_error, seconds = _ask(session, warm_question)
            warm.append(seconds)
            outcomes.check(warm_question, again, again_error)
        if tracer is not None:
            tracer.enabled = False
        stats = session.simulation_cache.stats()
        counters["cache_hits"] += stats["hits"]
        counters["cache_misses"] += stats["misses"]
        outcomes.digests.append(questions.stats_digest(
            session.run_experiment(session.experiment_spec()).rows()))
    return {"setup_s": setup_s, "op_s": cold, "warm_s": warm,
            "work": len(cold), "ops": len(cold), "counters": counters,
            **outcomes.to_dict()}


def grid_round(spec: Dict, inputs: Dict,
               tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """Import a ChampSim trace and run the stats grid cold into a fresh
    store, then ``warm_grids`` times warm from the same store, each time
    through a freshly opened store and a fresh cache."""
    from repro import ExperimentRunner, ExperimentSpec, SimulationCache
    from repro import TraceStore
    from repro.workloads import ingest

    grid = ExperimentSpec.from_dict(inputs["grid"])
    outcomes = Outcomes()

    def one_pass(store_dir: str, grid_spec) -> tuple:
        started = time.perf_counter()
        store = TraceStore(store_dir)
        ingest.import_trace_file(store, inputs["trace_file"],
                                 name=inputs["import_name"])
        cold_cache = SimulationCache(store=store)
        cold_result = ExperimentRunner(simulation_cache=cold_cache).run(
            grid_spec)
        cold_s = time.perf_counter() - started
        warm_s, warm_results, caches, opens = [], [], [cold_cache], 0
        for _ in range(inputs["warm_grids"]):
            started = time.perf_counter()
            warm_store = TraceStore(store_dir)
            warm_cache = SimulationCache(store=warm_store)
            warm_results.append(ExperimentRunner(
                simulation_cache=warm_cache).run(grid_spec))
            warm_s.append(time.perf_counter() - started)
            caches.append(warm_cache)
            opens += warm_store.record_opens
        return cold_s, warm_s, cold_result, warm_results, caches, opens

    # First-use costs (lazy imports, policy set-up) land in this untimed
    # pass over a short grid.
    first = ExperimentSpec.from_dict(dict(inputs["grid"],
                                          num_accesses=[200]))
    one_pass(os.path.join(spec["tmp"], "first"), first)
    setup_s = time.perf_counter() - STARTED

    cold: List[float] = []
    warm: List[float] = []
    cells = 0
    counters = {"cache_hits": 0, "cache_misses": 0, "record_opens": 0}
    for number in inputs["work"]:
        store_dir = os.path.join(spec["tmp"], f"store-{number}")
        if tracer is not None:
            tracer.enabled = True
        cold_s, warm_s, cold_result, warm_results, caches, opens = one_pass(
            store_dir, grid)
        if tracer is not None:
            tracer.enabled = False
        cold.append(cold_s)
        warm.extend(warm_s)
        cells += len(cold_result)
        for cache in caches:
            stats = cache.stats()
            counters["cache_hits"] += stats["hits"]
            counters["cache_misses"] += stats["misses"]
        counters["record_opens"] += opens
        outcomes.attempted += 1 + len(warm_results)
        rows = cold_result.rows()
        outcomes.digests.append(questions.stats_digest(
            [row for row in rows if row["workload"] != inputs["import_name"]]))
        for warm_result in warm_results:
            if warm_result.rows() != rows:
                outcomes.fail("warm_grid", "warm grid rows differ from the "
                                           "cold grid rows")
            elif warm_result.counters["simulations_run"]:
                outcomes.fail("warm_grid", "warm grid ran simulations")
        shutil.rmtree(store_dir, ignore_errors=True)
    return {"setup_s": setup_s, "op_s": cold, "warm_s": warm, "work": cells,
            "ops": len(cold), "counters": counters, **outcomes.to_dict()}


def main(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(spec["inputs"], encoding="utf-8") as handle:
        inputs = json.load(handle)
    tracer = tracing.install(tracing.Tracer()) if spec["traced"] else None
    run = cold_ask_round if spec["workload"] == "cold-ask" else grid_round
    result = run(spec, inputs, tracer)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["spans"] = tracer.spans if tracer is not None else []
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
