"""BatchSimulator: every rollout must match the full-detail callback replay.

``SimulationEngine(detail="stats")`` runs through the batch's own
per-rollout method, so a stats engine run is no oracle for a stats batch
run.  The reference here is ``SimulationEngine(detail="full")``:
:meth:`~repro.sim.cache.Cache.access` plus the policy's callbacks, with its
own timing walk.  Every rollout — native decision-column kernel, generic
callback loop or full-detail capture — must reproduce its LLC counters and
timing floats exactly, and full-detail rollouts every column of its access
log.  These tests pin that contract across the policy x workload x mode x
detail matrix, plus the wiring that runs the batch (ExperimentRunner,
build_database, ParallelSimulator fallback) and the perf-report comparison
tooling that rides along.
"""

import dataclasses
import pickle

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.pipeline import SimulationCache
from repro.policies import available_policies, get_policy
from repro.sim.batch import (
    BatchSimulator,
    NATIVE_POLICIES,
    RolloutSpec,
    rollout_strategy,
    run_batch,
)
from repro.sim.config import SMALL_CONFIG, TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import ParallelSimulator, SimulationJob, planned_strategy
from repro.perf.harness import compare_reports
from repro.tracedb.database import build_database, make_entry
from repro.workloads.generator import generate_trace

NUM_ACCESSES = 600
WORKLOADS = ("astar", "lbm")

EXPERIMENT_SPEC = dict(workloads=list(WORKLOADS),
                       policies=["lru", "belady", "hawkeye"],
                       configs=["tiny"], details=["stats"],
                       num_accesses=[NUM_ACCESSES], seeds=[1])


def _trace(workload, seed=7):
    return generate_trace(workload, NUM_ACCESSES, seed)


def _reference(trace, spec):
    """The full-detail callback replay of ``spec``'s cell."""
    engine = SimulationEngine(config=spec.config, mode=spec.mode,
                              detail="full", max_records=spec.max_records)
    return engine.run(trace, get_policy(spec.policy))


def _assert_identical(batched, single):
    """Counters and timing always; the capture too at full detail."""
    assert batched.llc_stats.as_tuple() == single.llc_stats.as_tuple()
    assert batched.timing.instructions == single.timing.instructions
    assert batched.timing.base_cycles == single.timing.base_cycles
    assert batched.timing.stall_cycles == single.timing.stall_cycles
    assert batched.timing.stalls_by_level == single.timing.stalls_by_level
    assert (batched.timing.accesses_by_level
            == single.timing.accesses_by_level)
    assert batched.policy_name == single.policy_name
    assert batched.policy_description == single.policy_description
    assert set(batched.level_stats) == set(single.level_stats)
    for level in batched.level_stats:
        assert (batched.level_stats[level].as_tuple()
                == single.level_stats[level].as_tuple())
    if batched.detail == "stats":
        assert batched.log is None
        return
    assert batched.wrong_evictions == single.wrong_evictions
    assert pickle.dumps(batched.log) == pickle.dumps(single.log)


# ----------------------------------------------------------------------
# equivalence matrix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["llc_only", "hierarchy"])
@pytest.mark.parametrize("detail", ["stats", "full"])
def test_batch_matches_engine_for_every_policy(mode, detail):
    for workload in WORKLOADS:
        trace = _trace(workload)
        specs = [RolloutSpec(policy, TINY_CONFIG, mode=mode, detail=detail)
                 for policy in available_policies()]
        results = BatchSimulator(trace).run(specs)
        for spec, batched in zip(specs, results):
            _assert_identical(batched, _reference(trace, spec))


def test_mixed_specs_in_one_batch():
    """One batch mixing configs, details and policies stays per-cell exact."""
    trace = _trace("astar")
    specs = [
        RolloutSpec("lru", TINY_CONFIG),
        RolloutSpec("belady", SMALL_CONFIG),
        RolloutSpec("srrip", TINY_CONFIG, detail="full"),
        RolloutSpec("hawkeye", TINY_CONFIG),
        RolloutSpec("fifo", SMALL_CONFIG, detail="full", max_records=50),
    ]
    results = run_batch(trace, specs)
    assert len(results) == len(specs)
    for spec, batched in zip(specs, results):
        _assert_identical(batched, _reference(trace, spec))


# ----------------------------------------------------------------------
# strategy selection
# ----------------------------------------------------------------------
def test_rollout_strategy_native_coverage():
    for policy in NATIVE_POLICIES:
        assert (rollout_strategy(RolloutSpec(policy, TINY_CONFIG))
                == f"native:{policy}")
        # Hierarchy mode runs the same kernel over the filtered stream.
        assert (rollout_strategy(RolloutSpec(policy, TINY_CONFIG,
                                             mode="hierarchy"))
                == f"native:{policy}")
    # Other policies and every full-detail rollout use the callbacks.
    assert rollout_strategy(RolloutSpec("hawkeye", TINY_CONFIG)) == "engine"
    assert (rollout_strategy(RolloutSpec("lru", TINY_CONFIG, detail="full"))
            == "engine")


def test_non_pow2_geometry_runs_native_kernel():
    llc = TINY_CONFIG.llc
    odd_llc = dataclasses.replace(
        llc, size_bytes=3 * llc.num_ways * llc.block_bytes)
    odd_config = dataclasses.replace(TINY_CONFIG, name="tiny-odd",
                                     llc=odd_llc)
    assert odd_llc.num_sets == 3
    trace = _trace("lbm")
    for mode in ("llc_only", "hierarchy"):
        spec = RolloutSpec("lru", odd_config, mode=mode)
        assert rollout_strategy(spec) == "native:lru"
        batched, = BatchSimulator(trace).run([spec])
        _assert_identical(batched, _reference(trace, spec))


def test_run_records_strategies():
    trace = _trace("astar")
    simulator = BatchSimulator(trace)
    simulator.run([RolloutSpec("lru", TINY_CONFIG),
                   RolloutSpec("mlp", TINY_CONFIG)])
    assert simulator.strategies == ["native:lru", "engine"]


def test_rollout_spec_validation():
    with pytest.raises(ValueError):
        RolloutSpec("lru", TINY_CONFIG, mode="bogus")
    with pytest.raises(ValueError):
        RolloutSpec("lru", TINY_CONFIG, detail="bogus")


# ----------------------------------------------------------------------
# ExperimentRunner wiring
# ----------------------------------------------------------------------
@pytest.mark.parametrize("detail", ["stats", "full"])
def test_experiment_columns_match_per_cell_full_replay(detail):
    """Every serial miss runs through one batch per trace (singletons
    too), and each cell equals its own full-detail engine replay."""
    result = ExperimentRunner(simulation_cache=SimulationCache()).run(
        dict(EXPERIMENT_SPEC, details=[detail]))
    assert result.counters["batch_groups"] == len(WORKLOADS)
    assert result.counters["batch_cells"] == result.counters["simulations_run"]
    configs = {config.name: config for config in result.spec.configs}
    traces = SimulationCache()
    expected = []
    for job in result.spec.compile().cells:
        trace, description = traces.get_trace(job.workload, job.num_accesses,
                                              job.seed)
        reference = SimulationEngine(config=configs[job.config_name],
                                     mode=job.mode).run(trace, job.policy)
        if detail == "full":
            entry = make_entry(reference, workload_description=description)
            expected.append(ExperimentRunner._row_from_entry(job, entry))
        else:
            expected.append(ExperimentRunner._row_from_result(job, reference))
    assert result.rows() == expected
    singleton = ExperimentRunner(simulation_cache=SimulationCache()).run(
        dict(EXPERIMENT_SPEC, details=[detail], workloads=["astar"],
             policies=["lru"]))
    assert singleton.counters["batch_groups"] == 1
    assert singleton.rows() == expected[:1]


@pytest.mark.parametrize("detail", ["stats", "full"])
def test_experiment_batches_share_reuse_precompute(detail):
    """Oracle cells take their next-use arrays from the simulation cache,
    so later batches over the same trace reuse them."""
    cache = SimulationCache()
    spec = dict(EXPERIMENT_SPEC, details=[detail])
    ExperimentRunner(simulation_cache=cache).run(spec)
    assert cache.stats()["reuse"] == len(WORKLOADS)
    trace, _description = cache.get_trace("astar", NUM_ACCESSES, 1)
    shared = cache.reuse_for(trace, TINY_CONFIG.llc.block_bytes,
                             detail == "full")
    ExperimentRunner(simulation_cache=cache).run(
        dict(spec, configs=["small"], policies=["belady"]))
    assert cache.stats()["reuse"] == len(WORKLOADS)
    assert cache.reuse_for(trace, TINY_CONFIG.llc.block_bytes) is shared


def test_warm_store_rerun_simulates_zero_cells_after_batch(tmp_path):
    store_dir = str(tmp_path / "store")
    cold = ExperimentRunner(
        simulation_cache=SimulationCache(store=store_dir)).run(
            EXPERIMENT_SPEC)
    assert cold.counters["batch_cells"] > 0
    # A fresh memoiser models a brand-new process: the batch results were
    # installed through put_result, so the store alone warms the re-run.
    warm = ExperimentRunner(
        simulation_cache=SimulationCache(store=store_dir)).run(
            EXPERIMENT_SPEC)
    assert warm.counters["simulations_run"] == 0
    assert warm.counters["batch_cells"] == 0
    assert warm.counters["store_hits"] == cold.counters["simulations_run"]
    assert warm.columns == cold.columns


# ----------------------------------------------------------------------
# database build wiring
# ----------------------------------------------------------------------
def test_build_database_serial_batches_policies_identically():
    database = build_database(workloads=("astar",),
                              policies=("lru", "belady", "srrip"),
                              num_accesses=NUM_ACCESSES, config=TINY_CONFIG)
    trace = generate_trace("astar", NUM_ACCESSES, seed=0)
    engine = SimulationEngine(config=TINY_CONFIG, mode="llc_only")
    for policy in ("lru", "belady", "srrip"):
        entry = database.entry(f"astar_evictions_{policy}")
        reference = engine.run(trace, get_policy(policy))
        assert (entry.result.llc_stats.as_tuple()
                == reference.llc_stats.as_tuple())
        assert (entry.result.timing.stall_cycles
                == reference.timing.stall_cycles)
        assert pickle.dumps(entry.result.log) == pickle.dumps(reference.log)


# ----------------------------------------------------------------------
# shared belady reuse precompute through SimulationCache
# ----------------------------------------------------------------------
def test_reuse_for_memoises_by_fingerprint():
    cache = SimulationCache()
    trace = _trace("astar")
    first = cache.reuse_for(trace, 64)
    assert cache.reuse_for(trace, 64) is first
    assert first.prev_use is None
    # Full upgrade replaces the stats-only entry but keeps the same arrays'
    # content; later full requests reuse the upgraded entry.
    full = cache.reuse_for(trace, 64, True)
    assert full.prev_use is not None
    assert full.next_use == first.next_use
    assert cache.reuse_for(trace, 64, True) is full
    assert cache.reuse_for(trace, 64) is full
    assert cache.stats()["reuse"] == 1
    # A different block size is a different precompute.
    assert cache.reuse_for(trace, 32) is not full
    assert cache.stats()["reuse"] == 2


def test_get_or_run_installs_reuse_cache_on_engine():
    cache = SimulationCache()
    trace = _trace("lbm")
    engine = SimulationEngine(config=TINY_CONFIG, mode="llc_only",
                              detail="stats")
    result = cache.get_or_run(engine, trace, "belady")
    assert engine.reuse_cache is not None
    assert cache.stats()["reuse"] == 1
    reference = SimulationEngine(config=TINY_CONFIG, mode="llc_only",
                                 detail="stats").run(trace, "belady")
    assert result.llc_stats.as_tuple() == reference.llc_stats.as_tuple()


# ----------------------------------------------------------------------
# ParallelSimulator single-core fallback
# ----------------------------------------------------------------------
def test_auto_executor_degrades_to_serial_on_single_core(monkeypatch):
    import repro.sim.parallel as parallel_module
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    simulator = ParallelSimulator(jobs=4, executor="auto",
                                  config=TINY_CONFIG, detail="stats")
    jobs = [SimulationJob(workload=workload, policy="lru",
                          num_accesses=NUM_ACCESSES)
            for workload in WORKLOADS]
    results = simulator.run_results(jobs)
    assert len(results) == len(jobs)
    assert simulator.last_executor == "serial"
    assert simulator.last_strategy == {"executor": "serial",
                                       "reason": "single-core host"}


def test_explicit_executor_still_honoured_on_single_core(monkeypatch):
    import repro.sim.parallel as parallel_module
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    simulator = ParallelSimulator(jobs=2, executor="thread",
                                  config=TINY_CONFIG, detail="stats")
    results = simulator.run_results(
        [SimulationJob(workload="astar", policy="lru",
                       num_accesses=NUM_ACCESSES),
         SimulationJob(workload="lbm", policy="lru",
                       num_accesses=NUM_ACCESSES)])
    assert len(results) == 2
    assert simulator.last_executor == "thread"
    assert simulator.last_strategy["reason"] == "parallel"


def test_serial_strategy_reasons():
    simulator = ParallelSimulator(jobs=1, executor="auto",
                                  config=TINY_CONFIG, detail="stats")
    simulator.run_results([SimulationJob(workload="astar", policy="lru",
                                         num_accesses=NUM_ACCESSES)])
    assert simulator.last_strategy == {"executor": "serial",
                                       "reason": "jobs=1"}
    requested = ParallelSimulator(jobs=4, executor="serial",
                                  config=TINY_CONFIG, detail="stats")
    requested.run_results([SimulationJob(workload="astar", policy="lru",
                                         num_accesses=NUM_ACCESSES)])
    assert requested.last_strategy["reason"] == "requested"


def test_planned_strategy(monkeypatch):
    import repro.sim.parallel as parallel_module
    assert planned_strategy(jobs=1) == "serial"
    assert planned_strategy(executor="serial") == "serial"
    assert planned_strategy(jobs=4, executor="thread") == "thread"
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 1)
    assert planned_strategy(jobs=4, executor="auto") == "serial"
    monkeypatch.setattr(parallel_module.os, "cpu_count", lambda: 8)
    assert planned_strategy(jobs=4, executor="auto") == "process"
    with pytest.raises(ValueError):
        planned_strategy(executor="bogus")


# ----------------------------------------------------------------------
# perf report comparison
# ----------------------------------------------------------------------
def test_compare_reports_prints_deltas():
    old = {"revision": "aaaa111", "params": {"num_accesses": 4000},
           "timings": [{"name": "replay_full/astar/lru", "seconds": 0.2},
                       {"name": "store/verify", "seconds": 0.1}]}
    new = {"revision": "bbbb222", "params": {"num_accesses": 4000},
           "timings": [{"name": "replay_full/astar/lru", "seconds": 0.1},
                       {"name": "batch_rollout/batch_9cells",
                        "seconds": 0.05}]}
    rendered = compare_reports(old, new)
    assert "aaaa111 -> bbbb222" in rendered
    assert "replay_full/astar/lru" in rendered
    assert "x0.50" in rendered
    assert "only in old: store/verify" in rendered
    assert "only in new: batch_rollout/batch_9cells" in rendered
