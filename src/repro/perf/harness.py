"""Benchmark harness timing the simulation core's hot paths.

The suite times, on the bundled workloads:

* trace generation,
* full-detail vs stats-only replay (per policy, with derived speedups),
* per-access table builds from a full-detail access log
  (``materialise``: the one-off cost an entry pays on its first read),
* cold, parallel and warm (memoised) trace-database builds,
* cold-vs-warm *session* starts through the persistent on-disk store
  (``store_warm_start``: a fresh memoiser loading every entry from disk
  instead of simulating),
* index-served store maintenance (``store_index``: ``info``/``gc`` answered
  from the append-only object index — zero record opens on a warm store,
  scaling with what changed — against the full per-object header scan
  (``reindex``) they replace),
* the serving path (``serving``: batch-ask throughput and p50/p95 request
  latency through a warm :class:`~repro.serve.service.CacheMindService`),
* the declarative experiment path (``experiment``: cold grid execution in
  cells/sec over a 2-config sweep with duplicate cells, the dedup ratio,
  and the warm store-backed re-run speedup with zero simulations),
* trace ingestion (``ingestion``: parse throughput in accesses/sec for the
  text/CSV and ChampSim-like binary trace formats, round-tripped through
  the ``repro.workloads.ingest`` writers),
* resilience plumbing (``resilience``: the per-call cost of the inactive
  :func:`repro.faults.fault_point` hook — which rides on every store
  read/write, pool job and socket round trip, so it must stay in the
  nanoseconds — and deep ``store verify`` throughput in records/sec),
* the analytics engine (``analytics``: rows/sec for one representative
  filter + group-aggregate + top-k :class:`repro.analytics.Query` through
  the stdlib and sqlite backends at small and large row counts, with the
  sqlite spill cost timed separately and a stdlib-vs-sqlite identity
  check),

and emits a JSON report (``BENCH_<rev>.json``) whose schema is stable across
revisions, so consecutive reports are directly comparable.  ``--quick``
shrinks trace lengths and repeat counts for CI smoke runs; the numbers are
noisier but the schema is identical.

Timings use ``time.perf_counter`` and report the best of ``repeats`` runs
(the standard way to suppress scheduler noise in micro-benchmarks); all
individual repeats are kept in the report for variance inspection.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.batch import NATIVE_POLICIES, BatchSimulator, RolloutSpec
from repro.sim.config import HierarchyConfig, SMALL_CONFIG
from repro.sim.engine import SimulationEngine
from repro.sim.parallel import default_jobs, planned_strategy
from repro.workloads.generator import generate_trace

#: Bump when the report layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default measurement matrix: bundled workloads x a policy spread covering
#: the LRU fast path, a generic (stateful) policy and the future-aware oracle.
BENCH_WORKLOADS = ("astar", "lbm", "mcf")
BENCH_POLICIES = ("lru", "srrip", "belady")


@dataclass
class BenchTiming:
    """One named measurement: best-of-``repeats`` wall-clock seconds."""

    name: str
    seconds: float
    repeats: List[float] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)


def current_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def default_report_path(revision: Optional[str] = None) -> str:
    """``BENCH_<rev>.json`` in the current working directory."""
    return f"BENCH_{revision or current_revision()}.json"


def _time(function: Callable[[], object], repeats: int) -> List[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return times


def _measure(name: str, function: Callable[[], object], repeats: int,
             **meta) -> BenchTiming:
    times = _time(function, repeats)
    return BenchTiming(name=name, seconds=min(times), repeats=times,
                       meta=dict(meta))


def run_perf_suite(quick: bool = False,
                   workloads: Sequence[str] = BENCH_WORKLOADS,
                   policies: Sequence[str] = BENCH_POLICIES,
                   config: HierarchyConfig = SMALL_CONFIG,
                   mode: str = "llc_only",
                   num_accesses: Optional[int] = None,
                   repeats: Optional[int] = None,
                   jobs: Optional[int] = None,
                   seed: int = 0,
                   store_dir: Optional[str] = None) -> Dict[str, object]:
    """Run the benchmark suite and return the report dictionary.

    ``store_dir`` names the persistent-store directory used by the
    warm-start section (kept afterwards, e.g. for CI artifact upload); by
    default a temporary directory is used and removed.  The cold-save
    measurement **wipes and repopulates** that directory each repeat, so
    never point it at a store whose contents you want to keep.
    """
    # Imported here, not at module top: the pipeline imports the sim layer,
    # and the perf package must stay importable from anywhere below it.
    from repro.core.pipeline import CacheMind, SimulationCache
    from repro.tracedb.store import TraceStore

    if num_accesses is None:
        num_accesses = 4000 if quick else 20000
    if repeats is None:
        repeats = 1 if quick else 3
    if jobs is None:
        jobs = default_jobs()

    timings: List[BenchTiming] = []
    traces = {}

    # --- trace generation ------------------------------------------------
    for workload in workloads:
        timing = _measure(
            f"trace_generation/{workload}",
            lambda workload=workload: generate_trace(workload, num_accesses, seed),
            repeats, workload=workload, num_accesses=num_accesses)
        timings.append(timing)
        traces[workload] = generate_trace(workload, num_accesses, seed)

    # --- full vs stats-only replay ---------------------------------------
    replay_speedups: Dict[str, float] = {}
    for workload in workloads:
        trace = traces[workload]
        for policy in policies:
            full = _measure(
                f"replay_full/{workload}/{policy}",
                lambda trace=trace, policy=policy: SimulationEngine(
                    config=config, mode=mode).run(trace, policy),
                repeats, workload=workload, policy=policy, detail="full")
            stats = _measure(
                f"replay_stats/{workload}/{policy}",
                lambda trace=trace, policy=policy: SimulationEngine(
                    config=config, mode=mode, detail="stats").run(trace, policy),
                repeats, workload=workload, policy=policy, detail="stats")
            log = SimulationEngine(config=config, mode=mode).run(
                trace, policy).log
            materialise = _measure(
                f"materialise/{workload}/{policy}", log.to_table, repeats,
                workload=workload, policy=policy, rows=len(log))
            timings.extend([full, stats, materialise])
            if stats.seconds > 0:
                replay_speedups[f"{workload}/{policy}"] = (
                    full.seconds / stats.seconds)

    # --- database builds: cold serial, parallel, warm (memoised) ---------
    session_kwargs = dict(workloads=list(workloads), policies=list(policies),
                          num_accesses=num_accesses, config=config, mode=mode,
                          seed=seed)

    def cold_build():
        cache = SimulationCache()
        CacheMind(simulation_cache=cache, **session_kwargs)._build_database()

    cold = _measure("database_build/cold_serial", cold_build, repeats,
                    pairs=len(workloads) * len(policies))
    timings.append(cold)

    parallel = None
    if jobs > 1:
        def parallel_build():
            cache = SimulationCache()
            session = CacheMind(simulation_cache=cache, jobs=jobs,
                                **session_kwargs)
            session._build_database()
            return session

        # One untimed warm-up first: process pools pay a one-off interpreter
        # spawn cost that would otherwise be attributed to the build.
        parallel_times = _time(parallel_build, repeats + 1)[1:]
        parallel = BenchTiming(name=f"database_build/parallel_jobs{jobs}",
                               seconds=min(parallel_times),
                               repeats=parallel_times,
                               meta={"jobs": jobs})
        timings.append(parallel)

    warm_cache = SimulationCache()
    CacheMind(simulation_cache=warm_cache, **session_kwargs)._build_database()
    warm = _measure(
        "database_build/warm_memoised",
        lambda: CacheMind(simulation_cache=warm_cache,
                          **session_kwargs)._build_database(),
        repeats, cache_stats=dict(warm_cache.stats()))
    timings.append(warm)

    # --- persistent store: cold save, then warm cross-process-style start
    cleanup_store = store_dir is None
    store_path = (store_dir if store_dir is not None
                  else tempfile.mkdtemp(prefix="cachemind-bench-store-"))

    def store_populate():
        TraceStore(store_path).clear()
        CacheMind(simulation_cache=SimulationCache(store=store_path),
                  **session_kwargs)._build_database()

    populate = _measure("store/cold_build_and_save", store_populate, repeats,
                        store_dir=store_path)
    timings.append(populate)

    warm_store_stats: Dict[str, int] = {}

    def store_warm_build():
        # A fresh SimulationCache per run models a brand-new process: the
        # only warmth is the on-disk store.
        cache = SimulationCache(store=store_path)
        CacheMind(simulation_cache=cache, **session_kwargs)._build_database()
        warm_store_stats.update(cache.stats())

    store_warm = _measure("database_build/store_warm", store_warm_build,
                          repeats, store_dir=store_path)
    store_warm.meta["cache_stats"] = dict(warm_store_stats)
    timings.append(store_warm)
    store_info = TraceStore(store_path).info()

    # --- resilience: store verify throughput, fault-point overhead --------
    # Verify runs while the store is still populated from the warm-start
    # section, so the records/sec number reflects real record sizes.
    from repro.faults import fault_point

    verify_report: Dict[str, object] = {}

    def store_verify():
        verify_report.update(TraceStore(store_path).verify())

    verify_timing = _measure("store/verify", store_verify, repeats,
                             store_dir=store_path)
    timings.append(verify_timing)

    # --- store_index: index-served maintenance vs full header scans ------
    # Pad the store with extra small records so info/gc answer over a
    # corpus visibly larger than the warm-start handful, then compare
    # the index-served paths (zero record opens on a warm store — they
    # scale with what *changed*) against a full reindex scan (one header
    # read per object — the O(records) baseline they replace).
    seed_store = TraceStore(store_path)
    index_pad_records = 200 if quick else 1000
    for pad in range(index_pad_records):
        seed_store.save("result", ("bench-index-pad", pad), {"pad": pad})
    index_total_records = len(seed_store)

    info_probe: Dict[str, int] = {}

    def store_info_indexed():
        # A fresh handle per run models a new maintenance process whose
        # only warmth is the on-disk index.
        probe = TraceStore(store_path)
        probe.info()
        info_probe["record_opens"] = probe.record_opens

    info_timing = _measure("store/info_indexed", store_info_indexed,
                           repeats, records=index_total_records)
    info_timing.meta["record_opens"] = info_probe.get("record_opens")
    timings.append(info_timing)

    gc_probe: Dict[str, int] = {}

    def store_gc_indexed():
        probe = TraceStore(store_path)
        probe.gc()
        gc_probe["record_opens"] = probe.record_opens

    gc_timing = _measure("store/gc_indexed", store_gc_indexed, repeats,
                         records=index_total_records)
    gc_timing.meta["record_opens"] = gc_probe.get("record_opens")
    timings.append(gc_timing)

    def store_reindex_scan():
        TraceStore(store_path).reindex()

    reindex_timing = _measure("store/reindex_full_scan", store_reindex_scan,
                              repeats, records=index_total_records)
    timings.append(reindex_timing)

    store_index_section = {
        "records": index_total_records,
        "info_seconds": info_timing.seconds,
        "info_record_opens": info_probe.get("record_opens"),
        "gc_seconds": gc_timing.seconds,
        "gc_record_opens": gc_probe.get("record_opens"),
        "reindex_seconds": reindex_timing.seconds,
        # How much cheaper answering from the index is than the header
        # scan it replaces (the old info/gc cost model).
        "info_speedup_vs_scan": (reindex_timing.seconds / info_timing.seconds
                                 if info_timing.seconds > 0 else None),
        "index_served": info_probe.get("record_opens") == 0,
    }

    if cleanup_store:
        shutil.rmtree(store_path, ignore_errors=True)

    noop_calls = 20000 if quick else 200000

    def fault_point_noop():
        for _ in range(noop_calls):
            fault_point("store.read")

    noop_timing = _measure("faults/fault_point_noop", fault_point_noop,
                           repeats, calls=noop_calls)
    timings.append(noop_timing)
    fault_point_ns = (noop_timing.seconds / noop_calls * 1e9
                      if noop_calls else None)
    verify_rate = (verify_report.get("checked", 0) / verify_timing.seconds
                   if verify_timing.seconds > 0 else None)
    resilience_section = {
        "fault_point_calls": noop_calls,
        "fault_point_ns_per_call": fault_point_ns,
        "verify_seconds": verify_timing.seconds,
        "verify_records": verify_report.get("checked"),
        "verify_records_per_second": verify_rate,
        "verify_clean": verify_report.get("clean"),
    }

    # --- serving: batch-ask throughput and latency percentiles -----------
    # In-process service (no sockets: CI sandboxes and the numbers should
    # measure the serving path, not loopback TCP).  The question mix
    # repeats each (workload, policy) pair, so the batch also exercises
    # plan-level simulation dedup; the session is warmed first so latency
    # measures steady-state serving, not the one-off database build.
    from repro.serve.service import CacheMindService

    service = CacheMindService(session=CacheMind(
        simulation_cache=SimulationCache(), **session_kwargs))
    service.warm_up()
    # Tables are built on first read (timed above as ``materialise``);
    # build them here too, so the batch keeps measuring steady-state
    # serving rather than those one-off builds.
    for entry in service.session.database.entries.values():
        entry.data_frame
    questions = []
    for workload in workloads:
        for policy in policies:
            questions.append(f"What is the miss rate of {policy} "
                             f"on {workload}?")
            questions.append(f"How many accesses are there in {workload} "
                             f"under {policy}?")
        questions.append(f"Which policy has the lowest miss rate "
                         f"on {workload}?")
    serving_timing = _measure(
        "serving/batch_ask",
        lambda: service.ask_batch(questions),
        repeats, questions=len(questions))
    service_stats = service.stats()
    serving_timing.meta["latency_ms"] = dict(service_stats["latency_ms"])
    timings.append(serving_timing)
    serving_qps = (len(questions) / serving_timing.seconds
                   if serving_timing.seconds > 0 else None)
    serving = {
        "questions_per_batch": len(questions),
        "batch_seconds": serving_timing.seconds,
        "throughput_qps": serving_qps,
        "latency_ms": dict(service_stats["latency_ms"]),
        "requests": service_stats["requests"],
        "errors": service_stats["errors"],
    }
    service.close()

    # --- experiment sweeps: grid compile+execute, dedup, warm re-runs -----
    # A 2-config grid (the bench config plus a doubled-LLC variant) with a
    # duplicated workload, so the measurement also exercises the dedup
    # merge; cold populates a store, warm re-runs against it (the
    # cross-process experiment story: zero simulations).
    from repro.core.experiment import ExperimentRunner, ExperimentSpec

    experiment_spec = ExperimentSpec(
        workloads=tuple(workloads) + (workloads[0],),
        policies=list(policies),
        configs=(config, config.scaled_llc(2 * config.llc.size_bytes,
                                           name=f"{config.name}-llc2x")),
        mode=mode, num_accesses=(num_accesses,), seeds=(seed,),
        baseline_policy=policies[0])
    experiment_store = tempfile.mkdtemp(prefix="cachemind-bench-exp-")
    cold_counters: Dict[str, int] = {}
    warm_counters: Dict[str, int] = {}

    def experiment_cold():
        TraceStore(experiment_store).clear()
        runner = ExperimentRunner(
            simulation_cache=SimulationCache(store=experiment_store))
        cold_counters.update(runner.run(experiment_spec).counters)

    experiment_cold_timing = _measure(
        "experiment/cold_grid", experiment_cold, repeats,
        store_dir=experiment_store)
    experiment_cold_timing.meta["counters"] = dict(cold_counters)
    timings.append(experiment_cold_timing)

    def experiment_warm():
        # A fresh memoiser per run models a brand-new process; the only
        # warmth is the store the cold run populated.
        runner = ExperimentRunner(
            simulation_cache=SimulationCache(store=experiment_store))
        warm_counters.update(runner.run(experiment_spec).counters)

    experiment_warm_timing = _measure(
        "experiment/warm_grid", experiment_warm, repeats,
        store_dir=experiment_store)
    experiment_warm_timing.meta["counters"] = dict(warm_counters)
    timings.append(experiment_warm_timing)
    shutil.rmtree(experiment_store, ignore_errors=True)

    experiment_cells_per_sec = (
        cold_counters.get("unique_jobs", 0) / experiment_cold_timing.seconds
        if experiment_cold_timing.seconds > 0 else None)
    experiment_section = {
        "planned_cells": cold_counters.get("planned_cells", 0),
        "unique_jobs": cold_counters.get("unique_jobs", 0),
        "duplicate_jobs": cold_counters.get("duplicate_jobs", 0),
        "dedup_ratio": (cold_counters.get("duplicate_jobs", 0)
                        / cold_counters["planned_cells"]
                        if cold_counters.get("planned_cells") else None),
        "cold_seconds": experiment_cold_timing.seconds,
        "warm_seconds": experiment_warm_timing.seconds,
        "cells_per_second": experiment_cells_per_sec,
        "warm_speedup": (experiment_cold_timing.seconds
                         / experiment_warm_timing.seconds
                         if experiment_warm_timing.seconds > 0 else None),
        "warm_zero_simulations": warm_counters.get("simulations_run") == 0,
    }

    # --- batch rollouts: one trace pass, many lockstep cells --------------
    # Grid sizes 1/4/9/16 over (native policy x LLC-scaled config) cells
    # sharing one trace, each measured twice: per-cell single replay vs the
    # lockstep BatchSimulator.  Results are checked identical before the
    # timed runs, so the speedup is for byte-equal work.
    batch_trace = traces[workloads[0]]
    batch_configs = [config]
    for scale in (2, 4, 8):
        batch_configs.append(config.scaled_llc(
            scale * config.llc.size_bytes, name=f"{config.name}-llc{scale}x"))
    batch_cells = [(policy, batch_config) for policy in NATIVE_POLICIES
                   for batch_config in batch_configs]
    batch_sizes: List[Dict[str, object]] = []
    batch_speedup_9 = None
    for grid in (1, 4, 9, 16):
        cells = batch_cells[:grid]
        rollouts = [RolloutSpec(policy, batch_config)
                    for policy, batch_config in cells]

        def run_single(cells=cells):
            return [SimulationEngine(config=batch_config, mode="llc_only",
                                     detail="stats").run(batch_trace, policy)
                    for policy, batch_config in cells]

        def run_batched(rollouts=rollouts):
            return BatchSimulator(batch_trace).run(rollouts)

        identical = all(
            single.llc_stats.as_tuple() == batched.llc_stats.as_tuple()
            and single.timing.stall_cycles == batched.timing.stall_cycles
            for single, batched in zip(run_single(), run_batched()))
        single_timing = _measure(f"batch_rollout/single_{grid}cells",
                                 run_single, repeats, cells=grid)
        batched_timing = _measure(f"batch_rollout/batch_{grid}cells",
                                  run_batched, repeats, cells=grid,
                                  identical=identical)
        timings.extend([single_timing, batched_timing])
        speedup = (single_timing.seconds / batched_timing.seconds
                   if batched_timing.seconds > 0 else None)
        if grid == 9:
            batch_speedup_9 = speedup
        batch_sizes.append({
            "cells": grid,
            "single_seconds": single_timing.seconds,
            "batch_seconds": batched_timing.seconds,
            "speedup": speedup,
            "single_cells_per_second": (grid / single_timing.seconds
                                        if single_timing.seconds > 0
                                        else None),
            "batch_cells_per_second": (grid / batched_timing.seconds
                                       if batched_timing.seconds > 0
                                       else None),
            "identical": identical,
        })
    batch_section = {
        "workload": workloads[0],
        "accesses": len(batch_trace),
        "detail": "stats",
        "policies": list(NATIVE_POLICIES),
        "configs": [batch_config.name for batch_config in batch_configs],
        "sizes": batch_sizes,
        "speedup_at_9_cells": batch_speedup_9,
        "all_identical": all(size["identical"] for size in batch_sizes),
    }

    # --- trace ingestion: parse throughput for both on-disk formats ------
    # The first bench workload's trace is written out in both formats and
    # parsed back, so the accesses/sec numbers cover the exact columnar
    # append paths `trace import` runs.
    from repro.workloads.ingest import (
        parse_champsim_trace,
        parse_text_trace,
        write_champsim_trace,
        write_text_trace,
    )

    ingest_dir = tempfile.mkdtemp(prefix="cachemind-bench-ingest-")
    ingest_trace = traces[workloads[0]]
    text_path = write_text_trace(
        ingest_trace, os.path.join(ingest_dir, "bench.csv"))
    champsim_path = write_champsim_trace(
        ingest_trace, os.path.join(ingest_dir, "bench.champsim"))
    ingest_text_timing = _measure(
        "ingest/parse_text", lambda: parse_text_trace(text_path),
        repeats, accesses=len(ingest_trace),
        file_bytes=os.path.getsize(text_path))
    ingest_champsim_timing = _measure(
        "ingest/parse_champsim", lambda: parse_champsim_trace(champsim_path),
        repeats, accesses=len(ingest_trace),
        file_bytes=os.path.getsize(champsim_path))
    timings.extend([ingest_text_timing, ingest_champsim_timing])
    ingest_text_rate = (len(ingest_trace) / ingest_text_timing.seconds
                        if ingest_text_timing.seconds > 0 else None)
    ingest_champsim_rate = (len(ingest_trace)
                            / ingest_champsim_timing.seconds
                            if ingest_champsim_timing.seconds > 0 else None)
    ingestion_section = {
        "workload": workloads[0],
        "accesses": len(ingest_trace),
        "text_seconds": ingest_text_timing.seconds,
        "text_file_bytes": os.path.getsize(text_path),
        "text_accesses_per_second": ingest_text_rate,
        "champsim_seconds": ingest_champsim_timing.seconds,
        "champsim_file_bytes": os.path.getsize(champsim_path),
        "champsim_accesses_per_second": ingest_champsim_rate,
    }
    shutil.rmtree(ingest_dir, ignore_errors=True)

    # --- analytics: declarative query engine throughput ------------------
    # One representative filter + group-aggregate + top-k query runs over a
    # synthetic trace-shaped table at two row counts, through both backends.
    # rows/sec = input rows / best execution time (sqlite spill timed apart,
    # since registration is a one-off cost per table).
    from repro.analytics import (
        Aggregate,
        Filter,
        OrderBy,
        Query,
        SqliteBackend,
        StdlibBackend,
    )
    from repro.tracedb.table import Table

    def _analytics_table(rows: int) -> Table:
        return Table.from_columns({
            "pc": [(i * 7919) % 997 for i in range(rows)],
            "set_id": [i % 64 for i in range(rows)],
            "is_miss": [1 if (i * 31) % 97 < 37 else 0 for i in range(rows)],
            "latency": [float((i * 13) % 451) / 10.0 for i in range(rows)],
            "policy": [("lru", "belady", "srrip")[i % 3] for i in range(rows)],
        })

    analytics_query = Query(
        table="t",
        filters=(Filter("latency", "gt", 5.0),),
        group_by=("set_id",),
        aggregates=(
            Aggregate("count", alias="n"),
            Aggregate("mean", "latency"),
            Aggregate("percentile", "latency", alias="p95_latency", q=0.95),
        ),
        order_by=(OrderBy("n", True),),
        limit=8,
    )
    analytics_small_rows, analytics_large_rows = (
        (1_000, 10_000) if quick else (5_000, 50_000))
    analytics_sizes: List[Dict[str, object]] = []
    analytics_rates: Dict[str, Optional[float]] = {}
    for size_label, analytics_rows in (("small", analytics_small_rows),
                                       ("large", analytics_large_rows)):
        analytics_table = _analytics_table(analytics_rows)
        stdlib_store = StdlibBackend()
        stdlib_store.register_table("t", analytics_table)
        stdlib_timing = _measure(
            f"analytics/stdlib_{size_label}",
            lambda store=stdlib_store: store.execute(analytics_query),
            repeats, rows=analytics_rows)
        sqlite_store = SqliteBackend()
        spill_timing = _measure(
            f"analytics/sqlite_spill_{size_label}",
            lambda store=sqlite_store, table=analytics_table:
                store.register_table("t", table),
            repeats, rows=analytics_rows)
        sqlite_timing = _measure(
            f"analytics/sqlite_{size_label}",
            lambda store=sqlite_store: store.execute(analytics_query),
            repeats, rows=analytics_rows)
        identical = (stdlib_store.execute(analytics_query).to_dict()
                     == sqlite_store.execute(analytics_query).to_dict())
        sqlite_store.close()
        timings.extend([stdlib_timing, spill_timing, sqlite_timing])
        stdlib_rate = (analytics_rows / stdlib_timing.seconds
                       if stdlib_timing.seconds > 0 else None)
        sqlite_rate = (analytics_rows / sqlite_timing.seconds
                       if sqlite_timing.seconds > 0 else None)
        analytics_rates[size_label] = stdlib_rate
        analytics_rates[f"{size_label}_sqlite"] = sqlite_rate
        analytics_sizes.append({
            "label": size_label,
            "rows": analytics_rows,
            "stdlib_seconds": stdlib_timing.seconds,
            "stdlib_rows_per_second": stdlib_rate,
            "sqlite_spill_seconds": spill_timing.seconds,
            "sqlite_seconds": sqlite_timing.seconds,
            "sqlite_rows_per_second": sqlite_rate,
            "identical": identical,
        })
    analytics_section = {
        "query": analytics_query.to_dict(),
        "sizes": analytics_sizes,
        "all_identical": all(size["identical"] for size in analytics_sizes),
    }

    # --- derived summary -------------------------------------------------
    speedup_values = sorted(replay_speedups.values())
    derived: Dict[str, object] = {
        "stats_replay_speedup": replay_speedups,
        "stats_replay_speedup_min": speedup_values[0] if speedup_values else None,
        "stats_replay_speedup_median": (
            speedup_values[len(speedup_values) // 2] if speedup_values else None),
        "warm_build_speedup": (cold.seconds / warm.seconds
                               if warm.seconds > 0 else None),
        "store_warm_speedup": (cold.seconds / store_warm.seconds
                               if store_warm.seconds > 0 else None),
        "serving_qps": serving_qps,
        "serving_p50_ms": serving["latency_ms"]["p50"],
        "serving_p95_ms": serving["latency_ms"]["p95"],
        "experiment_cells_per_sec": experiment_cells_per_sec,
        "experiment_dedup_ratio": experiment_section["dedup_ratio"],
        "experiment_warm_speedup": experiment_section["warm_speedup"],
        "batch_rollout_speedup_9cells": batch_speedup_9,
        "ingest_text_accesses_per_s": ingest_text_rate,
        "ingest_champsim_accesses_per_s": ingest_champsim_rate,
        "fault_point_ns_per_call": fault_point_ns,
        "store_verify_records_per_s": verify_rate,
        "store_info_speedup_vs_scan":
            store_index_section["info_speedup_vs_scan"],
        "store_index_served": store_index_section["index_served"],
        "analytics_stdlib_rows_per_s": analytics_rates.get("large"),
        "analytics_sqlite_rows_per_s": analytics_rates.get("large_sqlite"),
    }
    if parallel is not None:
        derived["parallel_build_speedup"] = (
            cold.seconds / parallel.seconds if parallel.seconds > 0 else None)

    store_warm_start = {
        "cold_seconds": cold.seconds,
        "cold_build_and_save_seconds": populate.seconds,
        "warm_seconds": store_warm.seconds,
        "speedup": derived["store_warm_speedup"],
        "store_dir": store_path if not cleanup_store else None,
        "store_records": store_info["records"],
        "store_bytes": store_info["total_bytes"],
        "warm_cache_stats": dict(warm_store_stats),
        "zero_simulations": warm_store_stats.get("misses") == 0,
    }

    return {
        "schema": SCHEMA_VERSION,
        "revision": current_revision(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "parallel_strategy": planned_strategy(jobs),
        "quick": quick,
        "params": {
            "workloads": list(workloads),
            "policies": list(policies),
            "config": config.name,
            "mode": mode,
            "num_accesses": num_accesses,
            "repeats": repeats,
            "jobs": jobs,
            "seed": seed,
        },
        "timings": [asdict(timing) for timing in timings],
        "derived": derived,
        "store_warm_start": store_warm_start,
        "store_index": store_index_section,
        "serving": serving,
        "experiment": experiment_section,
        "batch_rollout": batch_section,
        "ingestion": ingestion_section,
        "resilience": resilience_section,
        "analytics": analytics_section,
    }


def write_report(report: Dict[str, object],
                 path: Optional[str] = None) -> str:
    """Write the report as JSON; returns the path written."""
    if path is None:
        path = default_report_path(str(report.get("revision") or "unknown"))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_report(path: str) -> Dict[str, object]:
    """Read a previously written ``BENCH_<rev>.json`` report."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare_reports(old: Dict[str, object],
                    new: Dict[str, object]) -> str:
    """Per-timing delta table between two reports (old -> new).

    Timings are matched by name; the ratio is new/old seconds, so values
    below 1.0 are speedups.  Measurements present in only one report are
    listed separately, making schema drift visible instead of silent.
    """
    old_timings = {timing["name"]: timing["seconds"]
                   for timing in old.get("timings", [])}
    new_timings = {timing["name"]: timing["seconds"]
                   for timing in new.get("timings", [])}
    lines = [f"perf delta {old.get('revision', '?')} -> "
             f"{new.get('revision', '?')} "
             f"(old {old.get('params', {}).get('num_accesses')} vs "
             f"new {new.get('params', {}).get('num_accesses')} accesses, "
             f"ratio < 1.0 is faster)"]
    for name, new_seconds in new_timings.items():
        old_seconds = old_timings.get(name)
        if old_seconds is None:
            continue
        ratio = new_seconds / old_seconds if old_seconds > 0 else float("inf")
        lines.append(f"  {name:<42} {old_seconds * 1000:9.2f} -> "
                     f"{new_seconds * 1000:9.2f} ms  x{ratio:.2f}")
    removed = sorted(set(old_timings) - set(new_timings))
    added = sorted(set(new_timings) - set(old_timings))
    if removed:
        lines.append("  only in old: " + ", ".join(removed))
    if added:
        lines.append("  only in new: " + ", ".join(added))
    return "\n".join(lines)


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of one report (printed by the CLI)."""
    lines = [f"perf suite @ {report['revision']} "
             f"(python {report['python']}, {report['params']['config']} config, "
             f"{report['params']['num_accesses']} accesses, "
             f"repeats={report['params']['repeats']})"]
    for timing in report["timings"]:
        lines.append(f"  {timing['name']:<42} {timing['seconds'] * 1000:9.2f} ms")
    derived = report["derived"]
    if derived.get("stats_replay_speedup_min") is not None:
        lines.append(
            f"  stats-only replay speedup: "
            f"min {derived['stats_replay_speedup_min']:.1f}x, "
            f"median {derived['stats_replay_speedup_median']:.1f}x")
    if derived.get("parallel_build_speedup") is not None:
        lines.append(
            f"  parallel build speedup over cold serial: "
            f"{derived['parallel_build_speedup']:.2f}x "
            f"({report['params']['jobs']} jobs)")
    if derived.get("warm_build_speedup") is not None:
        lines.append(
            f"  warm (memoised) build speedup: "
            f"{derived['warm_build_speedup']:.0f}x")
    store_section = report.get("store_warm_start")
    if store_section and store_section.get("speedup") is not None:
        lines.append(
            f"  store warm-start speedup over cold build: "
            f"{store_section['speedup']:.1f}x "
            f"({store_section['store_records']} records, "
            f"{'zero simulations' if store_section['zero_simulations'] else 'RE-SIMULATED'})")
    index_section = report.get("store_index")
    if index_section and index_section.get("info_speedup_vs_scan") is not None:
        lines.append(
            f"  store index: info {index_section['info_speedup_vs_scan']:.1f}x "
            f"cheaper than a full header scan at "
            f"{index_section['records']} records "
            f"({'zero record opens' if index_section.get('index_served') else 'FELL BACK TO HEADER SCAN'})")
    serving_section = report.get("serving")
    if serving_section and serving_section.get("throughput_qps") is not None:
        latency = serving_section["latency_ms"]
        lines.append(
            f"  serving: {serving_section['throughput_qps']:.0f} questions/s "
            f"({serving_section['questions_per_batch']} per batch), "
            f"latency p50 {latency['p50']:.2f} ms / "
            f"p95 {latency['p95']:.2f} ms")
    experiment_section = report.get("experiment")
    if experiment_section and experiment_section.get(
            "cells_per_second") is not None:
        lines.append(
            f"  experiment: {experiment_section['cells_per_second']:.1f} "
            f"cells/s cold ({experiment_section['planned_cells']} cells -> "
            f"{experiment_section['unique_jobs']} unique jobs, "
            f"dedup ratio {experiment_section['dedup_ratio']:.2f}), "
            f"warm re-run {experiment_section['warm_speedup']:.1f}x "
            f"({'zero simulations' if experiment_section['warm_zero_simulations'] else 'RE-SIMULATED'})")
    batch_section = report.get("batch_rollout")
    if batch_section and batch_section.get("speedup_at_9_cells") is not None:
        lines.append(
            f"  batch rollout: {batch_section['speedup_at_9_cells']:.2f}x "
            f"over per-cell replay at 9 stats cells "
            f"({'identical' if batch_section.get('all_identical') else 'DIVERGED'}, "
            f"workload {batch_section['workload']})")
    ingestion_section = report.get("ingestion")
    if ingestion_section and ingestion_section.get(
            "text_accesses_per_second") is not None:
        lines.append(
            f"  ingestion: text {ingestion_section['text_accesses_per_second']:,.0f} "
            f"accesses/s, champsim "
            f"{ingestion_section['champsim_accesses_per_second']:,.0f} "
            f"accesses/s ({ingestion_section['accesses']} accesses, "
            f"workload {ingestion_section['workload']})")
    resilience_section = report.get("resilience")
    if resilience_section and resilience_section.get(
            "fault_point_ns_per_call") is not None:
        verify_rate = resilience_section.get("verify_records_per_second")
        lines.append(
            f"  resilience: fault_point no-op "
            f"{resilience_section['fault_point_ns_per_call']:.0f} ns/call, "
            f"store verify "
            + (f"{verify_rate:,.0f} records/s " if verify_rate else "")
            + f"({'clean' if resilience_section.get('verify_clean') else 'UNCLEAN'})")
    analytics_section = report.get("analytics")
    if analytics_section and analytics_section.get("sizes"):
        largest = analytics_section["sizes"][-1]
        lines.append(
            f"  analytics: stdlib {largest['stdlib_rows_per_second']:,.0f} "
            f"rows/s, sqlite {largest['sqlite_rows_per_second']:,.0f} rows/s "
            f"at {largest['rows']} rows "
            f"({'identical' if analytics_section.get('all_identical') else 'DIVERGED'})")
    return "\n".join(lines)
