"""The CacheMind benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold-ask --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cold-ask``: fresh default ``CacheMind`` sessions, each asked one
  seeded question cold and then ``WARM_ASKS`` aggregate questions warm;
* ``served-mix``: a fresh ``python -m repro serve`` per round answers a
  fixed number of seeded questions from all categories, sent closed-loop
  by one client thread per core, one connection each;
* ``experiment-grid``: a seeded ChampSim-format trace is imported into a
  fresh ``TraceStore`` and a stats-detail grid runs cold into that store,
  then ``WARM_GRIDS`` times warm from it, each through a fresh cache.

A run is ``ROUNDS`` rounds, each in a fresh process (the server, for
``served-mix``), so set-up is measured several times and reported as a
median.  ``--seconds`` sets a fixed amount of work (questions or grid
passes) sized to take about that long, split over the rounds, so the same
seed and ``--seconds`` always attempt the same operations.  Every answer is
checked against an oracle built before any round starts, and every
simulated statistic against the digest pinned in ``expected.json``.
The last line of standard output is the JSON result; the lines before it
print each metric with its unit and sample count.  With ``--trace 1`` the
first and last rounds run with span wrappers installed and the result
holds the per-layer metrics instead.
"""

import argparse
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cold-ask", "served-mix", "experiment-grid")
ROUNDS = 3
#: requests each fresh server answers: this many per second of the run,
#: split over the rounds (a fixed count for a given ``--seconds``).
SERVED_REQUESTS_PER_SECOND = 70
#: completions per window of the served-mix throughput samples.
RATE_WINDOW = 50
#: seconds one cold-ask category cycle (one cold session per category,
#: each followed by its warm asks) takes on a two-vCPU host; a run asks
#: ``--seconds`` / this many whole cycles.
COLD_CYCLE_S = 6.5
#: warm questions asked on each cold session after its cold question.
WARM_ASKS = 4
#: warm re-runs of the grid after each cold one: a warm grid is short, so
#: more samples keep its median from following single bursts of contention.
WARM_GRIDS = 3
#: seconds one grid pass (cold, then ``WARM_GRIDS`` warm) takes on a
#: two-vCPU host; a run makes ``--seconds`` / this many passes.
GRID_PASS_S = 4.0
#: trace length of the experiment grid's workloads: long enough that the
#: store's fixed per-record cost (one fsync'd write each) is a small share
#: of a cold pass, so disk latency does not swamp simulation time.
GRID_ACCESSES = 8000
#: synthetic generator behind the imported ChampSim trace, and its name.
IMPORT_SOURCE = "milc"
IMPORT_NAME = "champsim_import"
#: a run that has not finished by then is abandoned (the contract is 180 s).
TIME_LIMIT_S = 170.0


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.at = time.monotonic() + seconds

    def remaining(self) -> float:
        left = self.at - time.monotonic()
        if left <= 0:
            raise TimeoutError("the run exceeded its time limit")
        return left


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _split(items: List, parts: int) -> List[List]:
    """``items`` cut into ``parts`` contiguous runs of near-equal length."""
    return [items[len(items) * index // parts:
                  len(items) * (index + 1) // parts]
            for index in range(parts)]


def build_inputs(workload: str, seed: int, seconds: int, tmp: Path,
                 expected: Dict) -> Dict[str, Any]:
    """Everything the rounds need, derived from ``seed`` and ``seconds``."""
    import questions
    from repro import ExperimentSpec
    from repro.tracedb.database import DEFAULT_POLICIES, DEFAULT_WORKLOADS

    inputs: Dict[str, Any] = {"digest": expected["digests"][workload]}
    if workload == "experiment-grid":
        from repro import generate_trace
        from repro.workloads.ingest import write_champsim_trace

        trace_file = tmp / "import.champsim"
        write_champsim_trace(generate_trace(IMPORT_SOURCE, GRID_ACCESSES,
                                            seed=seed), str(trace_file))
        grid = ExperimentSpec(
            workloads=list(DEFAULT_WORKLOADS) + [IMPORT_NAME],
            policies=["lru", "srrip", "mlp", "ship"],
            configs=["small", "tiny"], details=["stats"],
            num_accesses=[GRID_ACCESSES])
        passes = max(ROUNDS, round(seconds / GRID_PASS_S))
        inputs.update(trace_file=str(trace_file), import_name=IMPORT_NAME,
                      grid=grid.to_dict(), warm_grids=WARM_GRIDS,
                      rounds=_split(list(range(passes)), ROUNDS))
        return inputs
    accesses = questions.SESSION_ACCESSES
    facts = questions.session_facts(DEFAULT_WORKLOADS, DEFAULT_POLICIES,
                                    accesses)
    inputs.update(accesses=accesses,
                  probes=questions.category_probes(workload, seed, facts))
    if workload == "cold-ask":
        # Whole category cycles keep every run's mix the same.
        cycles = max(1, round(seconds / COLD_CYCLE_S))
        pool = questions.generate_questions(
            workload, seed, cycles * len(questions.COLD_ASK_CATEGORIES),
            facts)
        inputs.update(rounds=_split(pool, ROUNDS), warm_asks=WARM_ASKS)
    else:
        per_round = SERVED_REQUESTS_PER_SECOND * seconds // ROUNDS
        pool = questions.generate_questions(workload, seed,
                                            per_round * ROUNDS, facts)
        inputs["rounds"] = _split(pool, ROUNDS)
        inputs["matrix"] = ExperimentSpec(
            workloads=DEFAULT_WORKLOADS, policies=DEFAULT_POLICIES,
            configs=["small"], num_accesses=[accesses]).to_dict()
    return inputs


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
def process_round(workload: str, index: int, traced: bool, inputs: Dict,
                  tmp: Path,
                  deadline: Deadline) -> Dict[str, Any]:
    """A cold-ask or experiment-grid round in a fresh interpreter."""
    round_inputs = dict(inputs, work=inputs["rounds"][index])
    scratch = tmp / f"round-{index}"
    scratch.mkdir()
    files = {name: str(scratch / f"{name}.json")
             for name in ("inputs", "spec", "out")}
    with open(files["inputs"], "w", encoding="utf-8") as handle:
        json.dump(round_inputs, handle)
    with open(files["spec"], "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "inputs": files["inputs"],
                   "traced": traced,
                   "tmp": str(scratch), "out": files["out"]}, handle)
    subprocess.run([sys.executable, str(HERE / "round.py"), files["spec"]],
                   env=_env(), stdout=subprocess.DEVNULL, check=True,
                   timeout=deadline.remaining())
    with open(files["out"], encoding="utf-8") as handle:
        return json.load(handle)


def _read_lines(stream, lines: "queue.Queue") -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def served_round(index: int, traced: bool, inputs: Dict, tmp: Path,
                 deadline: Deadline) -> Dict[str, Any]:
    """One fresh server answering this round's fixed request list."""
    import questions
    from repro import RemoteClient, RemoteError

    spans_file = tmp / f"spans-{index}.json"
    serve_args = ["serve", "--accesses", str(inputs["accesses"]),
                  "--host", "127.0.0.1", "--port", "0"]
    command = ([sys.executable, str(HERE / "serve_launcher.py"),
                str(spans_file)] if traced
               else [sys.executable, "-m", "repro"]) + serve_args
    started = time.perf_counter()
    server = subprocess.Popen(command, env=_env(), stdout=subprocess.PIPE,
                              text=True)
    lines: "queue.Queue" = queue.Queue()
    reader = threading.Thread(target=_read_lines,
                              args=(server.stdout, lines), daemon=True)
    reader.start()
    clients: List[Any] = []
    try:
        port = None
        while port is None:
            line = lines.get(timeout=deadline.remaining())
            if line is None:
                raise RuntimeError("the server exited before it was ready")
            if line.startswith("serving CacheMind on "):
                port = int(line.split()[3].rsplit(":", 1)[1])

        def client(seed: int):
            made = RemoteClient("127.0.0.1", port, retry_seed=seed)
            clients.append(made)
            return made

        failures: List[Dict] = []
        attempted = 0

        def record(question, response, error):
            nonlocal attempted
            attempted += 1
            reply = response.to_dict() if response is not None else None
            why = questions.check_reply(question, reply, error)
            if why is not None:
                failures.append({"template": question["template"],
                                 "why": f"{question['text']}: {why}"})

        def ask(connection, question, request_id):
            try:
                return connection.ask(question["text"],
                                      request_id=request_id), None
            except (RemoteError, OSError, ValueError) as error:
                return None, repr(error)

        control = client(-1)
        for number, probe in enumerate(inputs["probes"]):
            record(probe, *ask(control, probe, f"p{index}-{number}"))
        setup_s = time.perf_counter() - started

        work = inputs["work"]
        before = control.stats()["simulation_cache"]
        threads = max(1, min(2, os.cpu_count() or 1))
        results: List[Optional[tuple]] = [None] * len(work)

        def drive(thread: int) -> None:
            connection = client(thread)
            for number in range(thread, len(work), threads):
                sent = time.perf_counter()
                response, error = ask(connection, work[number],
                                      f"m{index}-{number}")
                done = time.perf_counter()
                results[number] = (done - sent, response, error,
                                   done - begun)

        workers = [threading.Thread(target=drive, args=(thread,))
                   for thread in range(threads)]
        begun = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=deadline.remaining())
            if worker.is_alive():
                raise TimeoutError("a client thread did not finish")
        after = control.stats()["simulation_cache"]

        seen = set()
        latencies, repeats, wait_ms = [], [], 0.0
        for question, (seconds, response, error, _done) in zip(work,
                                                                results):
            record(question, response, error)
            latencies.append(seconds)
            if question["text"] in seen:
                repeats.append(seconds)
            seen.add(question["text"])
            if response is not None:
                wait_ms += (seconds - response.timings["total"]) * 1000.0
        digest = questions.stats_digest(
            control.experiment(inputs["matrix"]).rows())
        peak = _peak_rss_mb(server.pid)
    finally:
        for made in clients:
            made.close()
        if server.poll() is None:
            server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        reader.join(timeout=5)
    spans: List[list] = []
    if traced:
        with open(spans_file, encoding="utf-8") as handle:
            spans = [span for span in json.load(handle)
                     if str(span[5] or "").startswith("m")]
    return {"setup_s": setup_s, "op_s": latencies, "warm_s": repeats,
            "work": len(work), "ops": len(work),
            "rates": window_rates([result[3] for result in results]),
            "attempted": attempted, "failures": failures,
            "digests": [digest], "peak_rss_mb": peak, "spans": spans,
            "counters": {
                "cache_hits": after["hits"] - before["hits"],
                "cache_misses": after["misses"] - before["misses"],
                "requests": len(work), "wait_ms": wait_ms,
                "retries": sum(made.retries_used for made in clients)}}


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def window_rates(done: List[float]) -> List[float]:
    """Completions per second in consecutive windows of ``RATE_WINDOW``
    completions; ``done`` holds completion times from the phase start."""
    ordered = sorted(done)
    rates = []
    for end in range(RATE_WINDOW, len(ordered) + 1, RATE_WINDOW):
        start = ordered[end - RATE_WINDOW - 1] if end > RATE_WINDOW else 0.0
        rates.append(RATE_WINDOW / (ordered[end - 1] - start))
    return rates


def end_to_end(workload: str, rounds: List[Dict]) -> Dict[str, tuple]:
    """``{metric: (value, unit, samples)}`` of the untraced measurements.

    Every figure is a median, so a burst of contention on the shared host
    moves it less than it would move a mean.  ``ops_per_s`` is the median
    of per-window completion rates on ``served-mix`` (closed loop), and
    the work of the median operation per second elsewhere.
    ``op_p99_ms`` is printed but not in ``BENCHMARK.json``: on a shared
    two-vCPU host its ten-run spread (0.28 and 0.57 of the median on
    served-mix) exceeds any bound the benchmark may set.
    """
    op_s = [value for round_ in rounds for value in round_["op_s"]]
    warm_s = [value for round_ in rounds for value in round_["warm_s"]]
    if workload == "served-mix":
        rates = [rate for round_ in rounds for rate in round_["rates"]]
        throughput = (statistics.median(rates), "1/s", len(rates))
    else:
        per_op = (sum(round_["work"] for round_ in rounds)
                  / sum(round_["ops"] for round_ in rounds))
        throughput = (per_op / statistics.median(op_s), "1/s", len(op_s))
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s",
                    len(rounds)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB", len(rounds)),
        "op_p50_ms": (statistics.median(op_s) * 1000.0, "ms", len(op_s)),
        "op_p99_ms": (_percentile(op_s, 0.99) * 1000.0, "ms", len(op_s)),
        "ops_per_s": throughput,
        "warm_ms": (statistics.median(warm_s) * 1000.0, "ms", len(warm_s)),
    }


def tally(rounds: List[Dict], pinned_digest: str) -> tuple:
    """``(attempted, failed, correct)`` over all rounds.

    A simulated-statistics digest other than the pinned one fails every
    operation of the run.  ``correct`` is false on such a mismatch or on
    any failure that no documented defect explains.
    """
    import questions

    attempted = sum(round_["attempted"] for round_ in rounds)
    failures = [failure for round_ in rounds
                for failure in round_["failures"]]
    digest_ok = all(digest == pinned_digest for round_ in rounds
                    for digest in round_["digests"])
    failed = len(failures) if digest_ok else attempted
    return (attempted, failed,
            digest_ok and not questions.unexpected(failures))


#: workload-specific names printed beside the end-to-end figures.
NAMED = {
    "cold-ask": (("cold_ask_s", "op_p50_ms", 1e-3, "s"),),
    "served-mix": (("served_qps", "ops_per_s", 1.0, "1/s"),
                   ("ask_p50_ms", "op_p50_ms", 1.0, "ms"),
                   ("ask_p99_ms", "op_p99_ms", 1.0, "ms")),
    "experiment-grid": (("grid_cells_per_s", "ops_per_s", 1.0, "1/s"),
                        ("grid_warm_s", "warm_ms", 1e-3, "s")),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import questions
    import tracing

    deadline = Deadline(TIME_LIMIT_S)
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=scratch_root))
    try:
        inputs = build_inputs(args.workload, args.seed, args.seconds, tmp,
                              expected)
        rounds = []
        for index in range(ROUNDS):
            traced = bool(args.trace) and index != 1
            if args.workload == "served-mix":
                round_inputs = dict(inputs, work=inputs["rounds"][index])
                result = served_round(index, traced, round_inputs, tmp,
                                      deadline)
            else:
                result = process_round(args.workload, index, traced,
                                       inputs, tmp, deadline)
            result["traced"] = traced
            rounds.append(result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    attempted, failed, correct = tally(rounds, inputs["digest"])
    failures = [failure for round_ in rounds
                for failure in round_["failures"]]
    digests = sorted({digest for round_ in rounds
                      for digest in round_["digests"]})

    print(f"{args.workload} seed {args.seed}: {ROUNDS} rounds, "
          f"{sum(len(r['op_s']) for r in rounds)} timed operations")
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics = tracing.layer_metrics(traced_rounds)
        untraced = [v for r in rounds if not r["traced"] for v in r["op_s"]]
        traced_ops = [v for r in traced_rounds for v in r["op_s"]]
        metrics["trace.overhead_ms"] = (statistics.median(traced_ops)
                                        - statistics.median(untraced)) * 1e3
        units = {entry["name"]: entry["unit"]
                 for entry in declared("per_layer")}
        reported = {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}
        for name, entry in reported.items():
            print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    else:
        figures = end_to_end(args.workload, rounds)
        gated = {entry["name"] for entry in declared("end_to_end")}
        reported = {}
        for name, (value, unit, samples) in figures.items():
            if name in gated:
                reported[name] = {"value": value, "unit": unit}
            print(f"  {name:14s} {value:12.4f} {unit:5s} (n={samples})"
                  + ("" if name in gated else " [reported, not gated]"))
        for name, source, scale, unit in NAMED[args.workload]:
            print(f"  [{name} = {figures[source][0] * scale:.4f} {unit}]")
    print(f"  failed {failed} / attempted {attempted} "
          f"(failed_ratio {failed / attempted:.4f})")
    for failure in failures[:5]:
        known = questions.KNOWN_DEFECTS.get(failure["template"])
        print(f"    {'known defect' if known else 'FAILED'}: "
              f"{failure['why']}" + (f" [{known}]" if known else ""))
    if digests != [inputs["digest"]]:
        print(f"  simulated statistics digest {digests} != pinned "
              f"{inputs['digest']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


def declared(kind: str) -> List[Dict[str, Any]]:
    """The ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[kind]


if __name__ == "__main__":
    sys.exit(main())
