"""Pinned replay digests: every simulated statistic, cell by cell.

One SHA-256 per (policy, workload, mode, config, detail) cell over the LLC
counters, the timing floats and the per-level accounting; full-detail cells
also cover the pickled access log.  The digests were taken from the
per-policy callback replay and must not move when the replay code is
restructured.  Per-level dicts are digested as sorted items, so only their
contents are pinned, not their key order.

Regenerate (only for an intended change of simulated numbers) with
``PYTHONPATH=src python tests/test_replay_pins.py``.
"""

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.policies import available_policies
from repro.sim.config import SMALL_CONFIG, TINY_CONFIG
from repro.sim.engine import SimulationEngine
from repro.workloads.generator import generate_trace

NUM_ACCESSES = 600
WORKLOADS = ("astar", "lbm", "mcf")
MODES = ("llc_only", "hierarchy")
DETAILS = ("stats", "full")
DIGEST_FILE = Path(__file__).with_name("replay_digests.json")


def _odd_config():
    """TINY with a 3-set LLC: exercises the non-power-of-two geometry."""
    llc = TINY_CONFIG.llc
    odd_llc = dataclasses.replace(
        llc, size_bytes=3 * llc.num_ways * llc.block_bytes)
    assert odd_llc.num_sets == 3
    return dataclasses.replace(TINY_CONFIG, name="tiny-odd", llc=odd_llc)


CONFIGS = (TINY_CONFIG, SMALL_CONFIG, _odd_config())


def replay_digest(result) -> str:
    timing = result.timing
    payload = repr((
        result.llc_stats.as_tuple(),
        repr((timing.instructions, timing.base_cycles, timing.stall_cycles)),
        sorted(timing.accesses_by_level.items()),
        sorted(timing.stalls_by_level.items()),
    )).encode()
    if result.log is not None:
        payload += pickle.dumps(result.log, protocol=4)
    return hashlib.sha256(payload).hexdigest()


def cell_digests(workload: str, mode: str) -> dict:
    trace = generate_trace(workload, NUM_ACCESSES, seed=7)
    digests = {}
    for config in CONFIGS:
        for detail in DETAILS:
            engine = SimulationEngine(config=config, mode=mode, detail=detail)
            for policy in available_policies():
                key = f"{policy}/{workload}/{mode}/{config.name}/{detail}"
                digests[key] = replay_digest(engine.run(trace, policy))
    return digests


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_replay_digests_are_pinned(workload, mode):
    pinned = json.loads(DIGEST_FILE.read_text())
    got = cell_digests(workload, mode)
    mismatched = sorted(key for key, digest in got.items()
                        if pinned.get(key) != digest)
    assert not mismatched, mismatched


if __name__ == "__main__":
    digests = {}
    for workload in WORKLOADS:
        for mode in MODES:
            digests.update(cell_digests(workload, mode))
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
