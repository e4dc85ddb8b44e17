"""Differential equivalence: batched fast path vs the scalar oracle.

The batched data plane (per-node flow caches, see
``repro.mpls.fastpath``) must be *observably identical* to the scalar
per-packet path: same chaos report byte for byte, same flow-accounting
export, same final ILM/FTN tables.  Every example scenario -- chaos
with FRR switchovers, signaling storms, graceful restarts, hardware
scrubbing, flow alerting, span sampling -- runs twice under the same
seed, once per mode, and the artifacts are compared verbatim.

Any divergence here means the flow cache served a stale or
wrongly-rebuilt decision; the cache is a pure memoization layer and
has no license to change behavior.
"""

import io
import os

import pytest

from repro.faults.chaos import build_run, run_scenario
from repro.faults.scenario import Scenario
from repro.obs import telemetry_session
from repro.obs.flows import flows_to_jsonl

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)

# (scenario file, seed): ten seeded differential cases covering every
# invalidation source -- LDP withdraws, FRR switchover, restart
# flushes, scrub repairs -- plus the signaling-storm stress case
CASES = [
    ("chaos_smoke.json", 0),
    ("chaos_smoke.json", 13),
    ("chaos_frr.json", 1),
    ("chaos_frr.json", 23),
    ("chaos_graceful_restart.json", 2),
    ("chaos_hw_scrub.json", 3),
    ("chaos_ldp_sessions.json", 4),
    ("chaos_signaling_storm.json", 5),
    ("chaos_flow_alerts.json", 6),
    ("chaos_spans.json", 7),
    # adversarial suite: quarantine-driven invalidation (the cross-FEC
    # audit removes a poisoned ILM entry mid-run) plus forged traffic
    ("chaos_security.json", 7),
    ("chaos_security.json", 11),
    # topology observatory armed: the convergence ledger is derived
    # from the event stream, so it must match across modes too
    ("chaos_topo.json", 17),
    # centralized PCE armed: crash + partition failover, delegation
    # fallback and the readopt resync transaction all ride the same
    # scheduler, so the controller section must match across modes
    ("chaos_controller.json", 19),
    ("chaos_controller.json", 29),
]


def _run(path, seed, batching):
    """One ``repro chaos`` run; returns (report json, flow export,
    tables), the tables and export read from ``report.run``."""
    with telemetry_session():
        report = run_scenario(
            Scenario.load(path), seed=seed, batching=batching
        )
    run = report.run
    flows_export = None
    if run.flows is not None:
        buffer = io.StringIO()
        flows_to_jsonl(run.flows.all_records(), buffer)
        flows_export = buffer.getvalue()
    tables = {
        name: {
            "ilm": sorted(
                (label, repr(nhlfe)) for label, nhlfe in node.ilm
            ),
            "ftn": sorted(
                (repr(fec), repr(nhlfe)) for fec, nhlfe in node.ftn
            ),
        }
        for name, node in run.network.nodes.items()
    }
    if run.topo is not None:
        # the observed topology must match ground truth in both modes
        assert report["convergence"]["verified"] is True
    return report.to_json(), flows_export, tables


@pytest.mark.parametrize("name,seed", CASES)
def test_batched_report_is_byte_identical(name, seed):
    path = os.path.join(EXAMPLES_DIR, name)
    scalar_report, scalar_flows, scalar_tables = _run(path, seed, False)
    batched_report, batched_flows, batched_tables = _run(path, seed, True)
    assert batched_report == scalar_report
    assert batched_flows == scalar_flows
    assert batched_tables == scalar_tables


def test_batched_mode_actually_caches():
    """Guard against the trivial pass: the equivalence above must be
    exercised by real cache hits, not a cache that never engages."""
    path = os.path.join(EXAMPLES_DIR, "chaos_smoke.json")
    scenario = Scenario.load(path)
    with telemetry_session():
        run = build_run(scenario, seed=0)
        run.network.enable_batching()
        run.network.run(until=scenario.duration)
    hits = 0
    for node in run.network.nodes.values():
        if getattr(node, "flow_cache", None) is not None:
            hits += node.flow_cache.hits
        hits += getattr(node, "hw_memo_hits", 0)
    assert hits > 0


def test_batched_mode_caches_on_hardware_nodes():
    """The hardware scenario must exercise the hardware memo."""
    path = os.path.join(EXAMPLES_DIR, "chaos_hw_scrub.json")
    scenario = Scenario.load(path)
    with telemetry_session():
        run = build_run(scenario, seed=3)
        run.network.enable_batching()
        run.network.run(until=scenario.duration)
    hits = sum(
        getattr(node, "hw_memo_hits", 0)
        for node in run.network.nodes.values()
    )
    assert hits > 0
