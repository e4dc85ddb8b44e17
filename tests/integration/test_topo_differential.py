"""Differential verification of the topology observatory.

The :class:`~repro.obs.topo.TopologyObserver` builds its link-state
database purely from the telemetry event stream; this suite pins the
three contracts that make the database trustworthy:

* **ground truth** -- at end of run the observed view equals the actual
  network/table state, for every example scenario, in both scalar and
  batched modes (``TopologyObserver.verify`` returns no mismatches);
* **time travel** -- reconstructing the end-of-run view from snapshot +
  deltas is byte-identical to the recorded live view;
* **byte stability** -- the ``convergence`` report section of two
  same-seed runs is identical, and scenarios *without* a ``topo`` key
  produce reports without the section (pre-existing reports stay
  byte-identical).
"""

import glob
import json
import os

import pytest

from repro.faults.chaos import run_scenario
from repro.faults.scenario import Scenario
from repro.obs import telemetry_session

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)

EXAMPLES = sorted(
    os.path.basename(p)
    for p in glob.glob(os.path.join(EXAMPLES_DIR, "chaos_*.json"))
)


def _load_with_topo(name):
    raw = json.load(open(os.path.join(EXAMPLES_DIR, name)))
    raw["topo"] = {"snapshot_every": 16}
    return Scenario.from_dict(raw)


def test_every_example_is_covered():
    # the glob above must keep tracking the example set as it grows
    assert "chaos_topo.json" in EXAMPLES
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("name", EXAMPLES)
@pytest.mark.parametrize("batching", [False, True])
def test_observed_view_matches_ground_truth(name, batching):
    scenario = _load_with_topo(name)
    with telemetry_session():
        report = run_scenario(scenario, seed=3, batching=batching)
    conv = report["convergence"]
    assert conv["mismatches"] == []
    assert conv["verified"] is True
    assert conv["deltas"] > 0


@pytest.mark.parametrize("name", EXAMPLES)
def test_time_travel_reconstruction_is_byte_identical(name):
    scenario = _load_with_topo(name)
    with telemetry_session():
        report = run_scenario(scenario, seed=5)
    observer = report.run.topo
    live = observer.live_view()
    replayed = observer.at(scenario.duration + 1.0)
    # full serialization, time stamp and derived health included
    assert replayed.to_json() == live.to_json()


def test_mid_run_reconstruction_round_trips_through_snapshots():
    scenario = _load_with_topo("chaos_smoke.json")
    with telemetry_session():
        report = run_scenario(scenario, seed=3)
    observer = report.run.topo
    assert len(observer.snapshots) > 1  # cadence actually exercised
    # every delta timestamp is a queryable instant; spot-check a spread
    times = observer._delta_times
    for t in (times[0], times[len(times) // 2], times[-1], 0.0):
        view = observer.at(t)
        assert isinstance(view.data, dict)
        # the view at any instant is valid JSON with the full shape
        assert set(view.data) == {
            "nodes", "links", "adjacencies", "fecs", "lsps", "frr",
            "faults", "attacks", "utilization",
        }


@pytest.mark.parametrize(
    "name", ["chaos_topo.json", "chaos_ldp_sessions.json", "chaos_frr.json"]
)
def test_convergence_section_is_byte_stable(name):
    scenario = _load_with_topo(name)
    with telemetry_session():
        first = run_scenario(scenario, seed=9)
    with telemetry_session():
        second = run_scenario(_load_with_topo(name), seed=9)
    assert (
        json.dumps(first["convergence"], sort_keys=True)
        == json.dumps(second["convergence"], sort_keys=True)
    )
    assert first.to_json() == second.to_json()


def test_reports_without_topo_key_are_untouched():
    scenario = Scenario.load(
        os.path.join(EXAMPLES_DIR, "chaos_smoke.json")
    )
    with telemetry_session() as tel:
        report = run_scenario(scenario, seed=3)
        assert tel.topo is None
    assert "convergence" not in report.data
    assert report.run.topo is None
    # the gated withdraw event must not leak into the events section
    assert "label-mapping-withdrawn" not in report.data.get("events", {})


def test_observer_not_armed_when_telemetry_disabled():
    scenario = _load_with_topo("chaos_smoke.json")
    with telemetry_session(enabled=False):
        report = run_scenario(scenario, seed=3)
    assert report.run.topo is None
    assert "convergence" not in report.data


def test_convergence_accounts_every_disruption():
    scenario = _load_with_topo("chaos_smoke.json")
    with telemetry_session():
        report = run_scenario(scenario, seed=3)
    conv = report["convergence"]
    applied = [f for f in report["faults"] if not f["skipped"]]
    injects = [d for d in conv["disruptions"] if d["phase"] == "inject"]
    assert len(injects) == len(applied)
    # scalar LDP reconverges on every detected change: each link fault
    # produces table transactions attributed to it
    for disruption in injects:
        if disruption["kind"] == "link-down":
            assert disruption["table_transactions"] > 0
            assert disruption["time_to_converge_s"] is not None
