"""The benchmark's catalogue beyond ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root lists the workloads and why
each was chosen, and every metric with its unit, direction and bound.
This module adds what that file has no place for: the name each
end-to-end metric goes by on each workload, and which end-to-end metric
each per-layer metric should move, on which workload, so that later
changes can cite the prediction before they claim a gain.
"""

from __future__ import annotations

#: Workload -> generic metric -> (name used in the issue tracker and
#: reports, unit).  ``run.py`` prints each workload's metrics under
#: these names.
NAMED = {
    "rtl": {
        "throughput_per_s": ("rtl_cycles_per_s", "simulated cycles/host s"),
        "op_p50_ms": ("rtl_txn_p50_ms", "host ms/operation"),
        "op_p90_ms": ("rtl_txn_p90_ms", "host ms/operation"),
    },
    "forward": {
        "throughput_per_s": ("packets_per_s", "delivered packets/host s"),
        "op_p50_ms": ("slice_p50_ms", "host ms/simulated slice"),
        "op_p90_ms": ("slice_p90_ms", "host ms/simulated slice"),
    },
    "batched": {
        "throughput_per_s": ("packets_per_s", "delivered packets/host s"),
        "op_p50_ms": ("slice_p50_ms", "host ms/simulated slice"),
        "op_p90_ms": ("slice_p90_ms", "host ms/simulated slice"),
    },
    "chaos": {
        "throughput_per_s": ("chaos_runs_per_s", "example runs/host s"),
        "op_p50_ms": ("chaos_run_p50_ms", "host ms/run"),
        "op_p90_ms": ("chaos_run_p90_ms", "host ms/run"),
    },
}

#: Layer -> (per-layer metrics, end-to-end metric -> workloads it
#: should move on).  Written down before any optimisation is measured.
LAYER_MAP = {
    "hdl": {
        "metrics": [
            "hdl.cycles (must not change)",
            "hdl.settle_passes_per_cycle",
            "hdl.step_us_per_cycle",
        ],
        "moves": {
            "rtl_cycles_per_s": ["rtl"],
            "rtl_txn_p50_ms": ["rtl"],
        },
        "still": ["forward", "batched", "chaos"],
    },
    "hw": {
        "metrics": [
            "hw.driver_txns",
            "hw.cycles_per_txn (must not change)",
            "hw.driver_self_us_per_txn",
            "hw.model_calls",
            "hw.model_self_s",
        ],
        "moves": {
            "rtl_txn_p50_ms": ["rtl"],
            "packets_per_s": ["forward", "batched"],
        },
        "still": [],
    },
    "core": {
        "metrics": [
            "core.hwnode_packets",
            "core.hwnode_self_s",
            "core.hw_memo_hit_ratio",
            "core.hw_memo_invalidations",
            "core.level1_evictions",
            "core.fast_path_ratio",
        ],
        "moves": {"packets_per_s": ["batched", "forward"]},
        "still": ["rtl"],
    },
    "mpls": {
        "metrics": [
            "mpls.engine_calls",
            "mpls.engine_self_s",
            "mpls.router_self_s",
            "mpls.flowcache_hit_ratio",
            "mpls.flowcache_evictions",
            "mpls.flowcache_invalidations",
            "mpls.table_txns",
            "mpls.table_txn_s",
        ],
        "moves": {
            "packets_per_s": ["forward", "batched"],
            "chaos_runs_per_s": ["chaos"],
        },
        "still": ["rtl"],
    },
    "net": {
        "metrics": [
            "net.packets",
            "net.events",
            "net.events_per_packet",
            "net.self_s",
            "net.allocs_per_packet",
            "net.link_drop_ratio",
            "net.pending_peak",
        ],
        "moves": {
            "packets_per_s": ["forward"],
            "chaos_runs_per_s": ["chaos"],
            "peak_rss_mb": ["forward", "batched", "chaos"],
        },
        "still": ["rtl"],
    },
    "control": {
        "metrics": [
            "control.calls",
            "control.self_s",
            "control.queue_shed",
            "control.retries",
        ],
        "moves": {
            "chaos_runs_per_s": ["chaos"],
            "chaos_run_p90_ms": ["chaos"],
            "setup_s": ["forward", "batched"],
        },
        "still": ["rtl"],
    },
    "faults": {
        "metrics": [
            "faults.injections",
            "faults.self_s",
            "faults.build_s",
            "faults.summarize_s",
        ],
        "moves": {"chaos_runs_per_s": ["chaos"]},
        "still": ["rtl", "forward", "batched"],
    },
    "obs": {
        "metrics": [
            "obs.metric_writes (0 on forward and batched)",
            "obs.events_emitted",
            "obs.self_s",
            "obs.writes_per_packet",
        ],
        "moves": {"chaos_runs_per_s": ["chaos"]},
        "still": ["rtl", "forward", "batched"],
    },
}
