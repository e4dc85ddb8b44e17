"""Per-layer attribution for the traced run.

The probes live here, in the benchmark, not in ``src/``: for the
duration of the traced pass they replace the public entry points of
each ``repro`` layer with wrappers, and put the originals back
afterwards.  Two kinds of probe:

* a **span** records (name, start, end, parent) in flat in-memory
  arrays; a layer's self time is its spans' durations minus the time
  their traced children cover;
* a **count** only adds to a named counter (allocations, metric
  writes, delivered packets), so the hottest constructors stay cheap.

Some figures come from counters the program already keeps (memo and
flow-cache hits, link drops); they are read from the networks the
traced pass used, as deltas over the pass.

The spans are written out when the run ends; nothing is written while
the pass runs.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from collections import defaultdict
from time import perf_counter_ns

#: Layer groups whose classes are wrapped method by method.  Control,
#: faults and obs code is not on the per-packet path of the data-plane
#: workloads, so every method is a probe there (private ones too: timer
#: callbacks are private methods, and without them their time would
#: land in the event kernel's self time).
_CLASS_GROUPS = {
    "control": [
        ("repro.control.ldp", ["LDPProcess"]),
        ("repro.control.ldp_sessions", ["LDPSpeaker", "MessageLDPProcess"]),
        ("repro.control.rsvp_te", ["RSVPTESignaler"]),
        ("repro.control.cr_ldp", ["CRLDPSignaler"]),
        ("repro.control.frr", ["FastRerouteManager"]),
        ("repro.control.controller",
         ["PCEController", "NodeAgent", "ControllerChannel"]),
        ("repro.control.oam", ["OAMMonitor"]),
        ("repro.control.overload", ["PriorityControlQueue", "IngressShedder"]),
        ("repro.control.retry", ["ReconnectBackoff"]),
        ("repro.control.routing", ["LinkStateDatabase"]),
        ("repro.control.labels", ["LabelAllocator"]),
        ("repro.control.lsp", ["TunnelHierarchy"]),
    ],
    # attack traffic and its mitigation ride the fault injector
    "faults.injector": [
        ("repro.faults.injector", ["FaultInjector"]),
        ("repro.faults.auditor", ["ConsistencyAuditor"]),
        ("repro.faults.scenario", ["Scenario"]),
        ("repro.security.monitor", ["SecurityMonitor", "ExceptionRateLimiter"]),
    ],
    "obs": [
        ("repro.obs.metrics",
         ["Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry"]),
        ("repro.obs.events",
         ["EventLog", "ListSink", "CallbackSink", "JSONLSink", "FilterSink"]),
        ("repro.obs.telemetry", ["Telemetry"]),
        ("repro.obs.flows", ["FlowAccountant", "MatrixCollector"]),
        ("repro.obs.alerts", ["AlertEngine"]),
        ("repro.obs.spans", ["SpanRecorder"]),
        ("repro.obs.topo", ["TopologyObserver"]),
    ],
}

#: Data-plane entry points, named one by one (module, class, methods,
#: group).  Only the public calls a packet or transaction makes.
_DATA_PLANE = [
    ("repro.hw.driver", "ModifierDriver",
     ["reset", "user_push", "user_pop", "write_pair", "search", "update",
      "bank_begin", "bank_write_pair", "bank_commit", "bank_drain",
      "bank_rollback", "modify_pair", "remove_pair", "read_entry",
      "corrupt_pair", "scrub"], "hw.driver"),
    ("repro.hw.model", "FunctionalModifier",
     ["reset", "user_push", "user_pop", "write_pair", "bank_begin",
      "bank_write_pair", "bank_commit", "bank_drain", "bank_rollback",
      "search", "modify_pair", "remove_pair", "read_entry", "update",
      "corrupt_pair", "scrub", "stack", "ib_counts", "ib_pairs"],
     "hw.model"),
    ("repro.core.hwnode", "HardwareLSRNode", ["scrub_info_base"],
     "core.hwnode"),
    ("repro.mpls.forwarding", "ForwardingEngine", ["ingress", "transit"],
     "mpls.engine"),
    ("repro.mpls.router", "LSRNode", ["receive_external"], "mpls.router"),
    ("repro.mpls.fastpath", "FlowCache", ["process", "scale_last"],
     "mpls.router"),
    ("repro.mpls.tables", "ILM", ["begin"], "mpls.table"),
    ("repro.mpls.tables", "FTN", ["begin"], "mpls.table"),
]


def _one(args, kwargs, result):
    return 1


class Tracer:
    """Span and counter store plus the probe installer."""

    def __init__(self) -> None:
        self.groups = []
        self._gid = {}
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack = []
        self.counts = defaultdict(int)
        self.pending_peak = 0
        #: networks built while tracing (their counters start at zero)
        self.new_networks = []
        self._patches = []

    # -- probes --------------------------------------------------------------
    def _group_id(self, group: str) -> int:
        if group not in self._gid:
            self._gid[group] = len(self.groups)
            self.groups.append(group)
        return self._gid[group]

    def _patch(self, owner, attr, wrapper, original) -> None:
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def span(self, owner, attr, group, key=None, units=_one) -> None:
        """Wrap ``owner.attr`` in a span of ``group``; with ``key``,
        also add ``units(args, kwargs, result)`` to that counter."""
        fn = owner.__dict__[attr]
        gid = self._group_id(group)
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents,
        )
        stack, counts, clock = self.stack, self.counts, perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(gid)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if key is not None:
                counts[key] += units(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper, fn)

    def count(self, owner, attr, key, units=_one) -> None:
        """Wrap ``owner.attr`` to add ``units(...)`` to ``key``."""
        fn = owner.__dict__[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += units(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper, fn)

    def span_class(self, cls, group) -> None:
        for attr, value in list(cls.__dict__.items()):
            if attr.startswith("__") or not inspect.isfunction(value):
                continue
            if inspect.isgeneratorfunction(value):
                continue
            self.span(cls, attr, group)

    def install(self) -> None:
        """Patch every probe in.  Call :meth:`uninstall` to undo."""
        from repro.control.overload import PriorityControlQueue
        from repro.control.retry import ReconnectBackoff
        from repro.core.hwnode import HardwareLSRNode
        from repro.faults import chaos
        from repro.faults.injector import FaultInjector
        from repro.hdl.simulator import Simulator
        from repro.hw.modifier import LabelStackModifier
        from repro.mpls.label import LabelEntry
        from repro.mpls.router import LSRNode
        from repro.mpls.tables import FTN, ILM
        from repro.net.events import EventScheduler
        from repro.net.network import MPLSNetwork
        from repro.net.packet import IPv4Packet, MPLSPacket
        from repro.obs.events import EventLog
        from repro.obs.metrics import MetricFamily

        for group, entries in _CLASS_GROUPS.items():
            for module, classes in entries:
                mod = importlib.import_module(module)
                for name in classes:
                    self.span_class(getattr(mod, name), group)
        for module, name, methods, group in _DATA_PLANE:
            cls = getattr(importlib.import_module(module), name)
            for attr in methods:
                self.span(cls, attr, group)

        # hdl: cycles stepped, and settle passes of one sentinel
        # component (the modifier's top level settles once per pass)
        self.span(
            Simulator, "step", "hdl.step", key="hdl.cycles",
            units=lambda a, k, r: a[1] if len(a) > 1 else k.get("cycles", 1),
        )
        self.count(LabelStackModifier, "settle", "hdl.sentinel_settles")

        # core and mpls: packets through each node kind
        self.span(HardwareLSRNode, "receive", "core.hwnode",
                  key="core.packets")
        self.span(HardwareLSRNode, "receive_aggregate", "core.hwnode",
                  key="core.packets", units=lambda a, k, r: a[1].count)
        self.span(LSRNode, "receive", "mpls.router")
        self.span(LSRNode, "receive_aggregate", "mpls.router")
        for table in (ILM, FTN):
            self.span(table, "commit", "mpls.table", key="mpls.table_txns")
            self.span(table, "rollback", "mpls.table",
                      key="mpls.table_txns")

        # net: the event kernel, its heap, packets and allocations
        self.span(EventScheduler, "run", "net.sched", key="net.events",
                  units=lambda a, k, r: r)

        def heap_size(args, kwargs, result):
            self.pending_peak = max(self.pending_peak, len(args[0]._heap))
            return 1

        def register(args, kwargs, result):
            self.new_networks.append(args[0])
            return 1

        self.count(EventScheduler, "at", "net.scheduled", units=heap_size)
        self.count(MPLSNetwork, "__init__", "net.networks", units=register)
        self.count(MPLSNetwork, "_deliver", "net.packets")
        self.count(MPLSNetwork, "_deliver_aggregate", "net.packets",
                   units=lambda a, k, r: a[2].count)
        for cls in (IPv4Packet, MPLSPacket, LabelEntry):
            self.count(cls, "__init__", "net.allocs")

        # faults: whole-run build and summary
        self.span(chaos, "build_run", "faults.build")
        self.span(chaos, "summarize", "faults.summarize")

        # counters on methods that already carry a span
        self.count(PriorityControlQueue, "offer", "control.queue_shed",
                   units=lambda a, k, r: len(r[1]))
        self.count(ReconnectBackoff, "next_delay", "control.retries")
        self.count(FaultInjector, "schedule_fault", "faults.injections")
        self.count(MetricFamily, "labels", "obs.metric_writes")
        self.count(EventLog, "emit", "obs.events")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------
    def summary(self):
        """Per group: calls, calls not nested in the same group, inclusive
        and self nanoseconds."""
        n = len(self.starts)
        starts, ends, parents, names = (
            self.starts, self.ends, self.parents, self.names,
        )
        child = [0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        calls = defaultdict(int)
        top = defaultdict(int)
        incl = defaultdict(int)
        own = defaultdict(int)
        for i in range(n):
            group = self.groups[names[i]]
            duration = ends[i] - starts[i]
            calls[group] += 1
            own[group] += duration - child[i]
            parent = parents[i]
            if parent < 0 or names[parent] != names[i]:
                top[group] += 1
                incl[group] += duration
        return {
            group: {
                "calls": calls[group],
                "top_calls": top[group],
                "incl_ns": incl[group],
                "self_ns": own[group],
            }
            for group in self.groups
        }

    def write(self, path: str) -> None:
        """Write every span and the counters as gzip-compressed JSON.

        A span is ``[group, start_ns, duration_ns, parent]``; starts
        count from the first span, and ``parent`` indexes the span list
        (-1 for a root)."""
        origin = self.starts[0] if self.starts else 0
        spans = [
            [self.names[i], self.starts[i] - origin,
             self.ends[i] - self.starts[i], self.parents[i]]
            for i in range(len(self.starts))
        ]
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(
                {
                    "groups": self.groups,
                    "fields": ["group", "start_ns", "duration_ns", "parent"],
                    "spans": spans,
                    "counts": dict(self.counts),
                    "pending_peak": self.pending_peak,
                },
                handle,
                separators=(",", ":"),
            )


# -- counters the program keeps ------------------------------------------------


def network_counters(networks):
    """Sum the data-plane counters of ``networks`` right now."""
    totals = defaultdict(int)
    for net in networks:
        for node in net.nodes.values():
            if hasattr(node, "hw_memo_hits"):
                totals["memo_hits"] += node.hw_memo_hits
                totals["memo_misses"] += node.hw_memo_misses
                totals["memo_invalidations"] += node.hw_memo_invalidations
                totals["level1_evictions"] += node.flow_cache_evictions
                totals["fast_path"] += node.fast_path_packets
                totals["slow_path"] += node.slow_path_packets
            cache = node.flow_cache
            if cache is not None:
                totals["fc_hits"] += cache.hits
                totals["fc_misses"] += cache.misses
                totals["fc_evictions"] += cache.evictions
                totals["fc_invalidations"] += cache.invalidations
        links = list(net.links.values())
        links += [link for link, _ in net._failed_links.values()]
        for link in links:
            for channel in (link.forward, link.reverse):
                totals["link_tx"] += channel.tx_packets
                totals["link_dropped"] += channel.dropped + channel.lost
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, before, after):
    """The per-layer metrics of one traced pass.  ``before``/``after``
    are :func:`network_counters` totals around the pass."""
    groups = tracer.summary()
    counts = tracer.counts

    def g(group, field):
        return groups.get(group, {}).get(field, 0)

    def layer_self_s(layer):
        return sum(
            stats["self_ns"]
            for group, stats in groups.items()
            if group.split(".")[0] == layer
        ) / 1e9

    net = {key: after[key] - before.get(key, 0) for key in after}
    cycles = counts["hdl.cycles"]
    txns = g("hw.driver", "top_calls")
    packets = counts["net.packets"]
    control_calls = sum(
        stats["calls"] for group, stats in groups.items()
        if group.split(".")[0] == "control"
    )
    return {
        "hdl.cycles": cycles,
        "hdl.settle_passes_per_cycle": _ratio(
            counts["hdl.sentinel_settles"], cycles),
        "hdl.step_us_per_cycle": _ratio(g("hdl.step", "self_ns") / 1e3,
                                        cycles),
        "hw.driver_txns": txns,
        "hw.cycles_per_txn": _ratio(cycles, txns),
        "hw.driver_self_us_per_txn": _ratio(g("hw.driver", "self_ns") / 1e3,
                                            txns),
        "hw.model_calls": g("hw.model", "calls"),
        "hw.model_self_s": g("hw.model", "self_ns") / 1e9,
        "core.hwnode_packets": counts["core.packets"],
        "core.hwnode_self_s": g("core.hwnode", "self_ns") / 1e9,
        "core.hw_memo_hit_ratio": _ratio(
            net.get("memo_hits", 0),
            net.get("memo_hits", 0) + net.get("memo_misses", 0)),
        "core.hw_memo_invalidations": net.get("memo_invalidations", 0),
        "core.level1_evictions": net.get("level1_evictions", 0),
        "core.fast_path_ratio": _ratio(
            net.get("fast_path", 0),
            net.get("fast_path", 0) + net.get("slow_path", 0)),
        "mpls.engine_calls": g("mpls.engine", "calls"),
        "mpls.engine_self_s": g("mpls.engine", "self_ns") / 1e9,
        "mpls.router_self_s": g("mpls.router", "self_ns") / 1e9,
        "mpls.flowcache_hit_ratio": _ratio(
            net.get("fc_hits", 0),
            net.get("fc_hits", 0) + net.get("fc_misses", 0)),
        "mpls.flowcache_evictions": net.get("fc_evictions", 0),
        "mpls.flowcache_invalidations": net.get("fc_invalidations", 0),
        "mpls.table_txns": counts["mpls.table_txns"],
        "mpls.table_txn_s": g("mpls.table", "incl_ns") / 1e9,
        "net.packets": packets,
        "net.events": counts["net.events"],
        "net.events_per_packet": _ratio(counts["net.events"], packets),
        "net.self_s": g("net.sched", "self_ns") / 1e9,
        "net.allocs_per_packet": _ratio(counts["net.allocs"], packets),
        "net.link_drop_ratio": _ratio(
            net.get("link_dropped", 0),
            net.get("link_tx", 0) + net.get("link_dropped", 0)),
        "net.pending_peak": tracer.pending_peak,
        "control.calls": control_calls,
        "control.self_s": layer_self_s("control"),
        "control.queue_shed": counts["control.queue_shed"],
        "control.retries": counts["control.retries"],
        "faults.injections": counts["faults.injections"],
        "faults.self_s": layer_self_s("faults"),
        "faults.build_s": g("faults.build", "incl_ns") / 1e9,
        "faults.summarize_s": g("faults.summarize", "incl_ns") / 1e9,
        "obs.metric_writes": counts["obs.metric_writes"],
        "obs.events_emitted": counts["obs.events"],
        "obs.self_s": layer_self_s("obs"),
        "obs.writes_per_packet": _ratio(counts["obs.metric_writes"], packets),
    }
