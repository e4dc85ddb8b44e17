"""The four benchmark workloads.

Each workload is a closed loop driven by one caller and follows one
protocol, which ``worker.py`` runs:

* ``setup()`` -- imports, elaboration, topology, label distribution and
  table programming;
* ``warmup()`` -- the first, untimed pass.  Its simulated outputs are
  what the fingerprint covers, because they do not depend on how fast
  the host is;
* ``op()`` -- one timed operation.  It returns the host seconds spent
  inside the program and the work those seconds completed.  Checking
  the outputs happens outside that span;
* ``finish()`` -- drains what is in flight and runs the end-of-run
  checks.

The operations repeat exactly every ``period`` operations: operation
``i`` does the same simulated work as operation ``i + period`` (an RTL
round, one simulated traffic period, one chaos sweep per seed).  That
is what lets the timed loop take each operation's cost as the least
host time any of its repeats took.

``attempted`` and ``failed`` count checked operations (transactions,
packets, chaos runs).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(material) -> str:
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Shared bookkeeping; subclasses implement the protocol above."""

    name = ""
    #: operations after which the work repeats exactly
    period = 1
    #: operations the traced run measures, untraced and traced
    trace_ops = 1

    @property
    def kinds(self) -> int:
        """Operation ``i`` of a period is of kind ``i % kinds``; the
        latency percentiles are taken over one cost per kind."""
        return self.period

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.fingerprint = ""
        #: extra facts recorded beside the metrics
        self.facts = {}

    def networks(self):
        """Networks whose counters the traced run reads."""
        return []


# -- rtl ---------------------------------------------------------------------


class RTLWorkload(Workload):
    """Seeded ModifierDriver transactions on the cycle-accurate RTL.

    The information base holds ``PAIRS`` pairs per level.  One round is
    a fixed, seeded list of operations: searches that hit at positions
    spread evenly over every level, a miss per level, ``update`` on
    stacks of depth 0-3, and management writes beside the reads.  An
    update operation loads its stack with ``user_push``, runs ``update``
    and drains what is left with ``user_pop``, as the data path does for
    each packet.  Every ``write_pair`` appends a pair that a later
    ``remove_pair`` takes out again, and every ``modify_pair`` is undone
    later in the round, so each round starts from the same information
    base and produces the same results.

    The oracle is :class:`repro.hw.model.FunctionalModifier`, run over
    the same programming and round during set-up; each search is also
    checked against Table 6 (``search_cycles``).
    """

    name = "rtl"
    PAIRS = 40
    HITS_PER_LEVEL = 5
    UPDATES_PER_DEPTH = 2
    WRITES = 2
    MODIFIES = 2
    TRACE_ROUNDS = 4

    def setup(self) -> None:
        from repro.hw import ModifierDriver
        from repro.hw.model import FunctionalModifier

        rng = random.Random(self.seed)
        self.pairs = self._program_pairs(rng)
        self.driver = ModifierDriver()
        self.driver.reset()
        oracle = FunctionalModifier()
        oracle.reset()
        rtl_cycles = model_cycles = 0
        for level, pairs in enumerate(self.pairs, start=1):
            for key, label, op in pairs:
                rtl_cycles += self.driver.write_pair(level, key, label, op)
                model_cycles += oracle.write_pair(level, key, label, op)
        self.attempted += 1
        if rtl_cycles != model_cycles or (
            self.driver.ib_counts() != oracle.ib_counts()
        ):
            self.failed += 1
        self.facts["program_cycles"] = rtl_cycles
        # the oracle's answers for one round, computed before timing; a
        # drain becomes one pop per entry left on the oracle's stack
        self.round, self.expected, self.table6 = [], [], []
        for ops in self._round(rng):
            txns, wants, costs = [], [], []
            for op in ops:
                if op[0] == "drain":
                    expanded = [("pop", None)] * len(oracle.stack())
                else:
                    expanded = [op]
                for txn in expanded:
                    txns.append(txn)
                    costs.append(self._table6(oracle, txn))
                    wants.append(self._apply(oracle, txn)[0])
            self.round.append(txns)
            self.expected.append(wants)
            self.table6.append(costs)
        self.period = len(self.round)
        self.trace_ops = self.TRACE_ROUNDS * self.period
        self.table6_error = 0
        self._index = 0

    def _program_pairs(self, rng):
        from repro.mpls.label import LabelOp

        ops = [LabelOp.SWAP, LabelOp.SWAP, LabelOp.POP, LabelOp.PUSH]
        levels = []
        used = set()
        for level in (1, 2, 3):
            pairs = []
            while len(pairs) < self.PAIRS:
                if level == 1 and len(pairs) % 2:
                    # a packet identifier (ingress, empty stack)
                    key = rng.randrange(1 << 21, 1 << 32)
                    op = LabelOp.PUSH
                else:
                    key = rng.randrange(16, 1 << 20)
                    op = rng.choice(ops)
                if (level, key) in used:
                    continue
                used.add((level, key))
                pairs.append((key, rng.randrange(16, 1 << 20), op))
            levels.append(pairs)
        return levels

    def _absent_key(self, rng, level):
        keys = {key for key, _, _ in self.pairs[level - 1]}
        while True:
            key = rng.randrange(16, 1 << 20)
            if key not in keys:
                return key

    @staticmethod
    def _spread(items, count):
        """``count`` items at evenly spread positions of the list, so
        every seed draws the same spread of Table 6 search costs."""
        return [items[int((j + 0.5) * len(items) / count)] for j in range(count)]

    @staticmethod
    def _update_op(depth, top, ttl, cos, rng):
        """Load a stack of ``depth`` entries topped by ``top``, update,
        and drain (sized in ``setup`` from the oracle's stack)."""
        from repro.mpls.label import LabelEntry

        if depth == 0:
            return [("update", (top, ttl, cos)), ("drain", None)]
        labels = [rng.randrange(16, 1 << 20) for _ in range(depth - 1)]
        labels.append(top)
        txns = [
            ("push", LabelEntry(label=label, cos=cos, s=int(i == 0), ttl=ttl))
            for i, label in enumerate(labels)
        ]
        return txns + [("update", (0, ttl, cos)), ("drain", None)]

    def _round(self, rng):
        """One round: a list of operations, each a list of (kind, args)
        driver transactions."""
        from repro.mpls.label import LabelOp

        ops = []
        for level in (1, 2, 3):
            pairs = self.pairs[level - 1]
            for key, _, _ in self._spread(pairs, self.HITS_PER_LEVEL):
                ops.append([("search", (level, key))])
            ops.append([("search", (level, self._absent_key(rng, level)))])
        for depth in range(4):
            level = max(depth, 1)
            # depth 0 keys on a packet identifier, deeper stacks on labels
            keys = [
                key for key, _, _ in self.pairs[level - 1]
                if (key >= 1 << 20) == (depth == 0)
            ]
            for top in self._spread(keys, self.UPDATES_PER_DEPTH):
                ops.append(self._update_op(
                    depth, top, rng.randrange(2, 65), rng.randrange(8), rng
                ))
        # an update that misses and one whose TTL expires
        ops.append(self._update_op(2, self._absent_key(rng, 2), 64, 0, rng))
        labels = [k for k, _, _ in self.pairs[0] if k < 1 << 20]
        ops.append(self._update_op(1, self._spread(labels, 1)[0], 1, 0, rng))
        # management misses: remove / modify a key nobody stored
        level = rng.randrange(1, 4)
        ops.append([("remove", (level, self._absent_key(rng, level)))])
        level = rng.randrange(1, 4)
        ops.append(
            [("modify", (level, self._absent_key(rng, level), 99, LabelOp.SWAP))]
        )
        rng.shuffle(ops)
        new_ops = [LabelOp.SWAP, LabelOp.POP, LabelOp.PUSH]
        paired = []
        for level in rng.sample((1, 2, 3), self.WRITES):
            key = self._absent_key(rng, level)
            write = ("write", (level, key, rng.randrange(16, 1 << 20),
                               rng.choice(new_ops)))
            paired.append(([write], [("remove", (level, key))]))
        for level in rng.sample((1, 2, 3), self.MODIFIES):
            key, label, op = self._spread(self.pairs[level - 1], 1)[0]
            change = ("modify", (level, key, rng.randrange(16, 1 << 20),
                                 rng.choice(new_ops)))
            paired.append(([change], [("modify", (level, key, label, op))]))
        for begin, end in paired:
            i = rng.randrange(0, len(ops) + 1)
            ops.insert(i, begin)
            ops.insert(rng.randrange(i + 1, len(ops) + 1), end)
        return ops

    @staticmethod
    def _table6(model, txn):
        """Table 6's search cost for a search transaction, else None."""
        from repro.hw.model import search_cycles

        kind, args = txn
        if kind != "search":
            return None
        level, key = args
        pairs = model.ib_pairs(level)
        position = next(
            (i for i, (index, _, _) in enumerate(pairs) if index == key), None
        )
        return search_cycles(len(pairs), position)

    @staticmethod
    def _apply(impl, txn):
        """Run one transaction; returns (comparable result, seconds, cycles).

        Only the transaction call itself is inside the timed span; the
        stack and information-base reads that make the result
        comparable happen after it.  The cycle count is the result's
        last field.
        """
        kind, args = txn
        if kind == "push":
            call, args = impl.user_push, (args,)
        elif kind == "pop":
            call, args = impl.user_pop, ()
        else:
            call = {
                "write": impl.write_pair, "search": impl.search,
                "modify": impl.modify_pair, "remove": impl.remove_pair,
                "update": impl.update,
            }[kind]
        start = perf_counter()
        r = call(*args)
        elapsed = perf_counter() - start
        if kind == "push":
            result = (tuple(impl.stack()), r)
        elif kind == "pop":
            result = (r[0], tuple(impl.stack()), r[1])
        elif kind == "write":
            result = (impl.ib_counts(), r)
        elif kind == "search":
            result = (r.found, r.label, r.op, r.discarded, r.cycles)
        elif kind == "update":
            result = (r.performed, r.discarded, r.stack, r.cycles)
        else:
            result = (r.found, impl.ib_counts(), r.cycles)
        return (kind,) + result, elapsed, result[-1]

    def _run_op(self, i):
        """Run operation ``i`` of the round and check every transaction
        against the oracle (and searches against Table 6)."""
        elapsed = cycles = 0
        results = []
        for txn, want, table6 in zip(
            self.round[i], self.expected[i], self.table6[i]
        ):
            result, seconds, spent = self._apply(self.driver, txn)
            elapsed += seconds
            cycles += spent
            results.append(result)
            self._check(result, want, table6)
        return elapsed, cycles, results

    def _check(self, result, want, table6) -> None:
        """Count one transaction; a result differing from the oracle's,
        or a search cycle count differing from Table 6, fails."""
        self.attempted += 1
        ok = result == want
        if table6 is not None:
            self.table6_error = max(self.table6_error, abs(result[-1] - table6))
            ok = ok and result[-1] == table6
        if not ok:
            self.failed += 1

    def warmup(self) -> None:
        results = [
            repr(self._run_op(i)[2]) for i in range(len(self.round))
        ]
        self.fingerprint = _digest(
            {"program_cycles": self.facts["program_cycles"], "round": results}
        )

    def op(self):
        i = self._index
        self._index = (i + 1) % len(self.round)
        elapsed, cycles, _ = self._run_op(i)
        return elapsed, cycles

    def finish(self) -> None:
        # Table 6 is the model's only reference: the largest difference
        # between an RTL search and 3k + 8 (hit) / 3n + 5 (miss)
        self.facts["table6_max_cycle_error"] = self.table6_error
        self.facts["round_operations"] = len(self.round)
        self.facts["round_transactions"] = sum(map(len, self.round))


# -- forward / batched -------------------------------------------------------


class _RingWorkload(Workload):
    """A ring whose even nodes are LERs, alternating the hardware
    (:class:`HardwareLSRNode`) and software (:class:`LSRNode`) data
    planes; odd nodes are software core LSRs.  LDP binds one FEC per
    LER prefix.  Traffic runs in simulated-time slices: each slice is
    one timed operation, and the deliveries it produced are consumed
    (counted per flow) before the next slice starts, so memory stays
    bounded however fast the host is.  Every flow's emission times
    repeat every ``PERIOD_S`` of simulated time, so slice ``i`` and
    slice ``i + PERIOD_S / SLICE_S`` carry the same packets.
    Subclasses set ``SLICE_S``, ``PERIOD_S``, ``WARMUP_SLICES`` and
    ``TRACE_PERIODS``, and define ``_consume(record_latency)``, which
    counts the slice's deliveries per flow and returns the packets."""

    RING = 8
    LINK_BPS = 1e9
    DELAY_S = 1e-4
    #: payload bytes; 44 B payload makes the smallest, 64 B IP packet
    PAYLOADS = (44, 236, 492, 1480)

    def _start(self, make_source) -> None:
        """Build the network and start one source per flow;
        ``make_source(k, rng, ingress, src, dst, payload)`` makes flow
        ``k``'s source."""
        self._build()
        self.period = round(self.PERIOD_S / self.SLICE_S)
        self.trace_ops = self.TRACE_PERIODS * self.period
        rng = random.Random(self.seed)
        self.sources = []
        self.egress_of = {}
        for k, (ingress, egress, src, dst, payload) in enumerate(
            self._flow_endpoints(rng, self.FLOWS)
        ):
            source = make_source(k, rng, ingress, src, dst, payload)
            source.begin()
            self.egress_of[source.flow_id] = (k, egress)
            self.sources.append(source)
        self.delivered = [0] * self.FLOWS
        self.misdelivered = 0
        self._now = 0.0

    def _build(self) -> None:
        from repro.control.ldp import LDPProcess
        from repro.core.hwnode import HardwareLSRNode
        from repro.mpls.fec import PrefixFEC
        from repro.mpls.router import LSRNode, RouterRole
        from repro.net.network import MPLSNetwork
        from repro.net.topology import ring
        from repro.obs import get_telemetry

        if get_telemetry().enabled:
            raise RuntimeError("telemetry must be off for this workload")
        topo = ring(
            self.RING, prefix="r", bandwidth_bps=self.LINK_BPS,
            delay_s=self.DELAY_S,
        )
        self.lers = [f"r{i}" for i in range(0, self.RING, 2)]
        hardware = set(self.lers[0::2])

        def node(name, role):
            if name in hardware:
                return HardwareLSRNode(name, role)
            return LSRNode(name, role)

        self.net = MPLSNetwork(
            topo, {n: RouterRole.LER for n in self.lers}, node_factory=node
        )
        ldp = LDPProcess(topo, self.net.nodes)
        for i, ler in enumerate(self.lers):
            prefix = f"10.{i + 1}.0.0/16"
            self.net.attach_host(ler, prefix)
            ldp.establish_fec(PrefixFEC(prefix), egress=ler)
        self.facts["hardware_lers"] = sorted(hardware)
        self.facts["software_lers"] = sorted(set(self.lers) - hardware)

    def _flow_endpoints(self, rng, count):
        """(ingress LER, egress LER, src, dst, payload) per flow; every
        destination address is distinct."""
        n = len(self.lers)
        flows = []
        for k in range(count):
            si = k % n
            di = (si + 1 + rng.randrange(n - 1)) % n
            host = k + 1
            flows.append(
                (
                    self.lers[si],
                    self.lers[di],
                    f"10.{si + 1}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
                    f"10.{di + 1}.{host >> 8}.{host & 0xFF}",
                    self.PAYLOADS[rng.randrange(len(self.PAYLOADS))],
                )
            )
        return flows

    def networks(self):
        return [self.net]

    def warmup(self) -> None:
        self.latency_sums = [0.0] * len(self.sources)
        for _ in range(self.WARMUP_SLICES):
            self._now += self.SLICE_S
            self.net.run(until=self._now)
            self._consume(record_latency=True)
        self.fingerprint = _digest(
            {
                "delivered": self.delivered,
                "latency_sums": [repr(x) for x in self.latency_sums],
                "sim_s": repr(self._now),
            }
        )

    def op(self):
        self._now += self.SLICE_S
        start = perf_counter()
        self.net.run(until=self._now)
        elapsed = perf_counter() - start
        return elapsed, self._consume(record_latency=False)

    def finish(self) -> None:
        """Stop the sources, drain the network, and check that every
        packet each flow sent reached the flow's egress."""
        now = self.net.scheduler.now
        for source in self.sources:
            source.stop = now
        self.net.run()
        self._consume(record_latency=False)
        for index, source in enumerate(self.sources):
            self.attempted += source.sent
            self.failed += max(0, source.sent - self.delivered[index])
        self.failed += self.misdelivered
        self.facts["flows"] = len(self.sources)
        self.facts["packets_sent"] = sum(s.sent for s in self.sources)
        self.facts["drops"] = self.net.drop_count()
        self.facts["sim_s"] = round(now, 6)


class ForwardWorkload(_RingWorkload):
    """Scalar forwarding, batching off: ``FLOWS`` CBR flows.  Packet
    sizes and packet rates are drawn independently, so every size --
    64 B IP included -- carries about the same share of the packets.
    Every rate divides ``PERIOD_S``."""

    name = "forward"
    FLOWS = 256
    #: packets per simulated second; intervals 8, 10, 12.5 and 20 ms
    RATES = (125.0, 100.0, 80.0, 50.0)
    SLICE_S = 0.005
    PERIOD_S = 0.2
    WARMUP_SLICES = 25
    TRACE_PERIODS = 2

    def setup(self) -> None:
        from repro.net.traffic import CBRSource

        def source(k, rng, ingress, src, dst, payload):
            pps = self.RATES[rng.randrange(len(self.RATES))]
            return CBRSource(
                self.net.scheduler, self.net.source_sink(ingress),
                src=src, dst=dst, rate_bps=(payload + 20) * 8 * pps,
                packet_size=payload, start=rng.random() / pps,
            )

        self._start(source)

    def _consume(self, record_latency: bool) -> int:
        deliveries = self.net.deliveries
        for delivery in deliveries:
            index, egress = self.egress_of[delivery.packet.flow_id]
            if delivery.node != egress:
                self.misdelivered += 1
            self.delivered[index] += 1
            if record_latency:
                self.latency_sums[index] += delivery.latency
        count = len(deliveries)
        deliveries.clear()
        return count


class BatchedWorkload(_RingWorkload):
    """Batched forwarding: every flow is an :class:`AggregateCBRSource`
    emitting trains of ``TRAIN`` packets.  Each ingress LER sees more
    distinct destinations than the hardware level 1 holds (1024 pairs,
    less the mirrored ILM), so the hardware edges install and evict on
    every train while the software :class:`FlowCache` stays hot."""

    name = "batched"
    FLOWS = 4800
    TRAIN = 16
    #: every flow sends one train per period, so one period of
    #: simulated time visits every destination once
    PERIOD_S = 1.0
    SLICE_S = 0.02
    TRACE_PERIODS = 1

    def setup(self) -> None:
        from repro.net.aggregate import AggregateCBRSource

        def source(k, rng, ingress, src, dst, payload):
            # flows start evenly spread over one period
            return AggregateCBRSource(
                self.net.scheduler, self.net.aggregate_sink(ingress),
                src=src, dst=dst,
                rate_bps=(payload + 20) * 8 * self.TRAIN / self.PERIOD_S,
                packet_size=payload, batch=self.TRAIN,
                start=(k + rng.random()) * self.PERIOD_S / self.FLOWS,
            )

        self._start(source)
        self.net.enable_batching()
        # the warm-up covers one train period, so every flow has sent
        # once and the caches are filled
        self.WARMUP_SLICES = self.period
        self.facts["train"] = self.TRAIN
        self.facts["destinations_per_ingress"] = self.FLOWS // len(self.lers)

    def _consume(self, record_latency: bool) -> int:
        deliveries = self.net.aggregate_deliveries
        count = 0
        for delivery in deliveries:
            index, egress = self.egress_of[delivery.flow_id]
            if delivery.node != egress:
                self.misdelivered += delivery.count
            self.delivered[index] += delivery.count
            count += delivery.count
            if record_latency:
                self.latency_sums[index] += sum(delivery.latencies())
        deliveries.clear()
        self.misdelivered += len(self.net.deliveries)
        self.net.deliveries.clear()
        return count


# -- chaos -------------------------------------------------------------------


class ChaosWorkload(Workload):
    """Every ``examples/chaos_*.json`` as ``repro chaos`` runs it by
    default: a fresh telemetry session per run (telemetry on), scalar
    data plane.  The run draws ``SEEDS`` chaos seeds from its own seed;
    one sweep runs each example once under one of them, and the sweeps
    cycle through the seeds, so one period is one sweep per seed.  The
    first run of an (example, seed) pair is the reference every later
    run of the pair must match byte for byte.  The warm-up sweep uses
    the first seed and is what the fingerprint covers;
    ``reports_fingerprint`` covers every pair's report."""

    name = "chaos"
    SEEDS = 3

    def setup(self) -> None:
        from repro.faults import Scenario, run_scenario
        from repro.obs import telemetry_session

        self._load = Scenario.load
        self._run = run_scenario
        self._session = telemetry_session
        self.paths = sorted(
            glob.glob(os.path.join(ROOT, "examples", "chaos_*.json"))
        )
        if not self.paths:
            raise RuntimeError("no examples/chaos_*.json found")
        rng = random.Random(self.seed)
        self.seeds = [rng.randrange(1 << 31) for _ in range(self.SEEDS)]
        self.period = self.SEEDS * len(self.paths)
        self.trace_ops = self.period
        self.reference = {}
        self._index = 0

    @property
    def kinds(self) -> int:
        # one kind per example: an example's cost is the median over its
        # seeds, so the percentiles do not jump between seeds' runs
        return len(self.paths)

    def _one(self, path, seed):
        start = perf_counter()
        try:
            scenario = self._load(path)
            with self._session():
                report = self._run(scenario, seed=seed)
            text = report.to_json()
        except Exception:  # a run that raises counts as failed
            text = None
            self.facts.setdefault("errors", []).append(
                f"{os.path.basename(path)} seed {seed}:\n"
                + traceback.format_exc()
            )
        elapsed = perf_counter() - start
        self.attempted += 1
        key = (os.path.basename(path), seed)
        if text is None:
            self.failed += 1
        elif key not in self.reference:
            self.reference[key] = text
        elif self.reference[key] != text:
            self.failed += 1
        return elapsed

    def _reports_digest(self, seeds):
        return _digest(
            [[name, seed, text]
             for (name, seed), text in sorted(self.reference.items())
             if seed in seeds]
        )

    def warmup(self) -> None:
        for path in self.paths:
            self._one(path, self.seeds[0])
        self.fingerprint = self._reports_digest(self.seeds[:1])

    def op(self):
        sweep, i = divmod(self._index, len(self.paths))
        self._index += 1
        # timed sweeps start with the second seed
        seed = self.seeds[(sweep + 1) % len(self.seeds)]
        return self._one(self.paths[i], seed), 1

    def finish(self) -> None:
        self.facts["examples"] = [os.path.basename(p) for p in self.paths]
        self.facts["chaos_seeds"] = self.seeds
        self.facts["reports_fingerprint"] = self._reports_digest(self.seeds)


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (RTLWorkload, ForwardWorkload, BatchedWorkload, ChaosWorkload)
}
