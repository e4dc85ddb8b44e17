"""One workload in one fresh process; ``run.py`` starts it.

Usage::

    python3 perfbench/worker.py --workload rtl --seed 1 --seconds 10 \\
        --mode measure

``--mode setup`` stops after set-up and the warm-up pass; ``measure``
then runs the timed loop for ``--seconds``; ``trace`` runs the
workload's fixed traced amount of work three times: untraced, under the
per-layer probes, and untraced again.  The last line of standard output is one JSON
record.  ``setup_s`` counts from the monotonic time ``run.py`` put in
``PERFBENCH_T0`` just before starting this process (without it, from
when this module started running).  Timed work is scaled by the host's
speed, measured with ``calibrate`` (see ``_measure``).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import resource
import statistics
import sys
import time
from time import perf_counter

T0 = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: every operation of a period is timed at least this often
MIN_REPEATS = 3
#: host seconds the reference loop (``calibrate``) takes on the host
#: that reported times are scaled to; on a 2-vCPU Intel Xeon VM under
#: CPython 3.11 it takes about 2 ms in the VM's fast state and 4 ms in
#: its slow one
CAL_REF_S = 3e-3
#: calibrations whose median brackets set-up
CAL_SAMPLES = 5


class _Packet:
    def __init__(self, flow, size, labels):
        self.flow = flow
        self.size = size
        self.labels = labels
        self.hops = 0


class _Node:
    def __init__(self, name, table):
        self.name = name
        #: label -> next node's index << 20 | out label
        self.table = table
        self.count = 0

    def receive(self, packet):
        self.count += 1
        packet.hops += 1
        entry = self.table.get(packet.labels[-1])
        if entry is None:
            return None
        packet.labels = packet.labels[:-1] + [entry & 0xFFFFF]
        return _NAMES[entry >> 20]


_NAMES = [f"n{i}" for i in range(8)]
_LABELS = 1024
_NODES = {}


def _toy_simulation() -> None:
    if not _NODES:
        rng = random.Random(5)
        for i, name in enumerate(_NAMES):
            table = {
                label: ((i + 1) % 8) << 20 | rng.randrange(16, 1 << 20)
                for label in range(_LABELS)
            }
            _NODES[name] = _Node(name, table)
    heap, seq = [], 0
    for flow in range(300):
        packet = _Packet(flow, 64 + flow % 1400, [flow % _LABELS])
        heapq.heappush(heap, (flow * 1e-5, seq, _NAMES[flow % 8], packet))
        seq += 1
    while seq < 2000:
        now, _, where, packet = heapq.heappop(heap)
        hop = _NODES[where].receive(packet)
        if hop is None or packet.hops > 6:
            packet = _Packet(
                packet.flow, packet.size, [packet.flow * 7 % _LABELS]
            )
            hop = _NAMES[packet.flow % 8]
        packet.labels[-1] %= _LABELS
        heapq.heappush(heap, (now + 1e-4 + packet.size * 8e-9, seq, hop, packet))
        seq += 1


def calibrate() -> float:
    """Host seconds a fixed reference loop takes right now.

    The loop is a toy packet simulation: an event heap, packets swapping
    labels through per-node dict tables, method calls and small objects.
    It touches no code of the program.  On a shared host, speed can
    change by a factor of 1.6 to 2 within seconds (other tenants of the
    machine).  Between the host's slow and fast states this loop's time
    changes by about the same factor as the workloads' (a loop over a
    small heap and dict alone changes by more), so a program time
    divided by the loop times around it measures the program, not the
    host.  The loop runs once
    untimed first, so the caches the previous operation left do not
    count.
    """
    _toy_simulation()
    start = perf_counter()
    _toy_simulation()
    return perf_counter() - start


def _calibrate_median(count=CAL_SAMPLES):
    return statistics.median(calibrate() for _ in range(count))


def _setup(workload):
    """Set up and warm up; returns (scaled, raw) set-up seconds.

    The raw time runs from process start to the end of the warm-up,
    less the calibration before set-up; the scaled one divides it by
    the mean of the calibrations before and after."""
    mark = time.monotonic()
    before = _calibrate_median()
    begin = time.monotonic()
    workload.setup()
    workload.warmup()
    end = time.monotonic()
    after = _calibrate_median()
    t0 = float(os.environ.get("PERFBENCH_T0", T0))
    raw = (mark - t0) + (end - begin)
    return raw * CAL_REF_S / ((before + after) / 2), raw


def _measure(workload, seconds):
    """The timed loop: whole periods, at least ``MIN_REPEATS`` of them,
    for at least ``seconds``.

    A calibration runs between every two operations.  Each operation's
    host time is scaled by ``CAL_REF_S`` over the mean of the two
    calibrations around it: the time it would have taken on a host on
    which the reference loop takes ``CAL_REF_S``.  An operation's cost
    is the median of its scaled repeats.  Throughput is the work of one
    period over the sum of those costs.  The latency percentiles are
    taken over one cost per kind of operation (``workload.kinds``): the
    median of every scaled sample of that kind.  The same figures
    unscaled are recorded beside them.
    """
    period = workload.period
    scaled = [[] for _ in range(period)]
    raw = [[] for _ in range(period)]
    cals = []
    work = done = 0
    start = perf_counter()
    previous = calibrate()
    while True:
        elapsed, units = workload.op()
        current = calibrate()
        cals.append(current)
        index = done % period
        raw[index].append(elapsed)
        scaled[index].append(elapsed * 2 * CAL_REF_S / (previous + current))
        previous = current
        work += units
        done += 1
        if (
            done % period == 0
            and done >= MIN_REPEATS * period
            and perf_counter() - start >= seconds
        ):
            break
    workload.finish()
    repeats = done // period
    kinds = workload.kinds

    def summary(samples):
        cost = [statistics.median(times) for times in samples]
        per_kind = [
            statistics.median(t for times in samples[k::kinds] for t in times)
            for k in range(kinds)
        ]
        return {
            "throughput_per_s": work / repeats / sum(cost),
            "op_p50_ms": statistics.median(per_kind) * 1e3,
            "op_p90_ms": statistics.quantiles(
                per_kind, n=10, method="inclusive"
            )[8] * 1e3,
        }

    record = summary(scaled)
    record["unscaled"] = summary(raw)
    record.update(
        operations=period,
        kinds=kinds,
        repeats=repeats,
        calibration_ms={
            "min": min(cals) * 1e3,
            "median": statistics.median(cals) * 1e3,
            "max": max(cals) * 1e3,
        },
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return record


def _pass(workload):
    start = perf_counter()
    for _ in range(workload.trace_ops):
        workload.op()
    return perf_counter() - start


def _trace(workload, spans_path):
    from probes import Tracer, layer_metrics, network_counters

    # untraced passes before and after the traced one bracket it, so
    # drift over the run does not read as tracing overhead
    first = _pass(workload)
    tracer = Tracer()
    before = network_counters(workload.networks())
    tracer.install()
    try:
        traced = _pass(workload)
    finally:
        tracer.uninstall()
    after = network_counters(workload.networks() + tracer.new_networks)
    untraced = (first + _pass(workload)) / 2
    metrics = layer_metrics(tracer, before, after)
    metrics["trace_overhead"] = traced / untraced
    metrics["trace.untraced_s"] = untraced
    metrics["trace.traced_s"] = traced
    workload.finish()
    tracer.write(spans_path)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace"), required=True
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](args.seed)
    setup_s, raw_setup_s = _setup(workload)
    record = {"setup_s": setup_s, "unscaled_setup_s": raw_setup_s}
    if args.mode == "measure":
        record.update(_measure(workload, args.seconds))
    elif args.mode == "trace":
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz"
        )
        record["per_layer"] = _trace(workload, spans)
        record["spans_file"] = os.path.relpath(spans, ROOT)
    record.update(
        attempted=workload.attempted,
        failed=workload.failed,
        fingerprint=workload.fingerprint,
        facts=workload.facts,
    )
    print(json.dumps(record, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
