"""Show that the benchmark's correctness checks count what they should.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Feeds each workload family one deliberate fault and checks that
``failed`` counts it:

* ``rtl`` -- a transaction result with a wrong cycle count;
* ``forward`` -- a packet removed before it is counted as delivered;
* ``chaos`` -- a report that differs from the earlier run of the same
  (example, seed) by one byte, and a run that raises.

Exits 0 when every fault was counted, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import ChaosWorkload, ForwardWorkload, RTLWorkload  # noqa: E402


def wrong_cycle_count() -> bool:
    workload = RTLWorkload(seed=1)
    workload.setup()
    i = next(i for i, txns in enumerate(workload.round) if txns[0][0] == "search")
    good, table6 = workload.expected[i][0], workload.table6[i][0]
    workload._check(good, good, table6)
    clean = workload.failed
    workload._check(good[:-1] + (good[-1] + 3,), good, table6)
    return clean == 0 and workload.failed == 1


def dropped_packet() -> bool:
    workload = ForwardWorkload(seed=1)
    workload.setup()
    workload.warmup()
    for _ in range(3):
        workload.op()
    # one more slice, losing one delivery before it is counted
    workload._now += workload.SLICE_S
    workload.net.run(until=workload._now)
    workload.net.deliveries.pop()
    workload._consume(record_latency=False)
    workload.finish()
    return workload.failed == 1


class _Perturbed:
    """A chaos report whose JSON gained one trailing byte."""

    def __init__(self, report) -> None:
        self.report = report

    def to_json(self) -> str:
        return self.report.to_json() + " "


def perturbed_and_raising_reports() -> bool:
    workload = ChaosWorkload(seed=1)
    workload.setup()
    workload.paths = workload.paths[:2]
    workload.warmup()
    # skip to the sweep that repeats the warm-up's seed
    workload._index = (len(workload.seeds) - 1) * len(workload.paths)
    workload.op()
    clean = workload.failed
    run = workload._run
    workload._run = lambda scenario, seed: _Perturbed(run(scenario, seed))
    workload.op()
    perturbed = workload.failed

    def boom(scenario, seed):
        raise RuntimeError("injected")

    workload._run = boom
    workload.op()
    return clean == 0 and perturbed == 1 and workload.failed == 2


def main() -> int:
    checks = [
        ("rtl: wrong cycle count is counted", wrong_cycle_count),
        ("forward: dropped packet is counted", dropped_packet),
        ("chaos: perturbed and raising runs are counted",
         perturbed_and_raising_reports),
    ]
    ok = True
    for label, check in checks:
        passed = check()
        ok = ok and passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
