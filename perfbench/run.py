"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rtl --seed 1 --seconds 20 --trace 0

Workloads: ``rtl``, ``forward``, ``batched``, ``chaos`` (see
``perfbench/README.md``).  With ``--trace 0`` the run starts three fresh
worker processes one after another: one measures the timed loop, two
more only set up, so ``setup_s`` is the median of three.  With
``--trace 1`` one worker runs the traced pass and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is the JSON result.  A full record goes to
``.perfbench_out/result-<workload>-seed<seed>-trace<t>.json``.

The exit code is 0 on a completed run (even one whose outputs failed
their checks: ``correct`` says so), 2 when the checkout has no
``src/repro`` to run, 1 when a worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from spec import LAYER_MAP, NAMED  # noqa: E402

#: Per-worker time limits (seconds): a whole run stays under 180 s.
SETUP_TIMEOUT = 35
RUN_MARGIN = 60


class WorkerError(RuntimeError):
    pass


def _worker(workload, seed, seconds, mode, timeout):
    env = dict(os.environ)
    env["PERFBENCH_T0"] = repr(time.monotonic())
    # a fixed string-hash seed keeps dict and set layouts, and so the
    # host time they cost, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(
            f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simulator benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"error: no simulator sources under {os.path.join(ROOT, 'src')}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]

    machine = _machine(args.seed)
    try:
        if args.trace:
            workers = [
                _worker(args.workload, args.seed, args.seconds, "trace",
                        args.seconds * 3 + RUN_MARGIN)
            ]
        else:
            workers = [
                _worker(args.workload, args.seed, args.seconds, "measure",
                        args.seconds + RUN_MARGIN)
            ]
            for _ in range(2):
                workers.append(
                    _worker(args.workload, args.seed, args.seconds, "setup",
                            SETUP_TIMEOUT)
                )
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    main_record = workers[0]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    # every worker fingerprints the same seeded warm-up pass: any
    # disagreement is a simulated output that depends on the process
    fingerprints = {w["fingerprint"] for w in workers}
    attempted += len(workers) - 1
    failed += len(fingerprints) - 1

    if args.trace:
        values = main_record["per_layer"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": main_record["peak_rss_mb"],
            "throughput_per_s": main_record["throughput_per_s"],
            "op_p50_ms": main_record["op_p50_ms"],
            "op_p90_ms": main_record["op_p90_ms"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    error_rate = failed / attempted if attempted else 0.0

    print(f"workload {args.workload} seed {args.seed}: {why}")
    print("machine " + json.dumps(machine, sort_keys=True))
    named = NAMED[args.workload]
    for name, metric in metrics.items():
        label, unit = named.get(name, (name, metric["unit"]))
        print(f"  {label:32s} {metric['value']:.6g} {unit}")
    if not args.trace:
        print(f"  {'setup_s samples':32s} "
              + " ".join(f"{w['setup_s']:.4f}" for w in workers) + " s")
        print(f"  {'unscaled setup_s samples':32s} "
              + " ".join(f"{w['unscaled_setup_s']:.4f}" for w in workers)
              + " s")
        for name, value in main_record["unscaled"].items():
            print(f"  {'unscaled ' + name:32s} {value:.6g}")
        cal = main_record["calibration_ms"]
        print(f"  {'calibration min/median/max':32s} {cal['min']:.4f} "
              f"{cal['median']:.4f} {cal['max']:.4f} ms")
        print(f"  {'timed operations':32s} {main_record['operations']} "
              f"distinct x {main_record['repeats']} repeats")
    print(f"  {'error_rate':32s} {error_rate:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(f"  {'fingerprint':32s} {main_record['fingerprint']}")
    for key, value in sorted(main_record["facts"].items()):
        print(f"  {key:32s} {value}")

    record = {
        "workload": args.workload,
        "why": why,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": metrics,
        "named": {
            named[name][0]: {"value": values[name], "unit": named[name][1]}
            for name in named if name in values
        },
        "error_rate": error_rate,
        "attempted": attempted,
        "failed": failed,
        "fingerprint": main_record["fingerprint"],
        "fingerprints_agree": len(fingerprints) == 1,
        "facts": main_record["facts"],
        "workers": workers,
    }
    if args.trace:
        record["layer_map"] = LAYER_MAP
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR,
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, sort_keys=True, indent=2, default=str)
        handle.write("\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
