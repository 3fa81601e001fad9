"""Wall-clock benchmark of the transpose simulator and its server.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload run_sbnt_1d --seed 7 --seconds 55 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time, ops per
second, median and 90th-percentile op time, peak memory); ``--trace 1``
is a separate run of the same workload and seed that records spans
around the calls into each layer and reports the per-layer split.
``--workload all`` runs every workload one after another, each in its
own process.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-counts`` rewrites ``counts.json``, the exact simulated
counts every run is checked against; do that only for a change that
means to alter what the simulator computes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = Path(__file__).resolve()
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem sizes; tiny is for the benchmark's tests")
    parser.add_argument("--setup-probes", type=int, default=SETUP_PROBES)
    parser.add_argument("--record-counts", action="store_true",
                        help="rewrite counts.json from the current program")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_args(args, workload: str) -> list[str]:
    return [
        sys.executable, str(SCRIPT), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale,
        "--setup-probes", str(args.setup_probes),
    ]


def measure_setup(args) -> list[float]:
    """Seconds from process start until ready to time, per fresh process."""
    samples = []
    for _ in range(args.setup_probes):
        began = perf_counter()
        proc = subprocess.Popen(
            child_args(args, args.workload) + ["--probe-setup"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            ready = perf_counter() - began
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed (exit {proc.returncode}, said {line!r})"
            )
        samples.append(ready)
    return samples


def report(args, result, setup: list[float]) -> dict:
    """Print the human-readable table; return the JSON result line."""
    from perfbench.workloads import END_TO_END, PER_LAYER, UNDECLARED, median

    if setup:
        result.put("setup_s", median(setup), f"median of {len(setup)} set-ups")
    names = END_TO_END if not args.trace else tuple(PER_LAYER)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    shown = names if args.trace else names + UNDECLARED
    for name in shown:
        value, unit, samples = result.metrics[name]
        print(f"  {name:32s} {value:14.6g} {unit:6s} {samples}")
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"  {'failed_ratio':32s} {ratio:14.6g} {'ratio':6s} "
          f"{result.failed} of {result.attempted} ops")
    for note in result.notes:
        print(f"  {note}")
    for error in result.errors:
        print(f"  FAILED: {error}")
    return {
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0],
                   "unit": result.metrics[name][1]}
            for name in names
        },
    }


def run_all(args, names) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for workload in names:
        proc = subprocess.run(
            child_args(args, workload), stdout=subprocess.PIPE, text=True
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(sys.argv[1:] if argv is None else argv, workloads)
    if args.record_counts:
        doc = {scale: workloads.record_counts(scale)
               for scale in ("full", "tiny")}
        workloads.COUNTS_PATH.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {workloads.COUNTS_PATH}")
        return 0
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.probe_setup:
        workload = workloads.build(args.workload, args.seed, args.scale)
        print("ready", flush=True)
        workload.close()
        return 0

    setup = [] if args.trace else measure_setup(args)
    workload = workloads.build(args.workload, args.seed, args.scale)
    try:
        result = workload.run(args.seconds, traced=bool(args.trace))
    finally:
        workload.close()
    if result.tracer is not None:
        out = ROOT / "perfbench" / "out" / (
            f"spans-{args.workload}-seed{args.seed}.json"
        )
        result.tracer.write(out)
        result.notes.append(f"spans written to {out.relative_to(ROOT)}")
    line = report(args, result, setup)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
