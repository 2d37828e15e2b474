"""Benchmark of the ahmsa pipeline.

    python3 perfbench/run.py --workload {extract,loso} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  The inputs are rendered from ``--seed`` by
``inputs.py`` in a separate process, then the workload (see ``workloads.py``
for what each one is and why it was chosen) runs as a closed loop for
``--seconds``, one unit after another, in this process.  The program is
imported from ``src/``; without it the benchmark exits 2.

``--trace 0`` measures with the program untouched and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced units with units run under the
wrappers of ``spans.py``, reports the per-layer metrics, including the
tracing overhead, and writes its spans to
``.bench_work/spans/<workload>-seed<N>.jsonl``.  Every unit's result (the
``.flow`` maps or ``metrics.json``) is checked and hashed; all hashes of a run
must agree, traced or not.

The second-to-last line of standard output is a JSON detail record (machine
block, latency sample counts and tail percentile, hashes, computed counts,
check failures); the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import common
import machine
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
SUBPROCESS_TIMEOUT_S = 120


def _script(name: str, *args) -> str:
    done = subprocess.run([sys.executable, str(HERE / name), *map(str, args)],
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
                          cwd=common.ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{name} {' '.join(map(str, args))} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return done.stdout


def _inputs(workload: str, seed: int, work: Path) -> Path:
    """Inputs for (workload, seed), rendered once per version of the program
    and the benchmark and kept under ``.bench_work/inputs`` for later runs."""
    version = common.file_sha256(sorted([*common.SRC.rglob("*.py"), *HERE.glob("*.py")]))
    cached = common.WORK / "inputs" / f"{workload}-seed{seed}-{version[:16]}"
    if not cached.is_dir():
        fresh = work / "inputs"
        _script("inputs.py", workload, seed, fresh)
        cached.parent.mkdir(parents=True, exist_ok=True)
        try:
            fresh.rename(cached)
        except OSError:
            if not cached.is_dir():  # not a concurrent run that got there first
                raise
    return cached


def measure(workload, seconds: float, tracer, probe=None,
            probes: int = 0) -> tuple[list[workloads.UnitResult], list[float]]:
    """Closed loop for ``seconds`` of units; with a tracer every second unit
    is traced.  ``probe`` (a set-up timing) runs ``probes`` times, spread
    evenly over the run so the median does not hang on one moment of a shared
    machine; its own time is added to the deadline."""
    units: list[workloads.UnitResult] = []
    setups: list[float] = []
    deadline = perf_counter() + seconds
    measured = 0.0
    while True:
        if len(setups) < probes and measured >= len(setups) * seconds / probes:
            began = perf_counter()
            setups.append(probe())
            deadline += perf_counter() - began
        traced = tracer is not None and len(units) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = workload.unit()
        finally:
            if traced:
                tracer.uninstall()
        result.traced = traced
        units.append(result)
        measured += result.seconds
        enough = tracer is None or len(units) >= 2
        if enough and perf_counter() >= deadline:
            break
    while len(setups) < probes:
        setups.append(probe())
    return units, setups


def end_to_end(workload, units, setup_s: float) -> tuple[dict, dict]:
    plain = [u for u in units if not u.traced]
    latency = common.latency_summary([x for u in plain for x in u.latencies])
    uf1, uar = workload.quality()
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (sum(u.samples for u in plain) / sum(u.seconds for u in plain),
                          "1/s"),
        "latency_ms_p50": (latency["p50_ms"], "ms"),
        "latency_ms_tail": (latency["tail_ms"], "ms"),
        "wall_s": (statistics.median(u.seconds for u in plain), "s"),
        "uf1": (uf1, "share"),
        "uar": (uar, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }
    return metrics, latency


def per_layer(workload, units, tracer, ahmsa) -> dict:
    metrics = workloads.layer_metrics(tracer, ahmsa)
    traced = statistics.median(u.seconds for u in units if u.traced)
    plain = statistics.median(u.seconds for u in units if not u.traced)
    metrics["trace.overhead_share"] = ((traced - plain) / plain, "share")
    return metrics


def run(args) -> tuple[dict, dict]:
    ahmsa = common.import_program()
    work = common.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        inputs_dir = _inputs(args.workload, args.seed, work)
        paths = common.input_paths(inputs_dir)
        workload = workloads.WORKLOADS[args.workload](ahmsa, paths, work)
        tracer = spans.Tracer(ahmsa) if args.trace else None

        def probe() -> float:
            return float(_script("probe.py", args.workload, inputs_dir,
                                 work / "probe-out").strip())

        units, setups = measure(workload, args.seconds, tracer, probe,
                                0 if args.trace else SETUP_PROBES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = sorted({u.digest for u in units})
    problems = [p for u in units for p in u.problems]
    if len(digests) > 1:
        problems.append(f"unit results differ: {digests}")
        for u in units:
            if u.digest != units[0].digest:
                u.failed = u.attempted
    if args.trace:
        metrics = per_layer(workload, units, tracer, ahmsa)
        latency = None
        spans_path = common.WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans_path)
    else:
        metrics, latency = end_to_end(workload, units, statistics.median(setups))
        spans_path = None

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.machine_block(),
        "setup_probes_s": setups,
        "units": {"untraced": sum(not u.traced for u in units),
                  "traced": sum(u.traced for u in units)},
        "latency": latency and {"unit": workload.latency_unit, **latency},
        "result_sha256": digests[0] if len(digests) == 1 else digests,
        "computed_counts": {
            f"optflow.pixel_iters.{side}px": workloads.tvl1_pixel_iters(ahmsa, side)
            for side in (64, 128)},
        "problems": problems,
        "spans_file": spans_path and str(spans_path),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail, result = run(args)
    except common.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
