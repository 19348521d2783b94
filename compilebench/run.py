#!/usr/bin/env python3
"""Compile benchmark of the decoupled CGRA mapper, its CLI and its daemon.

Run from the repository root::

    python3 compilebench/run.py --workload mono-large --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload twice for half the time each, untraced then traced, and prints
the per-layer ledger. ``--workload all`` runs every workload, each in its
own process. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The metric names,
units and directions are listed in ``BENCHMARK.json`` at the root; see
``compilebench/README.md`` for what each workload and layer means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mono-large", "cli-cold", "daemon-cold")

#: the reference loop's duration that reference time is scaled to
REFERENCE_S = 0.0125

#: workloads run on one CPU, with their children: the reference loop then
#: times the core the work ran on. daemon-cold is left free, as its
#: server, client and pool workers run at once.
PINNED = ("mono-large", "cli-cold")

#: ledger layer -> per-layer self-time metric
LAYER_METRICS = {
    "workloads.build": "workloads.build_s",
    "frontend.extract": "frontend.extract_s",
    "opt": "opt.s",
    "graphs.rec_ii": "graphs.rec_ii_s",
    "graphs.critical_path": "graphs.critical_path_s",
    "time": "time.s",
    "space": "space.s",
    "core.feasibility": "core.feasibility_s",
    "core.validate": "core.validate_s",
    "core.mapper": "core.mapper_self_s",
    "client.submit": "client.submit_s",
    "client.wait": "client.wait_s",
    "http.handler": "http.handler_s",
    "service.parse": "service.parse_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "procpool.run": "procpool.run_s",
}

_ENGINE_CALLS = [
    "load_benchmark", "run_pre_mapping_opt", "rec_ii",
    "critical_path_length", "analyze_feasibility", "assert_valid_mapping",
    "MonomorphismMapper.map", "IncrementalTimeSolver.__init__",
    "IncrementalTimeSolver.iter_schedules", "SpaceSolver.solve",
]
#: wrapped functions each traced workload must reach at least once; a
#: rename under src/ then fails the run instead of reading 0 s
EXPECTED_CALLS: Dict[str, List[str]] = {
    "mono-large": _ENGINE_CALLS + ["extract_dfg"],
    "cli-cold": [],
    "daemon-cold": [
        "ServiceClient.submit", "ServiceClient.wait", "ServiceClient.job",
        "ServiceHandler.do_POST", "ServiceHandler.do_GET",
        "MapRequest.from_payload", "ResultStore.get", "ResultStore.put",
        "ProcessWorker.run",
    ],
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def units(kind: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in load_spec()[kind]}


def percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def ops_per_s(latencies: List[float], block: int) -> float:
    """Median throughput over whole passes of ``block`` operations.

    Only the operations' own time counts (the output checks are taken
    out). A run too short for one whole pass is taken as a single pass.
    """
    passes = [latencies[i:i + block]
              for i in range(0, len(latencies) - block + 1, block)]
    return statistics.median(len(chunk) / sum(chunk)
                             for chunk in passes or [latencies])


def end_to_end(ctx) -> Dict[str, float]:
    """The end-to-end metrics; timings in reference time (see README)."""
    last = len(ctx.reference) - 1

    def scaled(wall: float, cpu: float, index: int) -> float:
        # the CPU burned is scaled to a host on which the reference loop,
        # timed next after it, takes REFERENCE_S; waiting (sleeps, I/O,
        # other processes) is kept as measured. The host's drifting speed
        # cancels, the program's own speed shows one to one.
        return wall + cpu * (REFERENCE_S / ctx.reference[min(index, last)]
                             - 1)

    latencies = [scaled(*op) for op in zip(ctx.latencies, ctx.cpu,
                                           ctx.reference_after)]
    latencies_ms = [seconds * 1000 for seconds in latencies]
    wall_ms = [seconds * 1000 for seconds in ctx.latencies]
    print(f"wall clock: setup_s "
          f"{statistics.median(wall for wall, _, _ in ctx.setup):.6g}, "
          f"ops_per_s {ops_per_s(ctx.latencies, ctx.block):.6g}, "
          f"latency_ms_p50 {percentile(wall_ms, 0.50):.6g}, "
          f"latency_ms_p90 {percentile(wall_ms, 0.90):.6g}; CPU share "
          f"{sum(ctx.cpu) / ctx.busy:.3g}; reference loop median "
          f"{statistics.median(ctx.reference) * 1000:.4g} ms over "
          f"{len(ctx.reference)} timings", file=sys.stderr)
    return {
        "setup_s": statistics.median(scaled(*s) for s in ctx.setup),
        "ops_per_ref_s": ops_per_s(latencies, ctx.block),
        "latency_ref_ms_p50": percentile(latencies_ms, 0.50),
        "latency_ref_ms_p90": percentile(latencies_ms, 0.90),
        "peak_rss_mb": peak_rss_mb(),
        "ii_sum": float(sum(ctx.ii.values())),
        "success_rate": 1.0 - len(ctx.failures) / max(ctx.attempted, 1),
    }


def per_layer(untraced, traced, names: List[str]) -> Dict[str, float]:
    import ledger

    values = dict.fromkeys(names, 0.0)
    counts = traced.counts
    ops = len(traced.latencies)
    if traced.workload == "cli-cold":
        # timed from outside: interpreter start, import, then the rest
        values["cli.interp_s"] = counts["cli.interp"]
        values["cli.import_s"] = counts["cli.import"]
        values["cli.map_s"] = (traced.busy - values["cli.interp_s"]
                               - values["cli.import_s"])
        unattributed = 0.0
    else:
        shares = ledger.attribute(traced.requests, traced.spans)
        unattributed = shares.pop("unattributed", 0.0)
        for layer, seconds in shares.items():
            values[LAYER_METRICS[layer]] = seconds
    calls = traced.calls
    space_calls = calls["SpaceSolver.solve"]
    values.update({
        "traced_s": traced.busy,
        "unattributed_s": unattributed,
        "trace_overhead": (traced.busy / ops)
        / (untraced.busy / len(untraced.latencies)) - 1.0,
        "opt.nodes_removed": counts["opt.nodes_removed"],
        "time.schedules": counts["time.schedules"],
        "time.conflicts": counts["time.conflicts"],
        "space.calls": float(space_calls),
        "space.nodes": counts["space.nodes"],
        "space.backtracks": counts["space.backtracks"],
        "space.found_ratio": counts["space.found"] / max(space_calls, 1),
        "core.iis_tried": counts["core.iis_tried"],
        "client.polls": counts["client.polls"],
        "http.requests": float(calls["ServiceHandler.do_GET"]
                               + calls["ServiceHandler.do_POST"]),
        "store.gets": counts["store.gets"],
        "engine_s": counts["engine_s"],
        "procpool.ipc_s": values["procpool.run_s"] - counts["engine_s"],
        "procpool.retries": counts["service.retries"],
    })
    layers = sum(values[name] for name in LAYER_METRICS.values()) + sum(
        values[name] for name in ("cli.interp_s", "cli.import_s",
                                  "cli.map_s"))
    if abs(layers + unattributed - traced.busy) > 1e-6 * max(traced.busy, 1):
        raise SystemExit("ledger does not sum to the traced wall clock")
    return values


def run_one(args) -> dict:
    import workloads

    def context(seconds: float, traced: bool = False,
                probe_setup: bool = True):
        ctx = workloads.Context(args.workload, args.seed, seconds,
                                args.limit, traced, probe_setup)
        workloads.RUNNERS[args.workload](ctx)
        return ctx

    if args.workload in PINNED:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not args.trace:
        ctx = context(args.seconds)
        contexts = [ctx]
        metrics = end_to_end(ctx)
        kind = "end_to_end"
    else:
        untraced = context(args.seconds / 2, probe_setup=False)
        traced = context(args.seconds / 2, traced=True, probe_setup=False)
        contexts = [untraced, traced]
        missing = [name for name in EXPECTED_CALLS[args.workload]
                   if not traced.calls[name]]
        if missing:
            raise SystemExit(f"{args.workload}: traced wrappers recorded no "
                             f"calls: {', '.join(missing)}")
        metrics = per_layer(untraced, traced, list(units("per_layer")))
        kind = "per_layer"
    failures = [why for ctx in contexts for why in ctx.failures]
    for why in failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    unit_of = units(kind)
    return {
        "correct": not failures,
        "attempted": sum(ctx.attempted for ctx in contexts),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]}
                    for name in unit_of},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process; metrics keyed by both."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.limit is not None:
            command += ["--limit", str(args.limit)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"{workload}: exit {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def render(result: dict) -> str:
    lines = [f"correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="map only this many seeded cells (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(ROOT, ".compilebench_tmp"), exist_ok=True)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(render(result))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
