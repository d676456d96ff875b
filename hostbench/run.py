"""Host-clock benchmark of the BP-NTT serving simulator.

Usage (from the repository root)::

    python3 hostbench/run.py --workload mixed-2k [--seed 2023]
        [--seconds 5] [--trace 0|1]

``--trace 0`` starts ``procs`` fresh single-threaded worker processes
(``worker.py``) one after another and prints the end-to-end metrics;
``--trace 1`` starts one worker that wraps each layer's entry points
and prints the per-layer metrics.  Both print one ``name = value unit``
line per metric, then one JSON object as the last line, and exit
non-zero when any replay failed a check.  Workloads are defined in
``workloads.py``; what each metric means is in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
TIME_LIMIT_S = 170.0

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "replay_rps": ("req/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

# name -> unit.  Counters and simulated results repeat exactly between
# runs of the same code and seed; COUNTERS are pinned per (workload, seed)
# in pins.json.
PER_LAYER = {
    "serve.workload.build_s": "s",
    "serve.workload.requests": "count",
    "core.compile_s": "s",
    "core.compile_calls": "count",
    "core.instructions_emitted": "count",
    "sram.price_s": "s",
    "sram.price_calls": "count",
    "sram.instructions_priced": "count",
    "serve.pool.profile_calls": "count",
    "serve.pool.profile_hit_ratio": "ratio",
    "backends.model.execute_s": "s",
    "backends.execute_calls": "count",
    "backends.polys_executed": "count",
    "sram.interp_s": "s",
    "sram.instructions_interpreted": "count",
    "sram.ns_per_instruction": "ns",
    "sched.self_s": "s",
    "sched.calls": "count",
    "sched.next_event_self_s": "s",
    "cluster.route_s": "s",
    "cluster.routes": "count",
    "serve.simulator.self_s": "s",
    "serve.metrics.aggregate_s": "s",
    "obs.export_s": "s",
    "obs.export_bytes": "bytes",
    "sim.batches": "count",
    "sim.mean_occupancy": "ratio",
    "sim_p99_ms": "ms",
    "sim_nj_per_req": "nJ",
    "trace.replay_s": "s",
    "trace.rps_ratio": "ratio",
}
COUNTERS = tuple(name for name, unit in PER_LAYER.items()
                 if unit in ("count", "bytes")) + (
    "serve.pool.profile_hit_ratio", "sim.mean_occupancy", "sim_p99_ms",
    "sim_nj_per_req")


class BenchError(Exception):
    """A worker crashed or a check could not run."""


def start_worker(workload: str, seed: int, budget_s: float, trace: bool,
                 deadline: float) -> dict:
    """Run one fresh worker process; returns its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    request = json.dumps({"workload": workload, "seed": seed,
                          "budget_s": budget_s, "trace": trace})
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), request],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} ran past the time limit") from None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited {done.returncode}")
    return json.loads(lines[-1])


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def check_digest(workload: str, seed: int, outs, errors) -> str:
    """All workers agree on the report digest, and it matches any pin.

    Every replay of a run serializes to the same digest (the workers
    check that), so a mismatch here fails all of the run's replays.
    """
    digests = {out["digest"] for out in outs}
    pinned = load_pins()["digests"].get(workload, {}).get(str(seed))
    if len(digests) != 1:
        errors.append(f"workers disagree on the report digest: {sorted(digests)}")
        return "differs between workers"
    digest = digests.pop()
    if pinned is None:
        return f"{digest[:16]} (seed not pinned)"
    if pinned != digest:
        errors.append(f"report digest {digest[:16]} != pinned {pinned[:16]}")
        return f"{digest[:16]} (DIFFERS from pin {pinned[:16]})"
    return f"{digest[:16]} (matches pin)"


def host_times(outs, times) -> dict:
    """The host-clock metrics from each worker's ``times(out)`` record."""
    replays = [s for out in outs for s in times(out)["replays_s"]]
    return {
        "wall_s": statistics.median(times(out)["wall_s"] for out in outs),
        "setup_s": statistics.median(times(out)["setup_s"] for out in outs),
        "replay_rps": outs[0]["requests"] / statistics.median(replays),
    }


def end_to_end(outs) -> dict:
    return {
        **host_times(outs, lambda out: out),
        "peak_rss_mib": statistics.median(out["rss_mib"] for out in outs),
    }


def per_layer(out: dict) -> dict:
    layers = out["layers"]
    setup, replay = layers["setup"], layers["replay"]
    interp = replay["sram.interp"]
    executes = (replay["backends.model.execute"], replay["backends.sram.execute"])
    sched = (replay["sched"], replay["sched.next_event"])
    export = layers["export"]["obs.export"]
    return {
        "serve.workload.build_s": layers["workload"]["serve.workload"]["total_s"],
        "serve.workload.requests": layers["workload"]["serve.workload"]["count"],
        "core.compile_s": setup["core.compile"]["total_s"],
        "core.compile_calls": setup["core.compile"]["spans"],
        "core.instructions_emitted": setup["core.compile"]["count"],
        "sram.price_s": setup["sram.price"]["total_s"],
        "sram.price_calls": setup["sram.price"]["spans"],
        "sram.instructions_priced": setup["sram.price"]["count"],
        "serve.pool.profile_calls": out["profile_calls"],
        "serve.pool.profile_hit_ratio": out["profile_hits"] / out["profile_calls"],
        "backends.model.execute_s": replay["backends.model.execute"]["total_s"],
        "backends.execute_calls": sum(row["spans"] for row in executes),
        "backends.polys_executed": sum(row["count"] for row in executes),
        "sram.interp_s": interp["total_s"],
        "sram.instructions_interpreted": interp["count"],
        "sram.ns_per_instruction": (interp["total_s"] / interp["count"] * 1e9
                                    if interp["count"] else 0.0),
        "sched.self_s": sum(row["self_s"] for row in sched),
        "sched.calls": sum(row["spans"] for row in sched),
        "sched.next_event_self_s": replay["sched.next_event"]["self_s"],
        "cluster.route_s": replay["cluster.route"]["total_s"],
        "cluster.routes": replay["cluster.route"]["spans"],
        "serve.simulator.self_s": replay["serve.simulator"]["self_s"],
        "serve.metrics.aggregate_s": replay["serve.metrics.aggregate"]["total_s"],
        "obs.export_s": export["total_s"],
        "obs.export_bytes": export["count"],
        "sim.batches": out["sim.batches"],
        "sim.mean_occupancy": out["sim.mean_occupancy"],
        "sim_p99_ms": out["sim_p99_ms"],
        "sim_nj_per_req": out["sim_nj_per_req"],
        "trace.replay_s": out["traced_replay_s"],
        "trace.rps_ratio": out["rps_ratio"],
    }


def check_layers(workload: str, seed: int, out: dict, metrics: dict, errors) -> None:
    """Heavy layers recorded spans, two traced replays did the same work,
    self times partition the replay, and the counters repeat the pinned
    run exactly."""
    from spans import LAYERS

    for layer in LAYERS:
        if workload in layer.heavy_on and not any(
                phase[layer.name]["spans"] for phase in out["layers"].values()):
            errors.append(f"layer {layer.name} recorded no spans on {workload}, "
                          "where it does most of its work")
    replay, again = out["layers"]["replay"], out["layers"]["overhead"]
    for name, row in replay.items():
        first, second = (row["spans"], row["count"]), (again[name]["spans"],
                                                       again[name]["count"])
        if first != second:
            errors.append(f"layer {name} recorded (spans, work) {first} in one "
                          f"traced replay and {second} in the next")
    span_s, self_sum = out["replay_span_s"], out["replay_self_sum_s"]
    if abs(span_s - self_sum) > 1e-6 * span_s:
        errors.append(f"self times sum to {self_sum:.6f} s, replay span is "
                      f"{span_s:.6f} s")
    pinned = load_pins()["counters"].get(workload, {}).get(str(seed))
    if pinned is not None:
        for name in COUNTERS:
            if metrics[name] != pinned[name]:
                errors.append(f"counter {name} = {metrics[name]!r}, "
                              f"pinned {pinned[name]!r}")


def print_anchor(anchor: dict) -> None:
    """The paper's Table I BP-NTT row beside the simulated invocation."""
    lat_err = anchor["latency_us"] / anchor["paper_latency_us"] - 1
    e_err = anchor["energy_nj"] / anchor["paper_energy_nj"] - 1
    print(f"  paper anchor (simulated, one table1-14bit NTT invocation of "
          f"batch {anchor['batch']}; Table I implies batch "
          f"{anchor['paper_batch']:g}, see repro/analysis/tables.py):")
    print(f"    cycles     {anchor['cycles']}")
    print(f"    latency    {anchor['latency_us']:.2f} us   paper "
          f"{anchor['paper_latency_us']:.1f} us   model error {lat_err:+.1%}")
    print(f"    energy     {anchor['energy_nj']:.2f} nJ   paper "
          f"{anchor['paper_energy_nj']:.1f} nJ   model error {e_err:+.1%}")
    print("    (an unvalidated model against one published row, not a "
          "validated figure)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"hostbench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import PINNED_SEEDS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pinned = " (pinned)" if args.seed in PINNED_SEEDS else ""
    print(f"hostbench {workload.name} seed={args.seed}{pinned} "
          f"trace={args.trace}: {workload.why}")

    errors = []
    try:
        if args.trace:
            outs = [start_worker(workload.name, args.seed, 0.0, True, deadline)]
            metrics = per_layer(outs[0])
            check_layers(workload.name, args.seed, outs[0], metrics, errors)
            units = PER_LAYER
        else:
            outs = [start_worker(workload.name, args.seed,
                                 args.seconds / workload.procs, False, deadline)
                    for _ in range(workload.procs)]
            metrics = end_to_end(outs)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        digest_errors = []
        digest = check_digest(workload.name, args.seed, outs, digest_errors)
    except BenchError as error:
        print(f"hostbench: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    attempted = sum(out["attempted"] for out in outs)
    failed = attempted if digest_errors else sum(out["failed"] for out in outs)
    errors.extend(digest_errors)
    errors.extend(e for out in outs for e in out["errors"])
    raw = {} if args.trace else host_times(outs, lambda out: out["raw"])
    for name, value in metrics.items():
        line = f"  {name:<30} {value:>16.6g} {units[name]}"
        if name in raw:
            line += f"  (raw {raw[name]:.6g})"
        print(line)
    if raw:
        speed = statistics.median(out["speed"] for out in outs)
        print(f"  host times are at reference speed (speed.py); this host ran "
              f"at {speed:.3f}x it")
    if not args.trace:  # simulated results; the traced run reports them too
        for name in ("sim_p99_ms", "sim_nj_per_req"):
            print(f"  {name:<30} {outs[0][name]:>16.6g} {PER_LAYER[name]} "
                  "(simulated)")
    print(f"  {'failed_frac':<30} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} replays)")
    print(f"  report digest {digest}")
    if args.trace:
        print(f"  tracing overhead: traced replay_rps is "
              f"{metrics['trace.rps_ratio']:.3f} x untraced; self times sum "
              f"to the traced replay span ({outs[0]['replay_self_sum_s']:.4f} s)")
    if "anchor" in outs[0]:
        print_anchor(outs[0]["anchor"])
    for error in errors:
        print(f"  FAILED CHECK: {error}")

    correct = not errors and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
