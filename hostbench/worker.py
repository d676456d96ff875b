"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

Usage: ``python3 hostbench/worker.py '<json>'`` with the keys
``workload``, ``seed``, ``budget_s`` and ``trace``.

Untraced, the process times its own cold path as a ``repro.cli serve``
user sees it (import, trace build, pool set-up, first replay, rendered
report), then replays the trace warm until the next replay would
overrun ``budget_s`` (at least once).
Traced, it wraps each layer's entry points (see ``spans.py``) and
records set-up, one warm replay and the exporters under the spans;
two more warm replays without spans and one more with them give the
tracing overhead, at reference speed like the untraced times.

Every replay is checked after its timed region: every request served,
the ``serialize_report`` digest equal to the first replay's, and every
result equal to ``repro.serve.gold_result`` (checked once, then held
equal across replays).  The last stdout line is one JSON object.
"""

import time

T0 = time.perf_counter()  # before `import repro`: the cold path starts here

from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, setup_pool  # noqa: E402

import repro.obs.exporters as exporters  # noqa: E402
import repro.serve.metrics as serve_metrics  # noqa: E402
from repro.serve import gold_result  # noqa: E402

SPAN_DIR = ROOT / ".hostbench"


def digest(report) -> str:
    # Looked up through the module so a traced run's wrapper sees it.
    text = serve_metrics.serialize_report(report)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def served_all(report, trace) -> bool:
    return report.count == len(trace) and not report.drops


def gold_mismatches(report) -> int:
    return sum(list(response.result) != gold_result(response.request)
               for response in report.responses)


def sim_metrics(report) -> dict:
    return {
        "sim_p99_ms": report.overall.p99_ms,
        "sim_nj_per_req": report.total_energy_nj / report.count,
        "sim.batches": len(report.batches),
        "sim.mean_occupancy": report.mean_occupancy,
    }


def paper_anchor(pool, trace) -> dict:
    """Simulated per-invocation price of the table1 NTT vs Table I."""
    from repro.analysis.tables import BP_NTT_PAPER

    profile = pool.profile(trace[0].batch_key, backend="sram")
    return {
        "cycles": profile.cycles,
        "latency_us": profile.latency_s * 1e6,
        "energy_nj": profile.energy_nj,
        "batch": profile.capacity,
        "paper_latency_us": BP_NTT_PAPER.latency_s * 1e6,
        "paper_energy_nj": BP_NTT_PAPER.energy_j * 1e9,
        "paper_batch": BP_NTT_PAPER.batch,
    }


class Checker:
    """Counts replays attempted and failed against the first replay."""

    def __init__(self, trace):
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None
        self.results = None

    def first(self, report) -> None:
        self.attempted += 1
        self.digest = digest(report)
        self.results = [response.result for response in report.responses]
        problems = []
        if not served_all(report, self.trace):
            problems.append(f"served {report.count} of {len(self.trace)}")
        bad = gold_mismatches(report)
        if bad:
            problems.append(f"{bad} results differ from gold_result")
        self._record(problems)

    def again(self, report) -> None:
        self.attempted += 1
        problems = []
        if not served_all(report, self.trace):
            problems.append(f"served {report.count} of {len(self.trace)}")
        if digest(report) != self.digest:
            problems.append("report digest differs from the first replay")
        if [response.result for response in report.responses] != self.results:
            problems.append("results differ from the first replay")
        self._record(problems)

    def crashed(self, error: BaseException) -> None:
        self.attempted += 1
        self._record([f"{type(error).__name__}: {error}"])
        traceback.print_exc(file=sys.stderr)

    def _record(self, problems) -> None:
        if problems:
            self.failed += 1
            self.errors.extend(problems)


def timed(fn, *args):
    """``fn(*args)`` and the wall-clock window ``(start, end)`` it ran in."""
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, (start, time.perf_counter())


def run_untraced(workload, seed: int, budget_s: float, probe) -> dict:
    """Cold path, then warm replays; every time is a wall-clock window
    ``(start, end)`` that ``probe`` turns into reference seconds."""
    config = workload.replay_config(seed)
    trace = workload.build_trace(config)
    pool, replay = workload.build(config)
    setup = (time.perf_counter(),)
    setup_pool(pool, trace, config.backend)
    setup += (time.perf_counter(),)
    report = replay(trace)
    windows = [(setup[1], time.perf_counter())]
    serve_metrics.format_serve_report(report)
    wall = (T0, time.perf_counter())

    check = Checker(trace)
    check.first(report)
    out = {"requests": len(trace), **sim_metrics(report)}
    if config.backend == "sram":
        out["anchor"] = paper_anchor(pool, trace)
    del report

    # The first replay already ran on a set-up pool, so it is a sample
    # too; warm replays follow until the next one would overrun the
    # budget, at least one.
    warm_start = time.perf_counter()
    while True:
        gc.collect()
        start = time.perf_counter()
        try:
            report = replay(trace)
        except Exception as error:  # a failed replay is counted, not fatal
            check.crashed(error)
            break
        windows.append((start, time.perf_counter()))
        check.again(report)
        del report
        spent = time.perf_counter() - warm_start
        if spent + statistics.median(b - a for a, b in windows) > budget_s:
            break
    probe.stop()

    out["wall_s"], out["speed"] = probe.window(*wall)
    out["setup_s"] = probe.window(*setup)[0]
    out["replays_s"] = [probe.window(*window)[0] for window in windows]
    out["raw"] = {"wall_s": wall[1] - wall[0], "setup_s": setup[1] - setup[0],
                  "replays_s": [b - a for a, b in windows]}
    out["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**out, **_outcome(check)}


def run_traced(workload, seed: int, probe) -> dict:
    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    recorder.phase = "workload"
    config = workload.replay_config(seed)
    trace = workload.build_trace(config)
    pool, replay = workload.build(config)
    recorder.phase = "setup"
    setup_pool(pool, trace, config.backend)

    recorder.uninstall()
    check = Checker(trace)
    report, untraced = timed(replay, trace)
    check.first(report)
    del report

    recorder.install()
    recorder.phase = "replay"
    report, traced = timed(replay, trace)
    recorder.phase = "export"
    serve_metrics.serialize_report(report)
    serve_metrics.format_serve_report(report)
    exporters.format_prometheus(report.registry)
    recorder.uninstall()
    check.again(report)
    sim = sim_metrics(report)
    del report

    # A second untraced/traced pair, so the overhead is not one sample.
    report, untraced2 = timed(replay, trace)
    check.again(report)
    del report
    recorder.install()
    recorder.phase = "overhead"
    report, traced2 = timed(replay, trace)
    recorder.uninstall()
    check.again(report)
    del report
    probe.stop()

    def reference_s(*windows):
        return sum(probe.window(*window)[0] for window in windows)

    out = {"requests": len(trace), "traced_replay_s": traced[1] - traced[0],
           "rps_ratio": reference_s(untraced, untraced2) / reference_s(traced, traced2),
           **sim,
           "layers": {phase: recorder.summary(phase) for phase in
                      ("workload", "setup", "replay", "export", "overhead")}}
    out.update(_profile_hits(recorder), **_partition(recorder))
    if config.backend == "sram":
        out["anchor"] = paper_anchor(pool, trace)
    SPAN_DIR.mkdir(exist_ok=True)
    recorder.write_jsonl(SPAN_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    return {**out, **_outcome(check)}


def _profile_hits(recorder) -> dict:
    """A profile call that priced nothing was served from the pool cache."""
    priced = recorder.has_descendant("sram.price")
    calls = [i for i, span in enumerate(recorder.spans)
             if span[0] == "serve.pool.profile"
             and span[1] in ("setup", "replay")]
    return {"profile_calls": len(calls),
            "profile_hits": sum(not priced[i] for i in calls)}


def _partition(recorder) -> dict:
    """Self times of the traced replay's spans, summed, vs its root span."""
    own = recorder.self_times()
    roots = [i for i, span in enumerate(recorder.spans)
             if span[1] == "replay" and span[2] < 0]
    if len(roots) != 1 or recorder.spans[roots[0]][0] != "serve.simulator":
        raise RuntimeError(f"traced replay has roots {roots}, expected one "
                           "ServingSimulator.replay span")
    root = roots[0]
    span_s = recorder.spans[root][4] - recorder.spans[root][3]
    self_sum = sum(own[i] for i, span in enumerate(recorder.spans)
                   if span[1] == "replay")
    return {"replay_span_s": span_s, "replay_self_sum_s": self_sum}


def _outcome(check: Checker) -> dict:
    return {"attempted": check.attempted, "failed": check.failed,
            "errors": check.errors[:10], "digest": check.digest}


def main() -> int:
    args = json.loads(sys.argv[1])
    workload = WORKLOADS[args["workload"]]
    if args["trace"]:
        out = run_traced(workload, args["seed"], PROBE)
    else:
        out = run_untraced(workload, args["seed"], args["budget_s"], PROBE)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
