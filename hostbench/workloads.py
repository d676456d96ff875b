"""The benchmark's workloads: exact inputs, and how each one is replayed.

Every workload is an open-loop Poisson trace on the *simulated* clock
(``ReplayConfig.build_trace`` at a stated rate), replayed by the host
as one offline job.  Host throughput is therefore stated at a fixed
trace size: where a workload names ``limit``, only the first ``limit``
requests of the generated trace are replayed, so the amount of work
does not depend on how many arrivals the seed happened to draw.

The seed is the only input a run varies; the same seed builds the same
trace, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 2023
HELD_OUT_SEED = 7
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# cluster16-tiny runs on the toy ring of benchmarks/bench_cluster_scaling.py:
# compile and payload math cost almost nothing there, so the event loop,
# the schedulers, the router and aggregation do the host work.
CLUSTER_RING = "hostbench-ring16"
CLUSTER_SCENARIO = "hostbench-cluster16"
CLUSTER_CHIPS = 16


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``config`` holds the :class:`repro.serve.ReplayConfig` fields (seed
    excluded); ``limit`` truncates the trace to a fixed request count;
    ``pool`` overrides :class:`repro.serve.PoolConfig` geometry;
    ``procs`` is how many fresh processes one untraced run starts, each
    contributing one cold ``wall_s``/``setup_s`` sample.
    """

    name: str
    why: str
    config: Dict[str, Any]
    limit: Optional[int] = None
    pool: Dict[str, Any] = field(default_factory=dict)
    procs: int = 1
    prepare: Optional[Callable[[], None]] = None

    def replay_config(self, seed: int):
        from repro.serve import ReplayConfig

        if self.prepare is not None:
            self.prepare()
        return ReplayConfig(seed=seed, **self.config)

    def build_trace(self, config) -> List:
        trace = config.build_trace()
        if self.limit is None:
            return trace
        if len(trace) < self.limit:
            raise RuntimeError(
                f"{self.name}: seed {config.seed} drew {len(trace)} requests, "
                f"fewer than the workload's {self.limit}"
            )
        return trace[: self.limit]

    def build(self, config) -> Tuple[Any, Callable]:
        """A cold pool and a ``replay(trace, tracer=None)`` callable.

        Single-chip workloads use ``ReplayConfig.build_simulator``.  The
        cluster workload needs a pool geometry ``ReplayConfig`` does not
        carry, so it assembles what ``repro.cluster.ClusterSimulator``
        would (the ``cluster:<inner>`` scheduler plus the per-chip
        annotation) around an explicit :class:`EnginePool`.
        """
        from repro.serve import EnginePool, PoolConfig, ServingSimulator

        pool = EnginePool(PoolConfig(size=config.pool_size,
                                     subarrays=config.subarrays, **self.pool))
        if config.chips == 1:
            return pool, config.build_simulator(pool).replay

        from repro.cluster import annotate_cluster_metrics

        options = config.effective_scheduler_options()
        options.update(chips=config.chips, router=config.router,
                       router_options=dict(config.router_options))
        simulator = ServingSimulator(
            pool, config.batch_policy(), backend=config.backend,
            scheduler=f"cluster:{config.scheduler}",
            scheduler_options=options,
        )

        def replay(trace, tracer=None):
            report = simulator.replay(trace, tracer=tracer)
            annotate_cluster_metrics(report, config.chips)
            return report

        return pool, replay


def setup_pool(pool, trace, backend: str) -> None:
    """Pool cold start: price every distinct batch key of the trace.

    ``EnginePool.profile`` compiles each key's programs and prices them
    statically; this is the work every fresh process pays before its
    first batch.
    """
    for key in sorted({request.batch_key for request in trace}, key=repr):
        pool.profile(key, backend=backend)


def _prepare_cluster() -> None:
    """Register the toy ring and its traffic mix (idempotent)."""
    from repro.ntt.params import STANDARD_PARAMS, NTTParams
    from repro.serve import available_scenarios, register_scenario
    from repro.serve.workload import MixComponent, Scenario

    STANDARD_PARAMS.setdefault(
        CLUSTER_RING, NTTParams(n=16, q=97, name="hostbench cluster ring"))
    if CLUSTER_SCENARIO in available_scenarios():
        return
    # 60% polymul over 97 long-lived operands (81 shared, 16 owned by
    # the hot tenant the router replicates x6), 40% operand-less ntt.
    scenario = Scenario(CLUSTER_SCENARIO, (
        MixComponent("mul", "polymul", CLUSTER_RING, 0.5, operand_pool=81,
                     tenant="handshake"),
        MixComponent("mul-hot", "polymul", CLUSTER_RING, 0.1,
                     operand_pool=16, tenant="hot"),
        MixComponent("ntt", "ntt", CLUSTER_RING, 0.4, tenant="signing"),
    ))
    register_scenario(CLUSTER_SCENARIO, lambda: scenario)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mixed-2k",
        why=("default serve mix at 2000/s: cold start compiles and prices "
             "8 programs incl. he-16bit, warm replay is gold NTT math"),
        config=dict(scenario="mixed", rate=2000.0, duration=1.0),
    ),
    Workload(
        name="cluster16-tiny",
        why=("16-chip cluster:fifo + affinity router on a 16-point ring: "
             "event loop, schedulers and aggregation do the work"),
        config=dict(scenario=CLUSTER_SCENARIO, rate=3.2e7, duration=2.5e-4,
                    pool_size=2, max_wait_ms=0.2, chips=CLUSTER_CHIPS,
                    router="affinity",
                    router_options={"replicate": {"": 3, "hot": 6}}),
        limit=4000,
        pool=dict(rows=32, cols=32),
        procs=5,
        prepare=_prepare_cluster,
    ),
    Workload(
        name="sram-table1",
        why=("the paper's table1-14bit NTT run on the bit-line interpreter "
             "(sram backend): one full batch of 8 per replay"),
        config=dict(scenario="ntt", rate=1e8, duration=1e-6,
                    backend="sram", pool_size=1),
        limit=8,
        procs=3,
    ),
)}
