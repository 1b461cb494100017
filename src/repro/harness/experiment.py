"""The experiment runner: one :class:`ExperimentSpec` → metrics.

``run_experiment(spec)`` builds the simulator, topology, and protocol
machinery, materializes the Poisson workload, launches each flow's agents
at its arrival time, and runs until every foreground flow completes (or a
safety horizon passes).  It returns an :class:`ExperimentResult` bundling
flow records, FCT statistics, loss accounting, and — for PASE —
control-plane overhead counters.

:class:`ExperimentSpec` is the one canonical description of a run; every
entry point (``sweep_loads``, ``repro.runner`` descriptors, the CLIs, the
benchmark suite) constructs a spec.  The historical keyword signature
``run_experiment(protocol, scenario, load, ...)`` still works through a
deprecation shim but new code should build specs.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional

from repro.core import PaseConfig
from repro.core.control_plane import PaseControlPlane
from repro.faults import FaultInjector, FaultSchedule
from repro.metrics.faults import FaultCounters
from repro.metrics.overhead import ControlPlaneCounters, NetworkCounters
from repro.metrics.stats import FlowStats
from repro.sim.engine import Simulator
from repro.transports.flow import Flow
from repro.workloads.generator import WorkloadConfig, generate_workload

from repro.harness.protocols import ProtocolBinding, make_binding
from repro.harness.scenarios import Scenario


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines one run, as immutable plain data.

    Field names deliberately mirror the historical ``run_experiment``
    keywords, so legacy call sites convert mechanically::

        run_experiment("pase", scn, 0.5, num_flows=40, seed=7)
        # becomes
        run_experiment(ExperimentSpec("pase", scn, 0.5, num_flows=40, seed=7))

    ``binding_overrides`` carries extra keyword arguments for
    :func:`~repro.harness.protocols.make_binding` (ignored when an explicit
    ``binding`` is supplied, exactly as before).
    """

    protocol: str
    scenario: Scenario
    load: float
    num_flows: int = 300
    seed: int = 1
    pase_config: Optional[PaseConfig] = None
    horizon: Optional[float] = None
    fault_schedule: Optional[FaultSchedule] = None
    binding: Optional[ProtocolBinding] = None
    binding_overrides: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def build(cls, protocol: str, scenario: Scenario, load: float,
              num_flows: int = 300, seed: int = 1,
              pase_config: Optional[PaseConfig] = None,
              horizon: Optional[float] = None,
              binding: Optional["ProtocolBinding"] = None,
              fault_schedule: Optional[FaultSchedule] = None,
              **binding_overrides: Any) -> "ExperimentSpec":
        """Construct a spec from loose keywords — the parameter order is the
        historical ``run_experiment`` signature, and unrecognised keywords
        land in ``binding_overrides``.  This is the bridge for the
        deprecation shim and for sweep plumbing that forwards ``**kwargs``
        untyped."""
        return cls(protocol, scenario, load, num_flows=num_flows, seed=seed,
                   pase_config=pase_config, horizon=horizon,
                   fault_schedule=fault_schedule, binding=binding,
                   binding_overrides=binding_overrides)

    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy with the given fields changed (spec fields only)."""
        return replace(self, **changes)

    @property
    def label(self) -> str:
        return (f"{self.protocol}/{self.scenario.name}"
                f"/load={self.load:g}/seed={self.seed}")


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    protocol: str
    scenario: str
    load: float
    flows: List[Flow]
    stats: FlowStats
    network: NetworkCounters
    control_plane: Optional[ControlPlaneCounters]
    sim_duration: float
    wallclock: float
    events: int
    #: Fault-injection roll-up; None when the run had no fault schedule.
    faults: Optional[FaultCounters] = None

    @property
    def afct(self) -> float:
        return self.stats.afct

    @property
    def p99_fct(self) -> float:
        return self.stats.p99_fct

    @property
    def application_throughput(self) -> float:
        return self.stats.application_throughput

    @property
    def loss_rate(self) -> float:
        return self.network.loss_rate

    def detach(self) -> "ExperimentResult":
        """A copy safe to ship across process boundaries.

        ``Flow`` is a plain dataclass and none of the transports store
        simulator back-references on it today, but nothing stops an agent
        from stashing one (``flow.__dict__`` is open).  Rebuilding every
        flow from its declared fields drops any such foreign attributes,
        so pickling a result can never drag a live :class:`Simulator`
        (and its event heap) across the pipe.
        """
        return replace(self, flows=[replace(f) for f in self.flows])


def run_experiment(spec, *legacy_args, **legacy_kwargs) -> ExperimentResult:
    """Run one experiment and collect its metrics.

    The canonical call is ``run_experiment(spec)`` with an
    :class:`ExperimentSpec`.  The historical keyword form
    ``run_experiment(protocol, scenario, load, ...)`` still works but emits
    a :class:`DeprecationWarning`; it will be removed once external callers
    have migrated.
    """
    if isinstance(spec, ExperimentSpec):
        if legacy_args or legacy_kwargs:
            raise TypeError(
                "run_experiment(spec) takes no additional arguments; "
                "put them on the ExperimentSpec instead")
        return _execute(spec)
    warnings.warn(
        "run_experiment(protocol, scenario, load, ...) is deprecated; "
        "pass an ExperimentSpec: run_experiment(ExperimentSpec(...))",
        DeprecationWarning, stacklevel=2)
    return _execute(ExperimentSpec.build(spec, *legacy_args, **legacy_kwargs))


def _execute(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one :class:`ExperimentSpec`.

    ``spec.horizon`` caps simulated time past the last arrival (default 2 s)
    so a protocol that strands flows still terminates; stranded flows show
    up in ``stats.completion_fraction`` and count as missed deadlines.

    ``spec.fault_schedule`` (or the scenario's own ``fault_schedule``) arms
    a :class:`~repro.faults.FaultInjector` against the run; the result then
    carries a :class:`~repro.metrics.faults.FaultCounters`.  Without one,
    nothing fault-related executes and results are byte-identical to a
    fault-free build.
    """
    protocol = spec.protocol
    scenario = spec.scenario
    load = spec.load
    num_flows = spec.num_flows
    seed = spec.seed
    horizon = spec.horizon
    fault_schedule = spec.fault_schedule

    sim = Simulator()
    binding = spec.binding
    if binding is None:
        binding = make_binding(protocol, scenario, spec.pase_config,
                               **spec.binding_overrides)
    topology = scenario.build_topology(sim, binding.queue_factory())
    binding.setup_network(sim, topology)

    if fault_schedule is None:
        fault_schedule = scenario.fault_schedule
    injector: Optional[FaultInjector] = None
    if fault_schedule:
        injector = FaultInjector(
            sim, topology.network, fault_schedule,
            control_plane=getattr(binding, "control_plane", None))

    pattern = scenario.build_pattern(topology)
    workload = WorkloadConfig(
        pattern=pattern,
        size_dist=scenario.size_dist,
        load=load,
        num_flows=num_flows,
        seed=seed,
        deadline_dist=scenario.deadline_dist,
        num_background_flows=scenario.num_background_flows,
    )
    flows = generate_workload(workload)
    foreground = [f for f in flows if not f.background]
    remaining = len(foreground)

    def on_complete(_flow: Flow) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            sim.stop()

    def on_sender_done(flow: Flow) -> None:
        # Early-terminated flows never reach the receiver-side completion
        # callback; count them here so the run still ends promptly.
        if flow.terminated and not flow.completed and not flow.background:
            on_complete(flow)

    def launch(flow: Flow) -> None:
        dst_host = topology.network.nodes[flow.dst]
        src_host = topology.network.nodes[flow.src]
        done = None if flow.background else on_complete
        binding.make_receiver(sim, dst_host, flow, done)
        sender = binding.make_sender(sim, src_host, flow, on_done=on_sender_done)
        sender.start()

    for flow in flows:
        sim.schedule_at(flow.start_time, launch, flow)

    last_arrival = max(f.start_time for f in flows)
    cap = last_arrival + (2.0 if horizon is None else horizon)
    start_wall = time.perf_counter()
    sim.run(until=cap)
    wallclock = time.perf_counter() - start_wall

    duration = sim.now
    control: Optional[ControlPlaneCounters] = None
    cp = getattr(binding, "control_plane", None)
    if isinstance(cp, PaseControlPlane):
        control = ControlPlaneCounters(
            messages=cp.messages_sent,
            messages_by_level=dict(cp.messages_by_level),
            requests=cp.requests_started,
            prunes=cp.prunes,
            duration=duration,
            processed_by_level=dict(cp.processed_by_level),
            requests_failed=cp.requests_failed,
            consults_aborted=cp.consults_aborted,
            messages_lost=cp.control_messages_lost,
        )

    faults: Optional[FaultCounters] = None
    if injector is not None:
        faults = FaultCounters.collect(
            injector, flows,
            control_plane=cp if isinstance(cp, PaseControlPlane) else None)

    # Callbacks still queued past the horizon (background flows, timers)
    # would keep this run's packets and agents alive until a later GC pass.
    sim.discard_pending()
    return ExperimentResult(
        protocol=protocol,
        scenario=scenario.name,
        load=load,
        flows=flows,
        stats=FlowStats.from_flows(flows),
        network=NetworkCounters.from_network(topology.network, duration),
        control_plane=control,
        sim_duration=duration,
        wallclock=wallclock,
        events=sim.events_processed,
        faults=faults,
    )


def sweep_loads(
    protocol: str,
    scenario_factory,
    loads,
    num_flows: int = 300,
    seed: int = 1,
    pase_config: Optional[PaseConfig] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    cache_dir=None,
    **kwargs,
) -> Dict[float, ExperimentResult]:
    """Run ``protocol`` across ``loads``; a fresh scenario per point keeps
    runs independent.  ``scenario_factory`` is a zero-argument callable
    (or a :class:`repro.runner.ScenarioSpec` to make the points cacheable).

    ``jobs=1`` (the default) executes serially in-process, exactly as it
    always has; ``jobs > 1`` fans the points out over ``repro.runner``
    worker processes.  ``cache_dir`` opts into the on-disk result cache
    (only effective for ScenarioSpec-described scenarios).
    """
    if jobs == 1 and cache_dir is None:
        results: Dict[float, ExperimentResult] = {}
        for load in loads:
            spec = ExperimentSpec.build(
                protocol, scenario_factory(), load,
                num_flows=num_flows, seed=seed, pase_config=pase_config,
                **kwargs,
            )
            results[load] = run_experiment(spec)
        return results

    from repro.runner import (RunDescriptor, RunnerConfig, results_by_load,
                              run_sweep)

    horizon = kwargs.pop("horizon", None)
    descriptors = [
        RunDescriptor(protocol=protocol, scenario=scenario_factory,
                      load=load, seed=seed, num_flows=num_flows,
                      pase_config=pase_config, horizon=horizon,
                      overrides=dict(kwargs))
        for load in loads
    ]
    outcome = run_sweep(descriptors, RunnerConfig(
        jobs=jobs, timeout=timeout, retries=retries,
        use_cache=cache_dir is not None, cache_dir=cache_dir,
        on_error="raise",
    ))
    return results_by_load(outcome.records)
