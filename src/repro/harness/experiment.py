"""The experiment runner: one :class:`ExperimentSpec` → metrics.

``run_experiment(spec)`` builds the simulator, topology, and protocol
machinery, materializes the Poisson workload, launches each flow's agents
at its arrival time, and runs until every foreground flow completes (or a
safety horizon passes).  It returns an :class:`ExperimentResult` bundling
flow records, FCT statistics, loss accounting, and — for PASE —
control-plane overhead counters.

:class:`ExperimentSpec` is the one description of a run; every entry point
(``sweep_loads``, ``replicate``, ``repro.runner``, the CLI, the benchmark
suite) builds specs, and every grid of them runs through
:func:`repro.runner.run_sweep`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional

from repro.core import PaseConfig
from repro.core.control_plane import PaseControlPlane
from repro.faults import FaultInjector
from repro.metrics.faults import FaultCounters
from repro.metrics.overhead import ControlPlaneCounters, NetworkCounters
from repro.metrics.stats import FlowStats
from repro.sim.engine import Simulator
from repro.transports.base import ReceiverAgent
from repro.transports.flow import Flow
from repro.workloads.generator import WorkloadConfig, generate_workload

from repro.harness.protocols import PASE_PRESETS, make_binding
from repro.harness.scenarios import ScenarioSpec


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines one run, as immutable plain data; the
    scenario is a :class:`ScenarioSpec`, built when the run starts.  Every
    run has a :meth:`content_hash`, equal for equal runs (:meth:`key_dict`).
    """

    protocol: str
    scenario: ScenarioSpec
    load: float
    num_flows: int = 300
    seed: int = 1
    pase_config: Optional[PaseConfig] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, ScenarioSpec):
            raise TypeError(
                "ExperimentSpec.scenario must be a ScenarioSpec (a registered "
                f"name and plain-data kwargs), not {type(self.scenario).__name__}")

    @property
    def label(self) -> str:
        return (f"{self.protocol}/{self.scenario.label()}"
                f"/load={self.load:g}/seed={self.seed}")

    def key_dict(self) -> Dict[str, Any]:
        """The canonical content of this run, in its minimal form: no
        scenario kwarg equal to its default, and only the ``PaseConfig``
        fields a PASE run resolves differently from its protocol's default
        (None when there are none, and always for other protocols)."""
        return {
            "protocol": self.protocol,
            "scenario": self.scenario.name,
            "scenario_kwargs": self.scenario.minimal_kwargs(),
            "load": self.load,
            "seed": self.seed,
            "num_flows": self.num_flows,
            "pase_config": self._pase_changes(),
            "horizon": self.horizon,
            # Always empty; the slot keeps content hashes (ledger rows,
            # cache entries) comparable across versions of the spec.
            "overrides": {},
        }

    def _pase_changes(self) -> Optional[Dict[str, Any]]:
        if self.pase_config is None or self.protocol not in PASE_PRESETS:
            return None
        scenario = self.scenario.build()
        default = asdict(make_binding(self.protocol, scenario).config)
        run = make_binding(self.protocol, scenario, self.pase_config).config
        return {name: value for name, value in asdict(run).items()
                if value != default[name]} or None

    def content_hash(self) -> str:
        """sha256 over the canonical key: equal for equal runs."""
        blob = json.dumps(self.key_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


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


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment and collect its metrics.

    ``spec.horizon`` caps simulated time past the last arrival (default 2 s)
    so a protocol that strands flows still terminates; stranded flows show
    up in ``stats.completion_fraction`` and count as missed deadlines.

    The scenario's ``fault_schedule`` arms a
    :class:`~repro.faults.FaultInjector` against the run; the result then
    carries a :class:`~repro.metrics.faults.FaultCounters`.  Without one,
    nothing fault-related executes and results are byte-identical to a
    fault-free build.
    """
    scenario = spec.scenario.build()

    sim = Simulator()
    binding = make_binding(spec.protocol, scenario, spec.pase_config)
    topology = scenario.build_topology(sim, binding.queue_factory())
    binding.setup_network(sim, topology)

    injector: Optional[FaultInjector] = None
    if scenario.fault_schedule:
        injector = FaultInjector(
            sim, topology.network, scenario.fault_schedule,
            control_plane=getattr(binding, "control_plane", None))

    pattern = scenario.build_pattern(topology)
    workload = WorkloadConfig(
        pattern=pattern,
        size_dist=scenario.size_dist,
        load=spec.load,
        num_flows=spec.num_flows,
        seed=spec.seed,
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
        ReceiverAgent(sim, dst_host, flow, done)
        sender = binding.make_sender(sim, src_host, flow, on_done=on_sender_done)
        sender.start()

    for flow in flows:
        sim.post_at(flow.start_time, launch, flow)

    last_arrival = max(f.start_time for f in flows)
    cap = last_arrival + (2.0 if spec.horizon is None else spec.horizon)
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
        protocol=spec.protocol,
        scenario=scenario.name,
        load=spec.load,
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
    scenario: ScenarioSpec,
    loads,
    num_flows: int = 300,
    seed: int = 1,
    pase_config: Optional[PaseConfig] = None,
    jobs: int = 1,
    cache_dir=None,
    horizon: Optional[float] = None,
) -> Dict[float, ExperimentResult]:
    """Run ``protocol`` on ``scenario`` at each of ``loads``.

    The points go through :func:`repro.runner.run_sweep`: ``jobs=1`` runs
    them in order in this process, ``jobs > 1`` on worker processes, with
    identical results.  ``cache_dir`` opts into the on-disk result cache.
    A failed point raises :class:`repro.runner.SweepFailure`; for a
    timeout or retries, call ``run_sweep`` with a ``RunnerConfig``.
    """
    from repro.runner import (RunnerConfig, SweepSpec,
                              results_by_protocol_load, run_sweep)

    specs = SweepSpec((protocol,), scenario, loads, seeds=(seed,),
                      num_flows=num_flows, pase_config=pase_config,
                      horizon=horizon).expand()
    records = run_sweep(specs, RunnerConfig(jobs=jobs,
                                            cache_dir=cache_dir)).records
    return results_by_protocol_load(records).get(protocol, {})
