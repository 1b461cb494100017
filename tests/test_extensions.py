"""Tests for the extension features: LAS / task-aware criteria, deadline
early termination, and production workload distributions."""

import random

import pytest

from repro.core import (
    PaseConfig,
    PaseControlPlane,
    PaseReceiver,
    PaseSender,
    pase_queue_factory,
)
from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment
from repro.sim import Simulator, StarTopology
from repro.transports import Flow
from repro.utils.units import GBPS, KB, MB, MSEC, USEC
from repro.workloads import (
    IncastAllToAll,
    UniformSizeDistribution,
    WorkloadConfig,
    data_mining_sizes,
    generate_workload,
    web_search_sizes,
)


def build(config):
    sim = Simulator()
    topo = StarTopology(sim, num_hosts=6, link_bps=1 * GBPS, rtt=100 * USEC,
                        queue_factory=pase_queue_factory(config))
    cp = PaseControlPlane(sim, topo, config)
    return sim, topo, cp


def launch(sim, topo, cp, fid, src, dst, size, start=0.0, deadline=None,
           task_id=None):
    flow = Flow(flow_id=fid, src=topo.hosts[src].node_id,
                dst=topo.hosts[dst].node_id, size_bytes=size,
                start_time=start, deadline=deadline, task_id=task_id)
    box = []

    def go():
        PaseReceiver(sim, topo.hosts[dst], flow)
        s = PaseSender(sim, topo.hosts[src], flow, cp)
        box.append(s)
        s.start()

    sim.schedule_at(start, go)
    return flow, box


class TestLasCriterion:
    def test_config_accepts_las(self):
        assert PaseConfig(criterion="las").criterion == "las"

    def test_criterion_is_attained_service(self):
        cfg = PaseConfig(criterion="las")
        sim, topo, cp = build(cfg)
        flow, box = launch(sim, topo, cp, 1, 0, 1, 300 * KB)
        sim.run(until=0.3e-3)
        sender = box[0]
        assert sender._criterion_value() == pytest.approx(
            sender.pkts_acked * sender.mtu)

    def test_fresh_flow_preempts_old_without_size_knowledge(self):
        cfg = PaseConfig(criterion="las")
        sim, topo, cp = build(cfg)
        old, _ = launch(sim, topo, cp, 1, 0, 2, 2 * MB)
        young, _ = launch(sim, topo, cp, 2, 1, 2, 50 * KB, start=3e-3)
        sim.run(until=0.1)
        assert young.completed
        # The young flow (less attained service) cut through the old one.
        assert young.fct < 2e-3


class TestTaskCriterion:
    def test_earlier_task_wins(self):
        cfg = PaseConfig(criterion="task")
        sim, topo, cp = build(cfg)
        # Task 1 arrives first but its flow is larger; task 2's flow is
        # smaller.  SRPT would favour task 2; task-aware FIFO favours 1.
        f1, _ = launch(sim, topo, cp, 1, 0, 2, 400 * KB, task_id=1)
        f2, _ = launch(sim, topo, cp, 2, 1, 2, 100 * KB, start=0.2e-3,
                       task_id=2)
        sim.run(until=0.1)
        assert f1.completed and f2.completed
        assert f1.completion_time < f2.completion_time

    def test_within_task_srpt(self):
        cfg = PaseConfig(criterion="task")
        sim, topo, cp = build(cfg)
        big, _ = launch(sim, topo, cp, 1, 0, 2, 500 * KB, task_id=1)
        small, _ = launch(sim, topo, cp, 2, 1, 2, 60 * KB, task_id=1)
        sim.run(until=0.1)
        assert small.completion_time < big.completion_time

    def test_taskless_flows_sort_last(self):
        cfg = PaseConfig(criterion="task")
        sim, topo, cp = build(cfg)
        tasked, _ = launch(sim, topo, cp, 1, 0, 2, 300 * KB, task_id=5)
        taskless, _ = launch(sim, topo, cp, 2, 1, 2, 50 * KB)
        sim.run(until=0.1)
        # Strict completion ordering is not guaranteed — work conservation
        # lets the (tiny) taskless flow trickle through queue-1 gaps — but
        # the tasked flow must keep nearly all of the bottleneck: its FCT
        # stays close to its solo time, while the taskless flow is slowed
        # to a multiple of its own.
        tasked_solo = tasked.size_bytes * 8 / 1e9 + 100 * USEC
        taskless_solo = taskless.size_bytes * 8 / 1e9 + 100 * USEC
        assert tasked.fct < 1.3 * tasked_solo
        assert taskless.fct > 2.0 * taskless_solo

    def test_generator_assigns_task_ids_to_bursts(self):
        pattern = IncastAllToAll(list(range(6)), 1 * GBPS, fanin=3)
        cfg = WorkloadConfig(pattern=pattern,
                             size_dist=UniformSizeDistribution(2 * KB, 20 * KB),
                             load=0.4, num_flows=12, seed=1)
        flows = generate_workload(cfg)
        tasks = {}
        for f in flows:
            assert f.task_id is not None
            tasks.setdefault(f.task_id, []).append(f)
        assert all(len(members) == 3 for members in tasks.values())
        # All members of one task share destination and start time.
        for members in tasks.values():
            assert len({f.dst for f in members}) == 1
            assert len({f.start_time for f in members}) == 1

    def test_singleton_patterns_stay_taskless(self):
        from repro.workloads import IntraRackRandom
        cfg = WorkloadConfig(pattern=IntraRackRandom(list(range(6)), 1 * GBPS),
                             size_dist=UniformSizeDistribution(2 * KB, 20 * KB),
                             load=0.4, num_flows=5, seed=1)
        assert all(f.task_id is None for f in generate_workload(cfg))


class TestEarlyTermination:
    def test_infeasible_flow_terminated(self):
        cfg = PaseConfig(criterion="deadline", early_termination=True)
        sim, topo, cp = build(cfg)
        # 500 KB in 1 ms needs 4 Gbps; the NIC has 1 Gbps: infeasible.
        flow, box = launch(sim, topo, cp, 1, 0, 1, 500 * KB,
                           deadline=1 * MSEC)
        sim.run(until=0.05)
        assert flow.terminated
        assert not flow.completed
        assert flow.met_deadline is False

    def test_feasible_flow_not_terminated(self):
        cfg = PaseConfig(criterion="deadline", early_termination=True)
        sim, topo, cp = build(cfg)
        flow, _ = launch(sim, topo, cp, 1, 0, 1, 100 * KB, deadline=20 * MSEC)
        sim.run(until=0.05)
        assert flow.completed
        assert not flow.terminated

    def test_termination_clears_arbitrators(self):
        cfg = PaseConfig(criterion="deadline", early_termination=True)
        sim, topo, cp = build(cfg)
        flow, _ = launch(sim, topo, cp, 1, 0, 1, 500 * KB, deadline=1 * MSEC)
        sim.run(until=0.05)
        for arb in cp.arbitrators.values():
            assert flow.flow_id not in arb.flows

    def test_termination_frees_capacity_for_feasible_flows(self):
        """With ET on, hopeless flows stop competing; the survivors' met
        fraction cannot be lower than without it."""
        scn = ScenarioSpec("intra-rack-deadlines", {"num_hosts": 10})
        base = PaseConfig(criterion="deadline")
        on = run_experiment(ExperimentSpec("pase", scn, 0.9, num_flows=80, seed=2,
                            pase_config=PaseConfig(criterion="deadline",
                                                   early_termination=True)))
        off = run_experiment(ExperimentSpec("pase", scn, 0.9, num_flows=80, seed=2,
                             pase_config=base))
        assert on.application_throughput >= off.application_throughput - 0.05
        assert any(f.terminated for f in on.flows)

    def test_harness_counts_terminated_flows(self):
        result = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack-deadlines", {"num_hosts": 8}), 0.9,
            num_flows=40, seed=2,
            pase_config=PaseConfig(criterion="deadline", early_termination=True)))
        # The run ends promptly (no horizon stall): every foreground flow
        # either completed or terminated.
        fg = [f for f in result.flows if not f.background]
        assert all(f.completed or f.terminated for f in fg)


class TestProductionWorkloads:
    def test_web_search_shape(self):
        dist = web_search_sizes()
        rng = random.Random(3)
        samples = [dist.sample(rng) for _ in range(3000)]
        small = sum(1 for s in samples if s <= 100 * KB) / len(samples)
        assert 0.4 < small < 0.75  # most flows are short
        assert max(samples) > 3 * MB  # but the tail is heavy

    def test_data_mining_heavier_tail_than_web_search(self):
        assert data_mining_sizes().mean_bytes > web_search_sizes().mean_bytes
        rng = random.Random(3)
        dm = [data_mining_sizes().sample(rng) for _ in range(3000)]
        tiny = sum(1 for s in dm if s <= 10 * KB) / len(dm)
        assert tiny > 0.6  # most flows tiny

    def test_sampling_deterministic_by_seed(self):
        a = [web_search_sizes().sample(random.Random(9)) for _ in range(10)]
        b = [web_search_sizes().sample(random.Random(9)) for _ in range(10)]
        assert a == b
