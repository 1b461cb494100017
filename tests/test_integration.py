"""Integration tests: end-to-end invariants across modules and the paper's
qualitative claims at small scale."""

import pytest

from repro.core import PaseConfig
from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment


MEDIUM = dict(num_flows=80, seed=11)
INCAST8 = ScenarioSpec("all-to-all", {"num_hosts": 8})


class TestCrossProtocolInvariants:
    @pytest.mark.parametrize("protocol", ["dctcp", "pase", "pfabric", "pdq"])
    def test_moderate_load_all_complete(self, protocol):
        result = run_experiment(ExperimentSpec(protocol, INCAST8,
                                load=0.6, **MEDIUM))
        assert result.stats.completion_fraction == 1.0

    @pytest.mark.parametrize("protocol", ["dctcp", "pase", "pfabric"])
    def test_afct_grows_with_load(self, protocol):
        low = run_experiment(ExperimentSpec(protocol, INCAST8,
                             load=0.2, **MEDIUM))
        high = run_experiment(ExperimentSpec(protocol, INCAST8,
                              load=0.9, **MEDIUM))
        assert high.afct > low.afct

    def test_fct_at_least_serialization_floor(self):
        result = run_experiment(ExperimentSpec(
            "pase", ScenarioSpec("intra-rack", {"num_hosts": 8}), load=0.3,
            **MEDIUM))
        for flow in result.flows:
            if flow.background or not flow.completed:
                continue
            floor = flow.size_bytes * 8 / 1e9  # bottleneck serialization
            assert flow.fct >= floor * 0.99


class TestPaperClaims:
    """Small-scale versions of the headline comparisons."""

    def test_pase_beats_dctcp_and_l2dct_left_right(self):
        """Fig. 9a: PASE improves AFCT substantially over deployment-friendly
        protocols in the inter-rack scenario."""
        scn = ScenarioSpec("left-right", {"hosts_per_rack": 3})
        pase = run_experiment(ExperimentSpec("pase", scn, load=0.6, **MEDIUM))
        dctcp = run_experiment(ExperimentSpec("dctcp", scn, load=0.6, **MEDIUM))
        l2dct = run_experiment(ExperimentSpec("l2dct", scn, load=0.6, **MEDIUM))
        assert pase.afct < 0.6 * dctcp.afct   # >= 40% better
        assert pase.afct < 0.8 * l2dct.afct   # clearly better

    def test_pase_beats_pfabric_tail_at_high_load(self):
        """Fig. 10a: at high load PASE's 99th percentile beats pFabric's."""
        scn = ScenarioSpec("left-right", {"hosts_per_rack": 3})
        pase = run_experiment(ExperimentSpec("pase", scn, load=0.9, num_flows=150, seed=11))
        pfab = run_experiment(ExperimentSpec("pfabric", scn, load=0.9, num_flows=150, seed=11))
        assert pase.p99_fct < pfab.p99_fct

    def test_pfabric_loss_grows_with_load(self):
        """Fig. 4: pFabric's loss rate rises sharply with load."""
        low = run_experiment(ExperimentSpec("pfabric", INCAST8,
                             load=0.2, **MEDIUM))
        high = run_experiment(ExperimentSpec("pfabric", INCAST8,
                              load=0.9, **MEDIUM))
        assert high.loss_rate > low.loss_rate
        assert high.loss_rate > 0.01

    def test_pase_loss_stays_negligible(self):
        """PASE's guided rate control keeps drops near zero where pFabric
        pays heavily."""
        result = run_experiment(ExperimentSpec("pase", INCAST8,
                                load=0.9, **MEDIUM))
        assert result.loss_rate < 0.01

    def test_pdq_advantage_shrinks_with_load(self):
        """Fig. 2: PDQ's AFCT advantage over DCTCP erodes as load grows."""
        scn = ScenarioSpec("intra-rack", {"num_hosts": 8})
        ratios = {}
        for load in (0.2, 0.9):
            pdq = run_experiment(ExperimentSpec("pdq", scn, load=load, **MEDIUM))
            dctcp = run_experiment(ExperimentSpec("dctcp", scn, load=load, **MEDIUM))
            ratios[load] = pdq.afct / dctcp.afct
        assert ratios[0.9] > ratios[0.2]

    def test_reference_rate_helps(self):
        """Fig. 13a: PASE beats PASE-DCTCP (no Rref seeding)."""
        scn = ScenarioSpec("intra-rack", {"num_hosts": 8})
        pase = run_experiment(ExperimentSpec("pase", scn, load=0.7, **MEDIUM))
        nodref = run_experiment(ExperimentSpec("pase-dctcp", scn, load=0.7, **MEDIUM))
        assert pase.afct < nodref.afct

    def test_end_to_end_arbitration_helps_inter_rack(self):
        """Fig. 12a: local-only arbitration misses fabric contention.  The
        effect needs the paper's geometry, high load, and shared port
        buffers (where un-arbitrated flows overrun the fabric); see the
        fig12a benchmark for the per-class-buffer regime."""
        from repro.core import PaseConfig
        cfg = PaseConfig(shared_queue_capacity=True)
        scn = ScenarioSpec("left-right", {"hosts_per_rack": 40})
        e2e = run_experiment(ExperimentSpec("pase", scn, load=0.9, num_flows=250, seed=11,
                             pase_config=cfg))
        local = run_experiment(ExperimentSpec("pase-local", scn, load=0.9, num_flows=250,
                               seed=11, pase_config=cfg))
        assert e2e.p99_fct < local.p99_fct
        assert e2e.network.data_pkts_dropped <= local.network.data_pkts_dropped

    def test_optimizations_cut_control_messages(self):
        """Fig. 11b: pruning + delegation reduce arbitration overhead."""
        scn = ScenarioSpec("left-right", {"hosts_per_rack": 3})
        opt = run_experiment(ExperimentSpec("pase", scn, load=0.7, **MEDIUM))
        noopt = run_experiment(ExperimentSpec("pase-noopt", scn, load=0.7, **MEDIUM))
        assert opt.control_plane.messages < noopt.control_plane.messages

    def test_deadline_scenario_pase_leads(self):
        """Fig. 9c: PASE meets at least as many deadlines as D2TCP/DCTCP."""
        scn = ScenarioSpec("intra-rack-deadlines", {"num_hosts": 10})
        pase = run_experiment(ExperimentSpec("pase", scn, load=0.8, **MEDIUM))
        d2tcp = run_experiment(ExperimentSpec("d2tcp", scn, load=0.8, **MEDIUM))
        dctcp = run_experiment(ExperimentSpec("dctcp", scn, load=0.8, **MEDIUM))
        assert pase.application_throughput >= d2tcp.application_throughput
        assert pase.application_throughput >= dctcp.application_throughput


class TestConservation:
    def test_no_flow_delivers_more_than_sent(self):
        result = run_experiment(ExperimentSpec("pfabric", INCAST8,
                                load=0.8, **MEDIUM))
        for flow in result.flows:
            if flow.background:
                continue
            assert flow.pkts_sent >= flow.total_pkts

    def test_drops_only_with_shallow_buffers(self):
        deep = run_experiment(ExperimentSpec("dctcp", INCAST8,
                              load=0.7, **MEDIUM))
        assert deep.network.data_pkts_dropped == 0
