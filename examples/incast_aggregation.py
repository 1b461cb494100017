#!/usr/bin/env python3
"""Partition-aggregate incast: where line-rate-start transports bleed.

A search aggregator asks 16 workers for their shards; all 16 answer at
once.  pFabric's strategy — start at line rate, let shallow priority-drop
buffers sort it out — collides 16 line-rate senders at the aggregator's
1 Gbps downlink and drops a large fraction of everything sent (the paper's
Fig. 4).  PASE's arbitrators serialize the responses shortest-first before
the packets ever leave the workers, so the same workload completes with
near-zero loss and a much shorter tail (Fig. 10c).

Run:  python examples/incast_aggregation.py
"""

from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment

LOADS = (0.5, 0.8)


def main() -> None:
    print("Incast aggregation (20-host rack, fan-in 16, flows 2-198 KB)\n")
    print(f"{'load':<7}{'protocol':<10}{'AFCT':<12}{'99th pct':<12}"
          f"{'loss rate':<12}{'retransmits':<12}")
    print("-" * 65)
    for load in LOADS:
        for protocol in ("pase", "pfabric", "dctcp"):
            scenario = ScenarioSpec("all-to-all", {"num_hosts": 20, "fanin": 16})
            result = run_experiment(ExperimentSpec(protocol, scenario, load=load,
                                    num_flows=320, seed=5))
            retx = sum(f.retransmissions for f in result.flows)
            print(f"{load:<7.0%}{protocol:<10}"
                  f"{result.afct * 1e3:>7.2f} ms  "
                  f"{result.p99_fct * 1e3:>7.2f} ms  "
                  f"{result.loss_rate:>8.1%}   "
                  f"{retx:<12}")
        print()

    print("pFabric pays for seamless in-network preemption with heavy loss")
    print("under synchronized fan-in; DCTCP avoids loss with deep buffers")
    print("but cannot prioritize; PASE gets both: arbitration decides who")
    print("sends, priority queues enforce it, endpoints mop up the rest.")


if __name__ == "__main__":
    main()
