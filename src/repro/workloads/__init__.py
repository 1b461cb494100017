"""Workload generation: flow-size/deadline distributions, traffic patterns,
and Poisson arrival processes matching the paper's evaluation setups."""

from repro.workloads.distributions import (
    DEADLINE_SIZES,
    QUERY_SIZES,
    DeadlineDistribution,
    EmpiricalSizeDistribution,
    FixedSizeDistribution,
    SizeDistribution,
    UniformSizeDistribution,
)
from repro.workloads.generator import (
    BACKGROUND_FLOW_BYTES,
    WorkloadConfig,
    generate_workload,
)
from repro.workloads.patterns import (
    IncastAllToAll,
    IntraRackRandom,
    LeftRight,
    ManyToOne,
    TrafficPattern,
)

__all__ = [
    "DEADLINE_SIZES",
    "QUERY_SIZES",
    "DeadlineDistribution",
    "EmpiricalSizeDistribution",
    "FixedSizeDistribution",
    "SizeDistribution",
    "UniformSizeDistribution",
    "BACKGROUND_FLOW_BYTES",
    "WorkloadConfig",
    "generate_workload",
    "IncastAllToAll",
    "IntraRackRandom",
    "LeftRight",
    "ManyToOne",
    "TrafficPattern",
]

from repro.workloads.production import (
    DATA_MINING_CDF,
    WEB_SEARCH_CDF,
    data_mining_sizes,
    web_search_sizes,
)

__all__ += [
    "DATA_MINING_CDF",
    "WEB_SEARCH_CDF",
    "data_mining_sizes",
    "web_search_sizes",
]
