"""PASE — "Friends, not Foes: Synthesizing Existing Transport Strategies for
Data Center Networks" (Munir et al., SIGCOMM 2014), reproduced in Python.

The package provides:

* :mod:`repro.sim` — a packet-level discrete-event network simulator,
* :mod:`repro.transports` — DCTCP, D2TCP, L2DCT, PDQ, pFabric baselines,
* :mod:`repro.core` — PASE: per-link arbitration (Algorithm 1), the
  bottom-up control plane with early pruning and delegation, and the
  priority-queue-aware end-host transport (Algorithm 2),
* :mod:`repro.workloads` — the paper's traffic patterns and distributions,
* :mod:`repro.metrics` — FCT/deadline/overhead statistics,
* :mod:`repro.harness` — one-call experiment runner reproducing each figure.

Quickstart::

    from repro.harness import ExperimentSpec, ScenarioSpec, run_experiment
    result = run_experiment(ExperimentSpec(
        "pase", ScenarioSpec("intra-rack", {"num_hosts": 10}), load=0.6,
        num_flows=200))
    print(result.afct, result.stats.p99_fct)
"""

__version__ = "1.0.0"

from repro.core import PaseConfig, PaseControlPlane, PaseReceiver, PaseSender
from repro.harness import ExperimentSpec, run_experiment, sweep_loads
from repro.sim import Simulator
from repro.transports import Flow

__all__ = [
    "__version__",
    "PaseConfig",
    "PaseControlPlane",
    "PaseReceiver",
    "PaseSender",
    "ExperimentSpec",
    "run_experiment",
    "sweep_loads",
    "Simulator",
    "Flow",
]
