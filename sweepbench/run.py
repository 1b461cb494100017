#!/usr/bin/env python3
"""Figure-sweep benchmark for the PASE reproduction.

Each workload is one of the paper's load sweeps (loads 0.5 and 0.8), run
as a batch job by one client: a closed loop of ``sweep_loads`` calls with
``jobs=1`` and a fresh, empty on-disk cache directory, which routes every
sweep through ``repro.runner.run_sweep``.

Usage, from the repository root::

    python3 sweepbench/run.py --workload leftright-pase --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
sweep untraced and traced and prints the per-layer census (see
``sweepbench/README.md``).  Either way every point's FCT digest must match
its warm-cache replay (and, traced, the untraced run); the last line of
standard output is one JSON object, and any failed point makes the exit
code non-zero.  Host times are scaled to a fixed host speed by the
reference loop in ``hostspeed.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from census import Census
from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for result caches; removed when the run ends.
TMP_ROOT = ROOT / ".sweepbench_tmp"

LOADS = (0.5, 0.8)
#: Workload seeds of one run are ``seed * SEED_STRIDE + k``, k < sweeps.
SEED_STRIDE = 1000
IMPORT_SAMPLES = 9


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    scenario: str
    scenario_kwargs: Dict[str, object]
    #: Foreground flows per sweep point.
    flows: int
    #: Sweeps (workload seeds) per run; FCT metrics pool all of them.
    sweeps: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "leftright-pase", "pase", "left-right",
        {"hosts_per_rack": 10, "num_background_flows": 2},
        flows=100, sweeps=10),
    Workload(
        "incast-pase", "pase", "all-to-all",
        {"num_hosts": 20, "fanin": 8, "num_background_flows": 0},
        flows=200, sweeps=8),
    Workload(
        "intrarack-dctcp", "dctcp", "intra-rack",
        {"num_hosts": 20, "num_background_flows": 2},
        flows=100, sweeps=10),
    Workload(
        "arbcrash-pase", "pase", "intra-rack-arb-crash", {},
        flows=100, sweeps=6),
)}


# ----------------------------------------------------------------------
# One sweep
# ----------------------------------------------------------------------

@dataclass
class Point:
    """What the benchmark keeps of one sweep point (the flows are dropped)."""

    load: float
    digest: str
    #: Foreground FCTs in seconds; None for a flow that never completed.
    fcts: List[Optional[float]]
    wallclock: float
    events: int
    messages: int = 0
    requests: int = 0
    requests_failed: int = 0
    prunes: int = 0
    timeouts: int = 0
    retransmissions: int = 0
    probes: int = 0
    pkts_sent: int = 0
    fallback_episodes: int = 0
    fallback_s: float = 0.0
    recovery_latencies: List[float] = field(default_factory=list)


@dataclass
class Sweep:
    seed: int
    wall: float
    points: List[Point]
    #: Points the runner reported as not ok.
    failed: int = 0
    #: Host-speed factor of the section the sweep ran in (hostspeed.py).
    scale: float = 1.0

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def outside_loop_s(self) -> float:
        """Scaled host seconds of the sweep outside the event loops."""
        return (self.wall - sum(p.wallclock for p in self.points)) * self.scale

    @property
    def digests(self) -> List[str]:
        return [p.digest for p in self.points]


def fct_digest(flows) -> str:
    """sha256 over every flow's ``(flow_id, completion_time)``."""
    h = hashlib.sha256()
    for f in flows:
        h.update(f"{f.flow_id}:{f.completion_time!r}\n".encode())
    return h.hexdigest()


def summarize(load: float, result) -> Point:
    foreground = [f for f in result.flows if not f.background]
    point = Point(
        load=load,
        digest=fct_digest(result.flows),
        fcts=[f.completion_time - f.start_time if f.completed else None
              for f in foreground],
        wallclock=result.wallclock,
        events=result.events,
        timeouts=sum(f.timeouts for f in result.flows),
        retransmissions=sum(f.retransmissions for f in result.flows),
        probes=sum(f.probes_sent for f in result.flows),
        pkts_sent=sum(f.pkts_sent for f in result.flows),
    )
    cp = result.control_plane
    if cp is not None:
        point.messages = cp.messages
        point.requests = cp.requests
        point.requests_failed = cp.requests_failed
        point.prunes = cp.prunes
    faults = result.faults
    if faults is not None:
        point.fallback_episodes = faults.fallback_episodes
        point.fallback_s = faults.fallback_time
        point.recovery_latencies = list(faults.recovery_latencies)
    return point


def run_sweep(workload: Workload, seed: int, cache_dir: Path) -> Sweep:
    """One ``sweep_loads`` call, timed from outside."""
    from repro.harness import sweep_loads
    from repro.runner import ScenarioSpec, SweepFailure

    spec = ScenarioSpec(workload.scenario, dict(workload.scenario_kwargs))
    start = time.perf_counter()
    try:
        results = sweep_loads(workload.protocol, spec, LOADS,
                              num_flows=workload.flows, seed=seed,
                              jobs=1, cache_dir=cache_dir)
    except SweepFailure as exc:
        wall = time.perf_counter() - start
        print(f"sweep seed={seed} failed:\n{exc}", file=sys.stderr)
        return Sweep(seed, wall, [], failed=len(exc.failed))
    wall = time.perf_counter() - start
    points = [summarize(load, results[load]) for load in LOADS]
    return Sweep(seed, wall, points)


def fresh_cache(tmp: Path) -> Path:
    """An empty cache directory.  Also collects the previous sweep's
    simulation graphs, which are cyclic: otherwise the collector would
    free them at an arbitrary point of a later timed sweep and the peak
    RSS would depend on when it ran."""
    gc.collect()
    return Path(tempfile.mkdtemp(prefix="cache-", dir=tmp))


# ----------------------------------------------------------------------
# Checks and statistics
# ----------------------------------------------------------------------

class Gate:
    """Counts attempted and failed sweep points and prints each digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fresh(self, sweep: Sweep) -> None:
        self.attempted += len(LOADS)
        self.failed += sweep.failed

    def compare(self, label: str, sweep: Sweep, reference: Sweep) -> None:
        """Fail every point of ``sweep`` whose digest differs from
        ``reference`` (a missing point is a mismatch too)."""
        for i, load in enumerate(LOADS):
            got = sweep.digests[i] if i < len(sweep.points) else "missing"
            want = (reference.digests[i] if i < len(reference.points)
                    else "missing")
            ok = got == want and got != "missing"
            if not ok:
                self.failed += 1
            print(f"digest seed={sweep.seed} load={load:g} {label}: "
                  f"{got[:16]} {'ok' if ok else 'MISMATCH ' + want[:16]}")


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a sorted list (inf ranks last)."""
    rank = max(1, math.ceil(q * len(values)))
    return values[rank - 1]


def measure_import_s() -> float:
    """Median host seconds to import the package in a fresh interpreter
    (after one discarded warm-up that also compiles the bytecode)."""
    code = ("import time; t = time.perf_counter(); "
            "import repro.harness, repro.runner; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples[1:])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def run_end_to_end(workload: Workload, seed: int, seconds: float,
                   tmp: Path, gate: Gate) -> Dict[str, Dict[str, object]]:
    seeds = [seed * SEED_STRIDE + k for k in range(workload.sweeps)]
    deadline = time.perf_counter() + seconds
    sweeps: List[Sweep] = []
    first: Dict[int, Sweep] = {}
    speed = HostSpeed()
    while True:
        lap_start = time.perf_counter()
        wseed = seeds[len(sweeps) % len(seeds)]
        cache = fresh_cache(tmp)
        sweep = run_sweep(workload, wseed, cache)
        gate.fresh(sweep)
        replay = run_sweep(workload, wseed, cache)
        shutil.rmtree(cache)
        gate.compare("replay", replay, sweep)
        if wseed in first:
            gate.compare("repeat", sweep, first[wseed])
        else:
            first[wseed] = sweep
        sweep.scale = speed.scale()
        sweeps.append(sweep)
        print(f"sweep seed={wseed} wall={sweep.wall:.3f}s "
              f"scale={sweep.scale:.3f} "
              f"events={sum(p.events for p in sweep.points)}", flush=True)
        lap = time.perf_counter() - lap_start
        if len(sweeps) >= len(seeds) and time.perf_counter() + lap > deadline:
            break

    # Measured after the sweeps, when the host runs as it did for them.
    import_s = measure_import_s() * speed.scale()
    points = [p for s in first.values() for p in s.points]
    # A failed first sweep leaves no flows; inf makes the run incorrect.
    fcts = sorted((f if f is not None else math.inf)
                  for p in points for f in p.fcts) or [math.inf]
    done = [f for f in fcts if f != math.inf]
    flows_total = sum(len(p.fcts) for s in sweeps for p in s.points)
    messages = sum(p.messages for p in points)
    metrics = {
        "sweep_s": metric(median([s.scaled_wall for s in sweeps]), "s"),
        "flows_per_s": metric(
            flows_total / sum(s.scaled_wall for s in sweeps), "1/s"),
        "setup_s": metric(
            import_s + median([s.outside_loop_s for s in sweeps]), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "afct_ms": metric(1e3 * sum(done) / max(1, len(done)), "sim_ms"),
        "fct_p50_ms": metric(1e3 * quantile(fcts, 0.50), "sim_ms"),
        "fct_p95_ms": metric(1e3 * quantile(fcts, 0.95), "sim_ms"),
        "completion_frac": metric(len(done) / len(fcts), "frac"),
    }
    # Fig. 11b's metric.  Printed, not gated: it is zero on every
    # intra-rack workload, where arbitration rides on data packets.
    print(f"ctrl_msgs_per_flow = {messages / len(fcts):.4f} msgs/flow")
    print(f"unscaled sweep_s = {median([s.wall for s in sweeps]):.4f} s; "
          f"scaled import_s = {import_s:.4f} s; sweeps = {len(sweeps)}; "
          f"foreground flows pooled = {len(fcts)}")
    return metrics


# ----------------------------------------------------------------------
# --trace 1: per-layer census
# ----------------------------------------------------------------------

def layer_metrics(census, sweep: Sweep, untraced: Sweep, replay_wall: float,
                  replay_census) -> Dict[str, float]:
    """Per-layer values of one traced sweep, host times unscaled."""
    calls, self_s, counts = census.calls, census.self_s, census.counts
    points = sweep.points
    events = sum(p.events for p in points)
    wakeups = calls["link.wakeup"]
    requests = sum(p.requests for p in points)
    half_walks = 2 * (requests - sum(p.requests_failed for p in points))
    recoveries = [r for p in points for r in p.recovery_latencies]
    pkts_sent = sum(p.pkts_sent for p in points)
    return {
        "engine.events": events,
        "engine.self_s": self_s["engine.loop"],
        "engine.ns_per_event": 1e9 * sum(p.wallclock for p in untraced.points)
                               / max(1, events),
        "link.send_calls": calls["link.send"],
        "link.send_self_s": self_s["link.send"],
        "link.wakeups": wakeups,
        "link.wakeup_self_s": self_s["link.wakeup"],
        "link.idle_wakeup_frac": counts["link.idle_wakeups"] / max(1, wakeups),
        "link.pkts_sent": census.link_totals["pkts_sent"],
        "link.queue_drops": census.link_totals["queue_drops"],
        "link.ecn_marks": census.link_totals["ecn_marks"],
        "link.down_drops": census.link_totals["down_drops"],
        "node.switch_rx_calls": calls["node.switch_rx"],
        "node.switch_rx_self_s": self_s["node.switch_rx"],
        "node.host_rx_calls": calls["node.host_rx"],
        "node.host_rx_self_s": self_s["node.host_rx"],
        "node.host_tx_self_s": self_s["node.host_tx"],
        "transport.ack_rx_calls": calls["transport.ack_rx"],
        "transport.ack_rx_self_s": self_s["transport.ack_rx"],
        "transport.data_rx_calls": calls["transport.data_rx"],
        "transport.data_rx_self_s": self_s["transport.data_rx"],
        "transport.timeouts": sum(p.timeouts for p in points),
        "transport.retransmissions": sum(p.retransmissions for p in points),
        "transport.probes": sum(p.probes for p in points),
        "transport.goodput_frac":
            1.0 - sum(p.retransmissions for p in points) / max(1, pkts_sent),
        "control.requests": calls["control.request"],
        "control.request_self_s": self_s["control.request"],
        "control.arbitrations": calls["control.arbitrate"],
        "control.arbitrate_self_s": self_s["control.arbitrate"],
        "control.decide_all_self_s": self_s["control.decide_all"],
        "control.expire_self_s": self_s["control.expire"],
        "control.events": calls["control.event"],
        "control.event_self_s": self_s["control.event"],
        "control.messages": sum(p.messages for p in points),
        "control.prune_frac":
            sum(p.prunes for p in points) / max(1, half_walks),
        "control.requests_failed": sum(p.requests_failed for p in points),
        "faults.events": calls["faults.event"],
        "faults.self_s": census.layer_self_s("faults"),
        "faults.fallback_episodes": sum(p.fallback_episodes for p in points),
        "faults.fallback_s": sum(p.fallback_s for p in points),
        "faults.recovery_ms":
            1e3 * sum(recoveries) / len(recoveries) if recoveries else 0.0,
        "harness.build_s": census.phase_s["build"],
        "harness.workload_s": census.phase_s["workload"],
        "harness.launch_self_s": self_s["harness.launch"],
        "harness.metrics_s": census.phase_s["metrics"],
        "runner.self_s": sweep.wall - census.phase_s["point"],
        "runner.cache_put_s": census.total_s["runner.cache_put"],
        "runner.replay_s": replay_wall,
        "runner.cache_get_s": replay_census.total_s["runner.cache_get"],
        "trace.unattributed_events": events - census.attributed_events(),
    }


#: Units the metric name does not imply (``*_s`` is host_s, else count).
_LAYER_UNITS = {
    "engine.ns_per_event": "host_ns",
    "link.idle_wakeup_frac": "frac",
    "transport.goodput_frac": "frac",
    "control.prune_frac": "frac",
    "faults.fallback_s": "sim_s",
    "faults.recovery_ms": "sim_ms",
    "trace.overhead_frac": "frac",
}


def layer_unit(name: str) -> str:
    if name in _LAYER_UNITS:
        return _LAYER_UNITS[name]
    if name.endswith("_s"):
        return "host_s"
    return "count"


def run_traced(workload: Workload, seed: int, seconds: float, tmp: Path,
               gate: Gate) -> Dict[str, Dict[str, object]]:
    wseed = seed * SEED_STRIDE
    deadline = time.perf_counter() + seconds
    samples: List[Dict[str, float]] = []
    untraced_walls: List[float] = []
    traced_walls: List[float] = []
    speed = HostSpeed()
    while True:
        lap_start = time.perf_counter()
        cache = fresh_cache(tmp)
        untraced = run_sweep(workload, wseed, cache)
        shutil.rmtree(cache)
        gate.fresh(untraced)

        census = Census()
        cache = fresh_cache(tmp)
        with census.installed():
            traced = run_sweep(workload, wseed, cache)
        gate.fresh(traced)
        replay_census = Census()
        with replay_census.installed():
            start = time.perf_counter()
            replay = run_sweep(workload, wseed, cache)
            replay_wall = time.perf_counter() - start
        shutil.rmtree(cache)
        gate.compare("traced", traced, untraced)
        gate.compare("replay", replay, untraced)

        untraced_walls.append(untraced.wall)
        traced_walls.append(traced.wall)
        sample = layer_metrics(census, traced, untraced, replay_wall,
                               replay_census)
        scale = speed.scale()
        for name in sample:
            if layer_unit(name) in ("host_s", "host_ns"):
                sample[name] *= scale
        samples.append(sample)
        print(f"sweep seed={wseed} untraced={untraced.wall:.3f}s "
              f"traced={traced.wall:.3f}s scale={scale:.3f}", flush=True)
        lap = time.perf_counter() - lap_start
        if time.perf_counter() + lap > deadline:
            break

    # Counts repeat exactly from pass to pass; host times take the median.
    values = {name: (samples[0][name] if layer_unit(name) == "count"
                     else median([s[name] for s in samples]))
              for name in samples[0]}
    values["trace.overhead_frac"] = (median(traced_walls)
                                     / median(untraced_walls) - 1.0)
    return {name: metric(values[name], layer_unit(name))
            for name in sorted(values)}


# ----------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="run seed (default 1; 7 is held out for "
                             "claim checks)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring window; a run always completes its "
                             "workload's sweeps once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"sweepbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Import and hash the sources up front, so no timed sweep pays for it.
    import repro.harness  # noqa: F401
    from repro.runner import code_version_salt
    code_version_salt()
    workload = WORKLOADS[args.workload]
    gate = Gate()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics = runner(workload, args.seed, args.seconds, tmp, gate)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = gate.failed == 0 and finite
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
