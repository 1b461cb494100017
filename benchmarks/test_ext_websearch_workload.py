"""Extension — the DCTCP web-search workload (heavy-tailed sizes).

The paper sweeps uniform flow sizes; production traffic is far more skewed.
Heavy tails are where size-based scheduling earns its keep: the many short
flows should cut through the few multi-megabyte elephants.  This benchmark
reruns the intra-rack comparison on the web-search distribution and also
checks the size-unaware "las" criterion, which must recover most of the
SRPT benefit without knowing flow sizes.
"""

from benchmarks.bench_common import emit, run_once, sweep
from repro.core import PaseConfig
from repro.harness import ScenarioSpec, format_series_table
from repro.metrics import bucket_stats
from repro.utils.units import KB, MB

LOADS = (0.3, 0.6)


def scenario():
    return ScenarioSpec("intra-rack", {"num_hosts": 20, "sizes": "web-search",
                                       "num_background_flows": 0})


def run_figure():
    results = {
        label: sweep((protocol,), scenario(), LOADS, num_flows=250,
                     pase_config=cfg, horizon=5.0)[protocol]
        for label, protocol, cfg in (
            ("pase", "pase", None),
            ("pase-las", "pase", PaseConfig(criterion="las")),
            ("dctcp", "dctcp", None),
        )
    }
    afct = {label: {l: r.afct * 1e3 for l, r in by_load.items()}
            for label, by_load in results.items()}
    text = format_series_table(
        "Extension: AFCT (ms) on the web-search size distribution",
        LOADS, afct, unit="ms")
    # Short-flow view: mean FCT of the sub-100KB bucket at 60% load.
    text += f"\n\n{'variant':<12}{'<=100KB mean FCT':<20}{'>1MB mean FCT':<18}"
    shorts = {}
    for label, by_load in results.items():
        buckets = bucket_stats(by_load[0.6].flows, [100 * KB, 1 * MB],
                               1e9, 300e-6)
        shorts[label] = buckets[0].mean_fct
        text += (f"\n{label:<12}{buckets[0].mean_fct * 1e3:<20.3f}"
                 f"{buckets[2].mean_fct * 1e3:<18.3f}")
    emit("ext_websearch_workload", text)
    return afct, shorts


def test_ext_websearch_workload(benchmark):
    afct, shorts = run_once(benchmark, run_figure)
    # Size-aware PASE dominates DCTCP on the heavy-tailed mix.
    for load in LOADS:
        assert afct["pase"][load] < afct["dctcp"][load]
    # Short flows: both PASE variants beat DCTCP decisively.
    assert shorts["pase"] < shorts["dctcp"]
    assert shorts["pase-las"] < shorts["dctcp"]
    # And LAS recovers most of the short-flow benefit without size info.
    assert shorts["pase-las"] < 3 * shorts["pase"]
