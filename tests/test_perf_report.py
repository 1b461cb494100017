"""The perf report keeps each best-of leg's gated value and its spread."""

import json

from benchmarks.perf import BestOf, best_of


def test_best_of_gates_the_best_and_keeps_every_repeat():
    rates = iter([3.0, 5.0, 4.0])
    best = best_of(lambda: next(rates), repeats=3)
    assert isinstance(best, BestOf)
    assert best == 5.0
    assert best.spread() == {"repeats": [3.0, 5.0, 4.0], "min": 3.0,
                             "median": 4.0, "max": 5.0}
    # The report serializes the gated value as a plain number.
    assert json.loads(json.dumps({"rate": best})) == {"rate": 5.0}
