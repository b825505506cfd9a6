"""BENCHMARK.json, the code's metric lists and the workload rounds agree."""

import json
import os

import layers
import run
from workloads import WORKLOADS


def load():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    bench = load()
    assert {(w["name"], w["why"]) for w in bench["workloads"]} == \
        {(w.name, w.why) for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.units()
    assert set(layers.ZERO) == set(layers.NONZERO) == set(WORKLOADS)


def test_rounds_repeat_for_a_seed_and_differ_between_seeds():
    for w in WORKLOADS.values():
        a, b = w.rounds(1), w.rounds(1)
        first = next(a)
        assert first == next(b)
        assert next(a) == next(b)
        assert first != next(w.rounds(2))


def test_tail_rule():
    xs = list(range(1, 101))
    value, pct, n = run.tail(xs)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in xs) == 10
    # too few ops for a percentile above the median: the slowest op
    assert run.tail([3, 1, 2]) == (3, 100.0, 3)


def test_interp_queries_are_never_drawn_at_a_pole():
    import check
    rounds = WORKLOADS["cli-stream"].rounds(3)
    ops = [op for _ in range(5) for op in next(rounds)
           if op["kind"] == "interp"]
    assert ops
    assert all(check.interp_expected(op)["E_adjoint"] is not None
               for op in ops)
