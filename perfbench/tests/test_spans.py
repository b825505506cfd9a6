"""Self time on hand-made span trees with known answers."""

import pytest

from hooks import layer_of
from spans import Tracer, merge_summaries, self_times


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def test_flat_children():
    # root [0, 10] with children [1, 3] and [4, 6]
    got = self_times([-1, 0, 0], [0, 1, 4], [10, 3, 6])
    assert got == [6, 2, 2]


def test_nested_chain():
    # A [0, 10] > B [1, 9] > C [2, 4]
    got = self_times([-1, 0, 1], [0, 1, 2], [10, 9, 4])
    assert got == [2, 6, 2]


def test_overlapping_and_out_of_bounds_children_are_not_double_counted():
    # children [2, 6] and [5, 8] cover [2, 8]; [9, 12] is clipped to [9, 10]
    got = self_times([-1, 0, 0, 0], [0, 2, 5, 9], [10, 6, 8, 12])
    assert got[0] == pytest.approx(10 - 6 - 1)


def test_reentrant_wrappers_pow_calls_mul():
    clock = FakeClock()
    tr = Tracer(clock)

    def mul():
        clock.tick(2)

    mul_t = tr.wrap("exactnum.scalar.mul", mul)

    def power(n):
        clock.tick(1)
        for _ in range(n):
            mul_t()
        clock.tick(1)

    pow_t = tr.wrap("exactnum.scalar.pow", power)
    pow_t(3)
    s = tr.summary()
    assert s["calls"] == {"exactnum.scalar.mul": 3, "exactnum.scalar.pow": 1}
    assert s["self_s"]["exactnum.scalar.pow"] == 2
    assert s["self_s"]["exactnum.scalar.mul"] == 6
    assert s["total_s"]["exactnum.scalar.pow"] == 8
    # the layer's self time is the wall time, not the sum of durations
    assert sum(s["self_s"].values()) == 8


def test_recursive_wrapper():
    clock = FakeClock()
    tr = Tracer(clock)

    def fact(n):
        clock.tick(1)
        return 1 if n <= 1 else n * fact_t(n - 1)

    fact_t = tr.wrap("diffops.rf.mul", fact)
    assert fact_t(5) == 120
    s = tr.summary()
    assert s["calls"]["diffops.rf.mul"] == 5
    assert s["self_s"]["diffops.rf.mul"] == 5
    assert s["total_s"]["diffops.rf.mul"] == 5 + 4 + 3 + 2 + 1


def test_layer_calls_another_layer():
    # LaurentRF (3 units of its own) calls ExactScalar twice (2 units each)
    clock = FakeClock()
    tr = Tracer(clock)
    add = tr.wrap("exactnum.scalar.add", lambda: clock.tick(2))

    def lrf():
        clock.tick(1)
        add()
        clock.tick(1)
        add()
        clock.tick(1)

    with tr.span("bench.op"):
        clock.tick(0.5)
        tr.wrap("exactnum.laurent.new", lrf)()
    s = tr.summary()
    assert s["self_s"] == {"bench.op": 0.5, "exactnum.laurent.new": 3,
                           "exactnum.scalar.add": 4}
    assert layer_of("exactnum.laurent.new") == "exactnum.laurent"
    assert layer_of("exactnum.scalar.add") == "exactnum.scalar"
    assert layer_of("bench.op") is None


def test_double_wrapped_function_charges_inner_span():
    clock = FakeClock()
    tr = Tracer(clock)
    f = tr.wrap("outer", tr.wrap("inner", lambda: clock.tick(3)))
    f()
    assert tr.summary()["self_s"] == {"outer": 0, "inner": 3}


def test_span_closes_when_call_raises():
    clock = FakeClock()
    tr = Tracer(clock)

    def boom():
        clock.tick(1)
        raise ZeroDivisionError

    f = tr.wrap("exactnum.scalar.inverse", boom)
    with pytest.raises(ZeroDivisionError):
        f()
    g = tr.wrap("exactnum.scalar.add", lambda: clock.tick(2))
    g()
    assert tr.stack == [-1]
    assert list(tr.parent) == [-1, -1]
    assert tr.summary()["self_s"] == {"exactnum.scalar.inverse": 1,
                                      "exactnum.scalar.add": 2}


def test_merge_summaries_adds_and_takes_maxima():
    a = {"calls": {"x": 1}, "self_s": {"x": 0.5}, "total_s": {"x": 0.5},
         "counts": {"c": 2}, "maxima": {"m": 7}}
    b = {"calls": {"x": 2}, "self_s": {"x": 1.0}, "total_s": {"x": 1.5},
         "counts": {}, "maxima": {"m": 3}}
    m = merge_summaries([a, b])
    assert m["calls"] == {"x": 3} and m["self_s"] == {"x": 1.5}
    assert m["counts"] == {"c": 2} and m["maxima"] == {"m": 7}
