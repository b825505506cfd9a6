"""Reference seconds from a probe timeline (speed.interval)."""

import pytest

import speed

REF = speed.REF_S


def test_steady_speed_scales_the_wall_time():
    # probes at [0, 0.01] and [1.01, 1.02], each taking twice REF_S
    timeline = [(0.0, 0.01, 2 * REF), (1.01, 1.02, 2 * REF)]
    wall, ref = speed.interval(timeline, 0.01, 1.01)
    assert wall == pytest.approx(1.0)
    assert ref == pytest.approx(0.5)


def test_probe_time_counts_in_neither_sum():
    timeline = [(0.0, 0.01, REF), (0.5, 0.51, REF), (1.0, 1.01, REF)]
    wall, ref = speed.interval(timeline, 0.0, 1.01)
    assert wall == pytest.approx(0.98)
    assert ref == pytest.approx(0.98)


def test_a_stretch_runs_at_the_mean_of_its_two_probes():
    timeline = [(0.0, 0.0, REF), (1.0, 1.0, 3 * REF), (2.0, 2.0, 3 * REF)]
    _, ref = speed.interval(timeline, 0.0, 2.0)
    assert ref == pytest.approx(1.0 / 2 + 1.0 / 3)


def test_outside_the_probes_the_nearest_probe_sets_the_speed():
    timeline = [(1.0, 1.0, 2 * REF), (2.0, 2.0, 4 * REF)]
    assert speed.interval(timeline, 0.0, 1.0)[1] == pytest.approx(0.5)
    assert speed.interval(timeline, 2.0, 4.0)[1] == pytest.approx(0.5)


def test_an_empty_timeline_is_refused():
    with pytest.raises(ValueError):
        speed.interval([], 0.0, 1.0)


def test_probe_times_the_same_work_each_call():
    assert speed.probe() > 0
    assert speed._work(100) == speed._work(100)

