"""Tests of the benchmark's closed loop, inputs and host-speed probe.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import workloads as wl  # noqa: E402


def _item(seconds, answer="a"):
    def run(cfg):
        time.sleep(seconds)
        return [wl.Op(seconds, wl.digest(answer), True)]
    return run


def test_loop_runs_whole_passes_then_stops_at_the_budget():
    items = [("fast", _item(0.01)), ("slow", _item(0.05))]
    res = wl.run_loop(items, lambda p: None, 0.2, min_passes=2)
    assert res.passes >= 2
    assert res.attempted == len(items)
    assert not res.mismatches and res.failed == 0


def test_loop_counts_each_operation_once_whatever_the_repeats():
    def failing(cfg):
        return [wl.Op(0.001, wl.digest("inf"), False, known_defect=True),
                wl.Op(0.001, wl.digest("1.0"), True)]
    short = wl.run_loop([("q", failing)], lambda p: None, 0.0)
    long = wl.run_loop([("q", failing)], lambda p: None, 0.1)
    assert short.passes == 1 and long.passes > 1
    for res in (short, long):
        assert (res.attempted, res.failed, res.known_defects) == (2, 1, 1)


def test_loop_flags_an_item_whose_answer_changes():
    answers = iter("abc")

    def run(cfg):
        return [wl.Op(0.0, wl.digest(next(answers)), True)]
    res = wl.run_loop([("x", run)], lambda p: None, 0.0, min_passes=2)
    assert res.mismatches == ["x"]


def test_distance_inputs_depend_only_on_seed_and_index():
    a = [wl.distance_point(5, k) for k in range(wl.DISTANCE_POINTS)]
    b = [wl.distance_point(5, k) for k in range(wl.DISTANCE_POINTS)]
    assert all(na == nb and (xa == xb).all()
               for (na, xa), (nb, xb) in zip(a, b))
    assert {n for n, _ in a} == set(wl.DISTANCE_MAPS)
    for k, (name, x) in enumerate(a):
        j = k // len(wl.DISTANCE_MAPS)
        r = float((x ** 2).sum() ** 0.5)
        assert 10.0 * 2 ** j <= r <= 10.0 * 2 ** (j + 1)


def test_speed_probe_samples_and_stops():
    with wl.SpeedProbe(period=0.01) as probe:
        time.sleep(0.2)
    assert probe.samples
    assert not probe._thread.is_alive()
    assert probe.scale() > 0
    assert wl.reference_time(3) > 0
