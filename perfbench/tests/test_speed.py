"""The speed meter samples where it should and corrects by the right factor."""

import signal
import time

import pytest

import speed


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_single_threaded_job_is_sampled_during_the_block(monkeypatch):
    monkeypatch.setitem(speed.KERNELS, "scalar", lambda: busy(0.01))
    meter = speed.SpeedMeter(period=0.1)
    with meter.watch(("scalar",), threaded=False):
        busy(0.55)
    # one burst before, about five single runs from the timer, one burst after
    assert 5 <= len(meter.speeds) <= 9
    in_block = (len(meter.speeds) - 2) * 0.01
    assert meter.net == pytest.approx(meter.wall - in_block, abs=0.02)
    assert meter.wall == pytest.approx(0.55, abs=0.03)  # busy() keeps to the wall clock


def test_threaded_job_is_sampled_only_between_its_operations(monkeypatch):
    monkeypatch.setitem(speed.KERNELS, "pool", lambda: busy(0.01))
    meter = speed.SpeedMeter(period=0.1)
    with meter.watch(("pool",), threaded=True):
        busy(0.25)
        assert len(meter.speeds) == 1 and meter.due
        meter.between_ops()
        assert len(meter.speeds) == 2 and not meter.due
        meter.between_ops()  # not due again yet
        assert len(meter.speeds) == 2
    assert len(meter.speeds) == 3


def test_correction_scales_net_time_by_mean_speed(monkeypatch):
    nominal = speed.NOMINAL_S["stream"]
    times = iter([nominal] * speed.BURST + [nominal / 2.0] * speed.BURST)
    monkeypatch.setattr(speed, "kernel_time", lambda kind: next(times))
    meter = speed.SpeedMeter(period=10.0)
    with meter.watch(("stream",), threaded=False):
        busy(0.2)
    # nominal speed before, twice as fast after: the job ran at 1.5x nominal
    assert meter.speeds == [1.0, 2.0]
    assert meter.corrected() == pytest.approx(1.5 * meter.net)


def test_timer_and_handler_are_restored():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter(period=0.05)
    with pytest.raises(RuntimeError):
        with meter.watch(("small",), threaded=False):
            raise RuntimeError("job failed")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_of_a_sample_averages_its_kernels(monkeypatch):
    monkeypatch.setattr(speed, "kernel_time",
                        lambda kind: speed.NOMINAL_S[kind] / (2.0 if kind == "pool" else 1.0))
    meter = speed.SpeedMeter()
    meter.kinds = ("pool", "stream")
    meter.sample(runs=3)
    assert meter.speeds == [pytest.approx(1.5)]
