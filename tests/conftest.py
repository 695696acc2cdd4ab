"""Fixtures and helpers shared by every test module."""

import math
import sys

import numpy as np
import pytest

try:
    import mpmath
except ImportError:  # the mpmath-based tests skip themselves
    mpmath = None


@pytest.fixture(autouse=True)
def mpmath_precision_unchanged():
    """Fail any test that leaves mpmath's global working precision changed.

    A leaked ``mp.dps`` silently changes the precision of every later mpmath
    reference; set it with ``mpmath.workdps`` or restore it in a fixture.
    """
    if mpmath is None:
        yield
        return
    before = mpmath.mp.dps
    yield
    after = mpmath.mp.dps
    if after != before:
        mpmath.mp.dps = before
        pytest.fail(f"the test left mpmath.mp.dps at {after}, it was {before}")


def not_counts(low):
    """Values a count whose minimum is ``low`` must reject: one below the
    minimum, a fraction, a bool, an integral float and None."""
    return [low - 1, 2.5, True, np.float64(3.0), None]


def not_reals():
    """Values a real-valued setting must reject whatever its bound: a bool,
    a string, None, a one-element list and a complex number."""
    return [True, "1e-8", None, [1e-8], 1j]


def not_seeds():
    """Values a seed must reject: None (fresh OS entropy), a bool, a
    negative integer, floats, a string, an empty sequence and sequences
    holding any of these."""
    return [None, True, -1, 2.5, np.float64(3.0), "3", [], (), [1, -1], [1, 2.5], (True,)]


def largest_lam(k):
    """The largest double lam with k * lam * lam finite, the largest
    signal-to-noise ratio ``ModelParams`` accepts at order k."""
    lam = math.sqrt(sys.float_info.max / k)
    while not math.isfinite(k * lam * lam):
        lam = math.nextafter(lam, 0.0)
    while math.isfinite(k * math.nextafter(lam, math.inf) * math.nextafter(lam, math.inf)):
        lam = math.nextafter(lam, math.inf)
    return lam
