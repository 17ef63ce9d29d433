"""Self-tests of the host-speed factors."""

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import NEIGHBOURS, NOMINAL_S, HostSpeed


def _speed(durations):
    """A HostSpeed whose probe ``j`` starts at ``j`` s and takes ``durations[j]``."""
    readings = []
    for j, took in enumerate(durations):
        readings += [float(j), j + took]
    speed = HostSpeed(clock=iter(readings).__next__)
    speed.probe(len(durations))
    return speed


def test_factor_is_the_median_of_nearby_probes_over_nominal():
    slow = 3 * NEIGHBOURS
    speed = _speed([NOMINAL_S] * slow + [2 * NOMINAL_S] * slow)
    early, late = speed.factors([NEIGHBOURS + 0.5, 2 * slow - NEIGHBOURS])
    assert early == pytest.approx(1.0)
    assert late == pytest.approx(2.0)
    # A stray slow probe among fast ones does not move the median.
    speed = _speed([NOMINAL_S] * slow + [50 * NOMINAL_S] + [NOMINAL_S] * slow)
    assert speed.factors([slow])[0] == pytest.approx(1.0)
    assert speed.overall() == pytest.approx(1.0)


def test_factors_need_a_probe():
    with pytest.raises(AssertionError):
        HostSpeed().factors([0.0])


def test_kernel_uses_no_program_code():
    # A slower program has to read slower, not be scaled back to the
    # nominal host: the kernel may not reach the program.
    modules = {
        getattr(value, "__module__", None) or getattr(value, "__name__", "")
        for value in vars(hostspeed).values()
    }
    assert not any(str(name).startswith("repro") for name in modules)
    assert hostspeed.kernel() == hostspeed.kernel() > 0
