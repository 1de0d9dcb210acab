"""Machine-speed calibration: times are reported at a fixed reference speed.

The benchmark runs on shared virtual machines whose effective CPU speed
swings by a third or more within seconds and drifts between minutes, so raw
wall times of identical code spread wider than any useful bound.  A fixed
unit of pure-stdlib work (`unit`, exact `Fraction` arithmetic into a sparse
dict, like the package's own inner loops) is timed interleaved with the
measured work, and every interval is rescaled by how long the unit took
around it:

    reference seconds = measured seconds * UNIT_REF_S / unit seconds

`UNIT_REF_S` is the unit's time on a quiet 2-core Xeon virtual machine with
Python 3.11, so on such a machine reference seconds are close to wall
seconds.  The unit uses nothing from `ncperiod`, so a change to the package
moves the measured work and never the yardstick.

`RefClock` interleaves units with the measured work and reads reference
seconds; `speed_probe` times a few units in a row, for intervals that
cannot hold a timer, such as the start of a new process.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

UNIT_REF_S = 0.0030   # seconds per unit on the reference machine
PERIOD_S = 0.05       # seconds between units while a RefClock runs


def unit():
    """A fixed amount of exact arithmetic; its result is always the same."""
    acc = Fraction(0)
    vec = {}
    for i in range(1, 600):
        q = Fraction(i % 7 + 1, i % 5 + 1)
        acc += q
        vec[i & 63] = vec.get(i & 63, 0) + acc * q
        if acc.denominator > 1 << 40:
            acc = Fraction(1)
    return acc


def speed_probe(n=5):
    """Median seconds of n units in a row: the machine's current slowness."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        unit()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class RefClock:
    """A clock that runs at the reference speed while it is active.

    Use as `with RefClock() as clock: ...`; `clock()` reads reference
    seconds and `clock.raw()` wall seconds, both leaving out the time spent
    in units.  While the clock is active, a real-time interval timer runs
    one unit every PERIOD_S seconds in the main thread, between bytecodes.
    The clock stands still during a unit; each gap between two units
    advances it by the gap's wall seconds times UNIT_REF_S over the time of
    the unit before the gap.
    """

    def __init__(self):
        # (reference s, wall s, perf_counter and rate at the end of the last
        # unit), replaced in one assignment, so a unit run from the timer
        # never leaves a reader a half-updated state
        self._state = None
        self._old_handler = None

    def _unit(self, *signal_args):
        t0 = perf_counter()
        unit()
        t1 = perf_counter()
        if self._state is None:
            self._state = (0.0, 0.0, t1, UNIT_REF_S / (t1 - t0))
        else:
            ref, raw, mark, rate = self._state
            self._state = (ref + (t0 - mark) * rate, raw + (t0 - mark), t1,
                           UNIT_REF_S / (t1 - t0))

    def __call__(self):
        ref, _, mark, rate = self._state
        return ref + (perf_counter() - mark) * rate

    def raw(self):
        _, raw, mark, _ = self._state
        return raw + (perf_counter() - mark)

    def __enter__(self):
        self._unit()
        self._old_handler = signal.signal(signal.SIGALRM, self._unit)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False
